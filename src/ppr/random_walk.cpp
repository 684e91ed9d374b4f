#include "ppr/random_walk.hpp"

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

namespace {

/// Seed of walker `i`'s private RNG stream at `step`. Both modes pick
/// with it from the same row, which is what keeps them bit-identical for
/// a given seed.
std::uint64_t walker_seed(std::uint64_t seed, int step, std::size_t i) {
  const std::uint64_t step_seed =
      seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(step);
  return step_seed ^ (static_cast<std::uint64_t>(i) * 0x2545f4914f6cdd1dULL);
}

/// Weighted choice proportional to edge weight: the first draw of the
/// walker's stream.
std::size_t weighted_pick(const VertexProp& prop, std::uint64_t seed) {
  Rng rng(seed);
  const float target = rng.next_float(0.0f, prop.weighted_degree);
  float acc = 0;
  std::size_t pick = prop.degree() - 1;
  for (std::size_t k = 0; k < prop.degree(); ++k) {
    acc += prop.edge_weights[k];
    if (acc >= target) {
      pick = k;
      break;
    }
  }
  return pick;
}

}  // namespace

RandomWalkResult distributed_random_walk(const DistGraphStorage& g,
                                         std::span<const NodeId> root_locals,
                                         const RandomWalkOptions& options) {
  GE_REQUIRE(options.walk_length > 0, "walk_length must be positive");
  const std::size_t n = root_locals.size();
  const ShardId self = g.shard_id();

  RandomWalkResult res;
  res.num_walks = n;
  res.walk_length = options.walk_length;
  res.walks.resize(n * static_cast<std::size_t>(options.walk_length));

  std::vector<NodeId> node_ids(root_locals.begin(), root_locals.end());
  std::vector<ShardId> shard_ids(n, self);
  // Current global id per walker: needed so a dangling node (degree 0)
  // can record itself without a reverse lookup.
  std::vector<NodeId> cur_global(n);
  for (std::size_t i = 0; i < n; ++i) {
    cur_global[i] = g.local_shard().core_global_id(root_locals[i]);
  }
  // Move walker `i` one step along `prop`, its current node's row, and
  // record where it landed at `step`.
  const auto advance = [&](std::size_t i, const VertexProp& prop, int step) {
    if (prop.degree() > 0) {
      const std::size_t pick =
          weighted_pick(prop, walker_seed(options.seed, step, i));
      node_ids[i] = prop.nbr_local_ids[pick];
      shard_ids[i] = prop.nbr_shard_ids[pick];
      cur_global[i] = prop.nbr_global_ids[pick];
    }
    // Dangling node: the walk restarts at itself.
    res.walks[i * static_cast<std::size_t>(options.walk_length) +
              static_cast<std::size_t>(step)] = cur_global[i];
  };

  if (options.batch) {
    // Each step is one pipeline round over the walkers' current nodes
    // (deduplicated per shard — colocated walkers share one row), then a
    // client-side weighted pick per walker from its private RNG stream.
    // Sampling client-side is what lets walks ride the halo/adjacency
    // caches: the row crosses the wire (at most once), not the sample.
    FetchPipeline pipeline(g, options.graph_version);
    obs::ScopedSpan query_span("walk.query");
    std::vector<std::uint8_t> advanced(n);
    for (int step = 0; step < options.walk_length; ++step) {
      obs::ScopedSpan step_span("walk.step");
      pipeline.begin_round();
      for (std::size_t i = 0; i < n; ++i) {
        pipeline.add(shard_ids[i], node_ids[i]);
      }

      const auto advance_from_pipeline = [&](std::size_t i) {
        const ShardId shard = shard_ids[i];
        advance(i, pipeline.row(shard, pipeline.row_of(shard, node_ids[i])),
                step);
      };

      advanced.assign(n, 0);
      pipeline.execute({options.compress, options.overlap, options.codec}, [&] {
        // Advance own-shard walkers while remote rows are in flight.
        for (std::size_t i = 0; i < n; ++i) {
          if (shard_ids[i] == self) {
            advance_from_pipeline(i);
            advanced[i] = 1;
          }
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        if (!advanced[i]) advance_from_pipeline(i);
      }
    }
    return res;
  }

  // Unbatched baseline: one row read per walker per step, like the SSPPR
  // Single ablation — own-shard rows from the snapshot pinned at
  // admission, remote rows by a single-row fetch at the same pin.
  const std::uint64_t pin = g.resolve_pin(options.graph_version);
  const auto snap = g.local_store().snapshot(pin);
  for (int step = 0; step < options.walk_length; ++step) {
    snap->reset_scratch();
    for (std::size_t i = 0; i < n; ++i) {
      if (shard_ids[i] == self) {
        g.stats().local_nodes.fetch_add(1, std::memory_order_relaxed);
        advance(i, snap->vertex_prop(node_ids[i]), step);
        continue;
      }
      const NeighborBatch fetched =
          g.get_neighbor_info_single_async(shard_ids[i], node_ids[i], pin)
              .wait();
      GE_REQUIRE(fetched.size() == 1,
                 "single-row fetch must return exactly one row");
      advance(i, fetched[0], step);
    }
  }
  return res;
}

}  // namespace ppr
