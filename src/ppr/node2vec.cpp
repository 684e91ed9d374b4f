#include "ppr/node2vec.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

namespace {
/// Sorted packed-key set of a neighborhood, for O(log d) membership tests.
std::vector<std::uint64_t> neighbor_key_set(const VertexProp& vp) {
  std::vector<std::uint64_t> keys;
  keys.reserve(vp.degree());
  for (std::size_t k = 0; k < vp.degree(); ++k) {
    keys.push_back(NodeRef{vp.nbr_local_ids[k], vp.nbr_shard_ids[k]}.key());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool contains(const std::vector<std::uint64_t>& sorted, std::uint64_t key) {
  return std::binary_search(sorted.begin(), sorted.end(), key);
}
}  // namespace

Node2vecResult node2vec_walk(const DistGraphStorage& storage,
                             std::span<const NodeId> root_locals,
                             const Node2vecOptions& options) {
  GE_REQUIRE(options.walk_length > 0, "walk_length must be positive");
  GE_REQUIRE(options.p > 0 && options.q > 0, "p and q must be positive");
  const int num_shards = storage.num_shards();
  const std::size_t n = root_locals.size();

  Node2vecResult res;
  res.num_walks = n;
  res.walk_length = options.walk_length;
  res.walks.resize(n * static_cast<std::size_t>(options.walk_length));

  struct Walker {
    NodeRef current;
    std::uint64_t prev_key = kEmptyKey;        // no previous on step 0
    std::vector<std::uint64_t> prev_neighbors; // sorted keys of N(prev)
    bool stuck = false;
  };
  std::vector<Walker> walkers(n);
  for (std::size_t i = 0; i < n; ++i) {
    walkers[i].current = NodeRef{root_locals[i], storage.shard_id()};
  }

  Rng rng(options.seed);
  // Walkers per shard this step, in walker order. The shared RNG stream
  // sees the advance order — own shard first, then remote shards
  // ascending — so it must not depend on where a row resolved from.
  std::vector<std::vector<std::size_t>> by_shard(
      static_cast<std::size_t>(num_shards));
  // One pin for the whole walk: every step reads the same graph version,
  // own-shard rows through its snapshot, remote rows over the caches and
  // at most one RPC per shard.
  FetchPipeline pipeline(storage);
  const ShardId self = storage.shard_id();

  for (int step = 0; step < options.walk_length; ++step) {
    for (auto& v : by_shard) v.clear();
    pipeline.begin_round();
    for (std::size_t i = 0; i < n; ++i) {
      if (walkers[i].stuck) continue;
      const NodeRef cur = walkers[i].current;
      by_shard[static_cast<std::size_t>(cur.shard)].push_back(i);
      pipeline.add(cur.shard, cur.local);
    }

    const auto advance = [&](std::size_t i) {
      Walker& w = walkers[i];
      const ShardId shard = w.current.shard;
      const VertexProp vp =
          pipeline.row(shard, pipeline.row_of(shard, w.current.local));
      if (vp.degree() == 0) {
        w.stuck = true;  // dangling: the walk stays put for all steps
        return;
      }
      double total = 0;
      // Two passes: weigh, then sample by prefix sum.
      std::vector<double> weights(vp.degree());
      for (std::size_t k = 0; k < vp.degree(); ++k) {
        const std::uint64_t key =
            NodeRef{vp.nbr_local_ids[k], vp.nbr_shard_ids[k]}.key();
        double bias;
        if (key == w.prev_key) {
          bias = 1.0 / options.p;
        } else if (w.prev_key != kEmptyKey &&
                   contains(w.prev_neighbors, key)) {
          bias = 1.0;
        } else {
          bias = 1.0 / options.q;
        }
        weights[k] = static_cast<double>(vp.edge_weights[k]) * bias;
        total += weights[k];
      }
      const double target = rng.next_double() * total;
      double acc = 0;
      std::size_t pick = vp.degree() - 1;
      for (std::size_t k = 0; k < vp.degree(); ++k) {
        acc += weights[k];
        if (acc >= target) {
          pick = k;
          break;
        }
      }
      // Move: remember where we came from and its neighborhood.
      w.prev_key = w.current.key();
      w.prev_neighbors = neighbor_key_set(vp);
      w.current = NodeRef{vp.nbr_local_ids[pick], vp.nbr_shard_ids[pick]};
    };
    const auto advance_shard = [&](ShardId j) {
      for (const std::size_t i : by_shard[static_cast<std::size_t>(j)]) {
        advance(i);
      }
    };

    // Own-shard walkers advance while remote rows are in flight.
    pipeline.execute({}, [&] { advance_shard(self); });
    for (ShardId j = 0; j < num_shards; ++j) {
      if (j != self) advance_shard(j);
    }

    // Record positions after the move (stuck walkers repeat in place).
    for (std::size_t i = 0; i < n; ++i) {
      res.walks[i * static_cast<std::size_t>(options.walk_length) +
                static_cast<std::size_t>(step)] = walkers[i].current.key();
    }
  }
  return res;
}

}  // namespace ppr
