#include "ppr/khop_sampler.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "concurrent/flat_map.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

KHopResult sample_khop(const DistGraphStorage& storage,
                       std::span<const NodeId> root_locals,
                       const KHopOptions& options) {
  GE_REQUIRE(!options.fanouts.empty(), "need at least one fanout level");
  for (const int f : options.fanouts) {
    GE_REQUIRE(f >= 1, "fanouts must be positive");
  }
  const int num_shards = storage.num_shards();
  const ShardId self = storage.shard_id();

  KHopResult res;
  res.levels.emplace_back();
  for (const NodeId l : root_locals) {
    res.levels.back().push_back(NodeRef{l, self});
  }

  // One pipeline for the whole call: every level reads the version pinned
  // here, through the halo and adjacency caches.
  FetchPipeline pipeline(storage);
  std::vector<std::vector<NodeId>> by_shard_locals(
      static_cast<std::size_t>(num_shards));
  std::vector<std::size_t> picks;
  for (std::size_t depth = 0; depth < options.fanouts.size(); ++depth) {
    const auto& frontier = res.levels.back();
    if (frontier.empty()) break;
    const auto k = static_cast<std::size_t>(options.fanouts[depth]);
    const std::uint64_t seed =
        options.seed * 0x9e3779b97f4a7c15ULL + depth;

    // Sources per shard in frontier order; a repeated root stays repeated
    // (and draws again), the pipeline fetches its row once.
    pipeline.begin_round();
    for (auto& v : by_shard_locals) v.clear();
    for (const NodeRef ref : frontier) {
      by_shard_locals[static_cast<std::size_t>(ref.shard)].push_back(
          ref.local);
      pipeline.add(ref.shard, ref.local);
    }

    FlatMap<std::uint8_t> next_seen;
    std::vector<NodeRef> next_level;
    // One RNG stream per shard per level over its sources in order: up to
    // k distinct neighbors each, by partial Fisher–Yates.
    const auto sample_shard = [&](ShardId j) {
      Rng rng(seed);
      for (const NodeId local : by_shard_locals[static_cast<std::size_t>(j)]) {
        const VertexProp prop = pipeline.row(j, pipeline.row_of(j, local));
        const std::size_t deg = prop.degree();
        const std::size_t take = std::min(deg, k);
        picks.resize(deg);
        for (std::size_t i = 0; i < deg; ++i) picks[i] = i;
        for (std::size_t i = 0; i < take; ++i) {
          std::swap(picks[i], picks[i + rng.next_u64(deg - i)]);
        }
        for (std::size_t i = 0; i < take; ++i) {
          const NodeRef dst{prop.nbr_local_ids[picks[i]],
                            prop.nbr_shard_ids[picks[i]]};
          res.edges.emplace_back(NodeRef{local, j}, dst);
          if (!next_seen.contains(dst.key())) {
            next_seen[dst.key()] = 1;
            next_level.push_back(dst);
          }
        }
      }
    };

    // Own shard first, while remote rows are in flight; then each remote
    // shard in ascending order.
    pipeline.execute({}, [&] { sample_shard(self); });
    for (ShardId j = 0; j < num_shards; ++j) {
      if (j != self) sample_shard(j);
    }
    res.levels.push_back(std::move(next_level));
  }
  return res;
}

}  // namespace ppr
