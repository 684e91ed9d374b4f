// A plain reference for sample_khop: the sampler's random stream replayed
// over neighbor lists the test supplies, with no storage, pipeline or
// cache in the way. Per level, one Rng(seed) per shard; the own shard
// first, then the others in ascending order; each shard's sources in
// frontier order; up to k neighbors each by partial Fisher–Yates.
#pragma once

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ppr/khop_sampler.hpp"

namespace ppr {

/// `neighbors(ref)` returns the neighbor refs of `ref`'s row in stored
/// order.
template <typename NeighborsOf>
KHopResult reference_khop(ShardId self, int num_shards,
                          std::span<const NodeId> roots,
                          const KHopOptions& options,
                          const NeighborsOf& neighbors) {
  KHopResult res;
  res.levels.emplace_back();
  for (const NodeId l : roots) res.levels.back().push_back(NodeRef{l, self});

  std::vector<ShardId> shard_order{self};
  for (ShardId j = 0; j < num_shards; ++j) {
    if (j != self) shard_order.push_back(j);
  }
  for (std::size_t depth = 0; depth < options.fanouts.size(); ++depth) {
    const std::vector<NodeRef> frontier = res.levels.back();
    if (frontier.empty()) break;
    const auto k = static_cast<std::size_t>(options.fanouts[depth]);
    const std::uint64_t seed = options.seed * 0x9e3779b97f4a7c15ULL + depth;
    std::set<std::uint64_t> seen;
    std::vector<NodeRef> next;
    for (const ShardId j : shard_order) {
      Rng rng(seed);
      for (const NodeRef src : frontier) {
        if (src.shard != j) continue;
        const std::vector<NodeRef> row = neighbors(src);
        std::vector<std::size_t> picks(row.size());
        for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
        const std::size_t take = std::min(row.size(), k);
        for (std::size_t i = 0; i < take; ++i) {
          std::swap(picks[i], picks[i + rng.next_u64(row.size() - i)]);
        }
        for (std::size_t i = 0; i < take; ++i) {
          const NodeRef dst = row[picks[i]];
          res.edges.emplace_back(src, dst);
          if (seen.insert(dst.key()).second) next.push_back(dst);
        }
      }
    }
    res.levels.push_back(std::move(next));
  }
  return res;
}

/// Levels and edges of two samples as comparable keys.
inline std::vector<std::vector<std::uint64_t>> khop_levels(
    const KHopResult& r) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const auto& level : r.levels) {
    out.emplace_back();
    for (const NodeRef n : level) out.back().push_back(n.key());
  }
  return out;
}

inline std::vector<std::pair<std::uint64_t, std::uint64_t>> khop_edges(
    const KHopResult& r) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(r.edges.size());
  for (const auto& [src, dst] : r.edges) {
    out.emplace_back(src.key(), dst.key());
  }
  return out;
}

}  // namespace ppr
