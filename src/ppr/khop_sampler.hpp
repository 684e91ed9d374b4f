// GraphSAGE-style k-hop neighborhood sampler over the Distributed Graph
// Storage — the BFS/neighbor-sampling mini-batch construction the paper's
// introduction lists alongside Random Walk and PPR [10]. Each level is one
// round of the shared fetch pipeline (halo and adjacency caches first, at
// most one batched RPC per remote shard), and every fetched row is
// sampled on the client.
#pragma once

#include <vector>

#include "storage/dist_storage.hpp"

namespace ppr {

struct KHopOptions {
  /// Fan-out per level, outermost first (e.g. {10, 5} samples up to 10
  /// neighbors of each root, then 5 of each of those).
  std::vector<int> fanouts{10, 5};
  std::uint64_t seed = 1;
};

struct KHopResult {
  /// Sampled nodes per level; level 0 is the roots.
  std::vector<std::vector<NodeRef>> levels;
  /// Sampled edges as (src, dst) NodeRef pairs, src from level i, dst
  /// from level i+1 (dst may repeat across sources).
  std::vector<std::pair<NodeRef, NodeRef>> edges;

  std::size_t num_sampled_nodes() const {
    std::size_t n = 0;
    for (const auto& level : levels) n += level.size();
    return n;
  }
};

/// Sample the k-hop neighborhood of `root_locals` (core nodes of this
/// process's shard). Nodes are deduplicated within each level. Every level
/// reads the graph version that was newest when the call began.
KHopResult sample_khop(const DistGraphStorage& storage,
                       std::span<const NodeId> root_locals,
                       const KHopOptions& options = {});

}  // namespace ppr
