// node2vec-style second-order biased random walk over the Distributed
// Graph Storage. The paper's motivating GNN methods include random-walk
// samplers (PinSage, GraphSAINT — its refs [29, 32]); node2vec's p/q
// biasing is the standard generalization of the uniform walk shipped in
// ppr/random_walk.hpp.
//
// Unlike the first-order walk, the transition at v depends on the
// previous node t: an edge (v, x) is reweighted by
//   1/p  if x == t              (return)
//   1    if x ∈ N(t)            (stay close — triangle edge)
//   1/q  otherwise               (explore)
// Because the bias needs v's full neighbor row AND membership in N(t),
// sampling happens client-side from fetch-pipeline rounds — exactly the
// fetch machinery the SSPPR driver uses, demonstrating the engine's "easy
// integration of single-machine graph primitives". One call reads one
// pinned graph version (the newest published when it starts).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/dist_storage.hpp"

namespace ppr {

struct Node2vecOptions {
  int walk_length = 10;
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
  std::uint64_t seed = 1;
};

struct Node2vecResult {
  std::size_t num_walks = 0;
  int walk_length = 0;
  /// walks[i * walk_length + t] = packed NodeRef at step t of walk i.
  /// Translate to global ids with GlobalMapping::to_global (the walk
  /// itself never needs global ids, so it stays mapping-free).
  std::vector<std::uint64_t> walks;

  NodeRef at(std::size_t walk, int step) const {
    return NodeRef::from_key(
        walks[walk * static_cast<std::size_t>(walk_length) +
              static_cast<std::size_t>(step)]);
  }
};

/// One biased walk per root (roots are core-node local ids of this
/// process's shard).
Node2vecResult node2vec_walk(const DistGraphStorage& storage,
                             std::span<const NodeId> root_locals,
                             const Node2vecOptions& options);

}  // namespace ppr
