// Distributed Random Walk over the Distributed Graph Storage — the second
// graph primitive of the paper's Figure 4. Fixed-length walks are tensor-
// friendly (static shapes), so this driver only needs the storage API plus
// bulk index operations; no C++ per-step operators are required.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/dist_storage.hpp"

namespace ppr {

struct RandomWalkOptions {
  int walk_length = 10;
  std::uint64_t seed = 1;
  /// Batch each step through the shared fetch pipeline: the walkers'
  /// neighbor rows resolve through the halo/adjacency caches where
  /// resident, at most one RPC per shard fetches the rest, and sampling
  /// happens client-side per walker. When false, every walker reads its
  /// own row every step — from the pinned own-shard snapshot, or by one
  /// single-row RPC — the unbatched baseline, like the SSPPR Single
  /// ablation. Both modes pick from the same row with the same per-walker
  /// RNG stream, so they produce identical walks for a given seed.
  bool batch = true;
  /// Response compression for the batched mode (same switch as the SSPPR
  /// driver); ignored when batch is false.
  bool compress = true;
  /// Advance own-shard walkers while remote responses are in flight;
  /// ignored when batch is false. Either setting yields identical walks.
  bool overlap = true;
  /// Wire codec of the CSR response (same knob as DriverOptions::codec);
  /// ignored when batch is false. Walks are identical under either codec.
  WireCodec codec = WireCodec::kFlat;
  /// Graph version the walk reads at (same contract as
  /// DriverOptions::graph_version): resolved once, every step of every
  /// walker samples from that one snapshot.
  std::uint64_t graph_version = kVersionLatest;
};

struct RandomWalkResult {
  std::size_t num_walks = 0;
  int walk_length = 0;
  /// walks[i * walk_length + t] = global id visited by walker i at step t.
  std::vector<NodeId> walks;

  NodeId at(std::size_t walk, int step) const {
    return walks[walk * static_cast<std::size_t>(walk_length) +
                 static_cast<std::size_t>(step)];
  }
};

/// Run one walk per root. Roots are local ids of core nodes on this
/// process's own shard (owner-compute rule).
RandomWalkResult distributed_random_walk(const DistGraphStorage& g,
                                         std::span<const NodeId> root_locals,
                                         const RandomWalkOptions& options);

}  // namespace ppr
