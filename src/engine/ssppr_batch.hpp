// Multi-query batched SSPPR driver: advances B concurrent queries in
// lockstep so that their per-iteration remote fetches can be coalesced.
// Each lockstep round pops every query's frontier, deduplicates the union
// of requested <local id, shard id> vertices across queries, issues at
// most ONE batched RPC per remote shard for the union (misses only, after
// the halo- and adjacency-cache splits), and fans the fetched rows back to
// every requesting query's push.
//
// Compared with running the B queries independently, a round that would
// have issued B requests to a shard issues one, and any vertex wanted by
// several queries crosses the wire once — the multi-query analogue of the
// paper's per-iteration batching (Figure 4), layered on the same
// batch/compress/overlap switches.
#pragma once

#include <span>

#include "engine/ssppr_driver.hpp"

namespace ppr {

struct BatchRunStats {
  std::size_t num_queries = 0;
  /// Lockstep rounds in which at least one query still had a frontier.
  std::size_t num_iterations = 0;
  /// Sum of states[q].num_pushes() after the run (cumulative per state,
  /// like SspprRunStats — pass fresh or reset() states for per-run counts).
  std::size_t num_pushes = 0;
};

/// Run every state in `states` to completion in lockstep. All sources must
/// be core nodes of `storage`'s shard (owner-compute rule). The per-query
/// push results are bit-identical to running each query alone: the
/// fan-out keeps each query's per-shard push-call order, only the fetches
/// are shared. Own-shard and halo rows push inside the pipeline's overlap
/// hook, while remote responses are in flight. `options.query_threads > 1`
/// spreads the push fan-out across queries with OpenMP (states are
/// disjoint, so this stays deterministic). `options.batch` must be set —
/// the Single ablation is run_ssppr's (InvalidArgument otherwise). Each
/// round records its pop pass and its push fan-outs once into
/// `pipeline.phase_us`; the pipeline records the two fetch phases.
BatchRunStats run_ssppr_batch(const DistGraphStorage& storage,
                              std::span<SspprState> states,
                              const DriverOptions& options = {});

}  // namespace ppr
