// Unified fetch pipeline: the one cache-aware Batch/Compress/Overlap
// resolution path shared by every distributed traversal operator (the
// SSPPR batch driver, BFS, random walk, node2vec, the k-hop sampler, the
// ShaDow subgraph builder), for own-shard and remote rows alike.
//
// A pipeline is pinned to one graph version for its whole life. Each
// round, callers add the <shard, local id> pairs their frontier needs;
// execute() then resolves own-shard rows through the pinned snapshot and
// runs the full resolution cascade per remote shard:
//
//   1. halo-cache split      — rows resident in the static 1-hop halo
//                              cache are served zero-copy (§3.2.1), each
//                              while its row is unmutated at the pin;
//   2. adjacency-cache split — rows resident in the CLOCK-evicted
//                              dynamic cache, tagged per row with their
//                              last mutation, are arena-copied out (a
//                              halo row re-fetched after its copy went
//                              stale stays there, non-evictable);
//   3. one batched RPC       — at most one async, optionally compressed,
//                              request per remote shard for the misses
//                              (§3.2.3 Batch/Compress);
//   4. overlap hook          — the caller-supplied callback runs local
//                              work while responses are in flight
//                              (§3.2.3 Overlap);
//   5. decode + feedback     — responses fan into their union rows and
//                              freshly fetched rows feed the adjacency
//                              cache.
//
// Every resolved row is addressable by (shard, union row) and carries its
// provenance (local / halo / cache / wire), which is what lets the SSPPR
// drivers replay their exact push-call structure — own shard first, halo
// hits before fetched misses, rows in request order — so results stay
// bit-identical no matter which caches happen to be warm. The halo hits
// are exactly the rows whose version-0 copy is valid at the pin, so that
// group is a function of the pin alone; a refreshed halo row resolves as
// a cache hit and pushes with the wire rows.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "concurrent/flat_map.hpp"
#include "storage/dist_storage.hpp"

namespace ppr {

/// Provenance of one resolved union row.
enum class RowSource : std::uint8_t {
  kLocal = 0,   // own-shard shared-memory fetch
  kHalo = 1,    // static halo-adjacency cache hit
  kCache = 2,   // dynamic adjacency-cache hit (arena copy)
  kRemote = 3,  // arrived over the wire this round
};

/// Cumulative split accounting across every executed round. For each
/// round, rows_local + rows_halo + rows_cached + rows_wire ==
/// rows_requested (the cascade partitions the request set).
///
/// Fields are registry counters attached under `pipeline.*`: pipelines are
/// short-lived (one per driver invocation), so the registry's retirement
/// accounting is what keeps the process totals complete after a query
/// finishes. Also makes concurrent snapshot-while-serving reads race-free
/// (the old plain uint64 fields were not).
struct FetchPipelineStats {
  FetchPipelineStats() {
    auto& reg = obs::MetricRegistry::global();
    regs_.push_back(reg.attach("pipeline.rounds", {}, rounds));
    regs_.push_back(reg.attach("pipeline.rows_requested", {},
                               rows_requested));
    regs_.push_back(reg.attach("pipeline.rows_local", {}, rows_local));
    regs_.push_back(reg.attach("pipeline.rows_halo", {}, rows_halo));
    regs_.push_back(reg.attach("pipeline.rows_cached", {}, rows_cached));
    regs_.push_back(reg.attach("pipeline.rows_wire", {}, rows_wire));
    regs_.push_back(reg.attach("pipeline.rpcs_issued", {}, rpcs_issued));
  }

  obs::Counter rounds;
  obs::Counter rows_requested;
  obs::Counter rows_local;   // own-shard rows
  obs::Counter rows_halo;    // halo-cache hits
  obs::Counter rows_cached;  // adjacency-cache hits
  obs::Counter rows_wire;    // rows actually fetched over RPC
  obs::Counter rpcs_issued;  // at most one per remote shard per round

 private:
  std::vector<obs::Registration> regs_;
};

/// `pipeline.phase_us{phase=...}`: the one phase clock, in integer µs.
/// Each driver records each phase once per round: FetchPipeline::execute
/// its local_fetch and remote_fetch, run_ssppr_batch its pop pass and the
/// round's push fan-outs, the Single ablation (run_ssppr) and the tensor
/// baseline all four from their own loops.
obs::Histogram& pipeline_phase_histogram(Phase phase);

/// Round-recycled resolution engine bound to one DistGraphStorage (one
/// computing process). Not thread-safe: each driver owns its own pipeline,
/// like the scratch structs it replaces. All scratch keeps its capacity
/// across rounds, so the steady-state loop performs no allocations for
/// its bookkeeping.
class FetchPipeline {
 public:
  /// The per-round RPC plan (the Compress/Overlap switches of §3.2.3;
  /// Batch is inherent — the pipeline never issues per-vertex requests).
  struct Plan {
    bool compress = true;
    bool overlap = true;
    /// Array encoding of the CSR response (flat vs delta-varint).
    WireCodec codec = WireCodec::kFlat;
    /// When false, weight/degree floats are dropped from responses.
    /// Weightless batches never feed the adjacency cache.
    bool need_weights = true;

    FetchOptions fetch_options() const {
      return FetchOptions{compress, codec, need_weights};
    }
  };

  /// Pin every round to one graph version (DESIGN.md §15), resolved
  /// once through DistGraphStorage::resolve_pin (the default reads the
  /// newest published version): fetch RPCs carry it, adjacency-cache
  /// validity is judged against it, the halo split skips rows first
  /// mutated at or before it, and self-shard rows are served through a
  /// snapshot frozen at it.
  explicit FetchPipeline(const DistGraphStorage& storage,
                         std::uint64_t graph_version = kVersionLatest);

  const DistGraphStorage& storage() const { return storage_; }

  /// Drop the previous round's rows and pending fetches (capacity kept).
  void begin_round();

  /// Request the neighbor row of `<local, shard>`; duplicate adds collapse
  /// onto one union row. Returns the row index within `shard`'s union.
  std::uint32_t add(ShardId shard, NodeId local);

  /// Union row of a previously add()ed pair (GE_CHECKs that it exists).
  std::uint32_t row_of(ShardId shard, NodeId local) const;

  /// This round's deduplicated request list for `shard`, in add() order.
  std::span<const NodeId> requested(ShardId shard) const;
  std::size_t num_rows(ShardId shard) const;

  /// Run the cascade for every shard with requests. `local_work`, if
  /// non-null, runs while remote responses are in flight (under
  /// `plan.overlap`; without it, after all responses arrived) — by then
  /// own-shard, halo, and cache rows are already resolved and readable
  /// through row()/source(). Records this round's local_fetch and
  /// remote_fetch into pipeline_phase_histogram().
  void execute(const Plan& plan,
               const std::function<void()>& local_work = nullptr);

  /// Resolved neighbor row view. Valid until the next begin_round();
  /// rows of remote provenance only after execute() returned, the rest
  /// already inside the overlap callback.
  VertexProp row(ShardId shard, std::uint32_t r) const {
    return resolved_[static_cast<std::size_t>(shard)][r];
  }
  /// Where row `r` of `shard`'s union was resolved from.
  RowSource source(ShardId shard, std::uint32_t r) const {
    return sources_[static_cast<std::size_t>(shard)][r];
  }

  const FetchPipelineStats& stats() const { return stats_; }

 private:
  void resolve_remote_shard(std::size_t j, const Plan& plan);

  const DistGraphStorage& storage_;

  // All indexed [shard].
  std::vector<std::vector<NodeId>> union_locals_;
  std::vector<FlatMap<std::uint32_t>> union_index_;
  std::vector<std::vector<VertexProp>> resolved_;
  std::vector<std::vector<RowSource>> sources_;
  std::vector<CachedRowArena> arenas_;
  std::vector<DistGraphStorage::HaloSplit> halo_splits_;
  std::vector<DistGraphStorage::AdjacencySplit> adj_splits_;
  // What actually goes on the wire and the union row each response row
  // fans into.
  std::vector<std::vector<NodeId>> fetch_locals_;
  std::vector<std::vector<std::uint32_t>> fetch_rows_;
  std::vector<NeighborFetch> fetches_;
  std::vector<NeighborBatch> batches_;

  // Version pin of the owning query; snapshot_ freezes the self-shard at
  // it.
  std::uint64_t pin_;
  std::shared_ptr<const ShardSnapshot> snapshot_;

  FetchPipelineStats stats_;
};

}  // namespace ppr
