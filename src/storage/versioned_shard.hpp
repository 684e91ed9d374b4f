// Versioned mutable storage plane (DESIGN.md §15).
//
// A VersionedShardStore turns the immutable GraphShard CSR into a
// log-structured store: one immutable *base* CSR plus an append-only list
// of DeltaSegments (edge insert/delete batches), each stamped with the
// monotonically increasing **graph version** that created it. Readers
// never see the log directly — they pin a ShardSnapshot at some version V
// and observe base ⊕ {segments ≤ V}, one coherent graph state, no matter
// how many mutations land or compactions run while the query is in
// flight.
//
// Each generation indexes its log by core row (DeltaLog): apply()
// publishes a copy extended by the new segment, so a snapshot finds a
// row's touching segments with one array lookup and a clean row of a
// mutated shard stays a zero-copy base read. A dirty row costs one merge
// over only the segments that touch it, never one probe per pending
// segment.
//
// The graph version is deliberately distinct from the ROUTING epoch
// (cluster/shard_map.hpp): the routing epoch versions *where shards live*,
// the graph version versions *what the edges are*. See the DESIGN.md §15
// glossary.
//
// Compaction mirrors the PR 7 migration state machine (Copy → Publish →
// Retire): a fresh base CSR is materialized OUTSIDE the store lock from a
// pinned snapshot, then published as a new generation whose floor is the
// snapshot version; the old generation is retired but kept on a bounded
// list so remote readers can still re-pin recent pre-compaction versions.
// Every generation shares the shard's one immutable halo; a retired
// generation holds only its own core CSR and log. In-process readers keep
// their snapshot's arrays alive through shared_ptrs regardless of
// retirement — compaction can never free memory a reader still walks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "storage/adjacency_cache.hpp"
#include "storage/shard.hpp"

namespace ppr {

/// One edge appended to a core row. The neighbor endpoint ships fully
/// resolved (<local, shard> + global id) plus the neighbor's weighted
/// degree *at the version preceding the batch* — the same "no remote
/// aggregate at push time" contract the base CSR edges carry (§3.2).
/// Hints on pre-existing edges are not retroactively updated when a
/// neighbor's degree changes; DESIGN.md §15 spells out the contract.
struct EdgeInsert {
  NodeId src_local = 0;
  NodeId nbr_local = 0;
  ShardId nbr_shard = 0;
  NodeId nbr_global = 0;
  float weight = 0;
  float nbr_weighted_deg = 0;
};

/// Remove the first *live* edge src_local → nbr_global (base order, then
/// insertion order). Parallel edges are deleted one at a time.
struct EdgeDelete {
  NodeId src_local = 0;
  NodeId nbr_global = 0;
};

/// One shard's slice of a mutation at one graph version. Within a batch,
/// deletes apply before inserts (so delete-then-reinsert in a single
/// version behaves as written).
struct MutationBatch {
  std::vector<EdgeInsert> inserts;
  std::vector<EdgeDelete> deletes;

  bool empty() const { return inserts.empty() && deletes.empty(); }
  std::size_t num_ops() const { return inserts.size() + deletes.size(); }
  /// Distinct source rows of the ops, ascending: the only rows the batch
  /// changes (see ShardRows).
  std::vector<NodeId> source_rows() const;

  void encode(ByteWriter& w) const;
  static MutationBatch decode(ByteReader& r);
};

/// Immutable batch + version, with its ops grouped by source row so a row
/// merge reads only the ops that touch that row.
class DeltaSegment {
 public:
  DeltaSegment(std::uint64_t version, MutationBatch batch);

  std::uint64_t version() const { return version_; }
  const MutationBatch& batch() const { return batch_; }
  std::size_t num_ops() const { return batch_.num_ops(); }

  /// Distinct source rows this segment touches, ascending.
  std::span<const NodeId> rows() const { return rows_; }
  /// Indices into batch().deletes / batch().inserts of the ops of the
  /// `slot`-th touched row (rows()[slot]), in batch order.
  std::span<const std::uint32_t> deletes_of(std::size_t slot) const;
  std::span<const std::uint32_t> inserts_of(std::size_t slot) const;

 private:
  std::uint64_t version_ = 0;
  MutationBatch batch_;
  std::vector<NodeId> rows_;
  std::vector<std::uint32_t> delete_ptr_, insert_ptr_;  // rows_.size() + 1
  std::vector<std::uint32_t> delete_ops_, insert_ops_;
};

/// One generation's delta log, indexed by core row: the segments in
/// ascending version order plus, for every core row, the ascending
/// positions of the segments that touch it. Immutable once built —
/// apply() publishes an extended copy and compaction a fresh one, so every
/// snapshot of a generation shares the log and reads at an older pin
/// filter it by segment count. Holds O(core rows + touched rows) beside
/// the segments themselves.
class DeltaLog {
 public:
  /// A row's touch of one segment: the segment's position in segments()
  /// and the row's slot in that segment (its index in rows()).
  struct Touch {
    std::uint32_t segment = 0;
    std::uint32_t slot = 0;
  };

  DeltaLog(NodeId num_rows,
           std::vector<std::shared_ptr<const DeltaSegment>> segments);

  const std::vector<std::shared_ptr<const DeltaSegment>>& segments() const {
    return segments_;
  }
  std::uint64_t num_ops() const { return num_ops_; }
  /// Segments at or below `version` (a prefix: versions ascend).
  std::size_t count_at(std::uint64_t version) const;
  /// Segments touching `row`, ascending; empty for a clean or
  /// out-of-range row.
  std::span<const Touch> touches(NodeId row) const {
    const auto r = static_cast<std::size_t>(row);  // negative → huge
    if (r >= offsets_.size() - 1) return {};
    return {touches_.data() + offsets_[r], touches_.data() + offsets_[r + 1]};
  }

 private:
  std::vector<std::shared_ptr<const DeltaSegment>> segments_;
  std::vector<std::uint32_t> offsets_;  // num_rows + 1
  std::vector<Touch> touches_;
  std::uint64_t num_ops_ = 0;
};

/// One coherent view of a shard at a pinned graph version: the base CSR
/// plus every delta segment ≤ the pin, merged lazily per row into a
/// scratch arena. Mirrors the GraphShard read API bit-for-bit — a clean
/// row (or a clean snapshot) delegates straight to the base, and merged
/// rows encode through the same shared row encoders, so a never-mutated
/// store is byte-identical to the raw shard on every path.
///
/// NOT thread-safe per instance (the scratch arena mutates): the storage
/// service builds one snapshot per request; the fetch pipeline owns one
/// per query. The snapshot holds shared_ptrs to the base + its
/// generation's DeltaLog and a refcounted pin (visible as the
/// `storage.snapshot_pins` gauge), so the data it reads outlives any
/// concurrent compaction.
class ShardSnapshot {
 public:
  std::uint64_t version() const { return version_; }
  ShardId shard_id() const { return base_->shard_id(); }
  /// True when no segment ≤ the pin exists: every read is pure base.
  bool clean() const { return num_segments_ == 0; }
  const GraphShard& base() const { return *base_; }
  std::shared_ptr<const GraphShard> base_ptr() const { return base_; }

  NodeId num_core_nodes() const { return base_->num_core_nodes(); }
  NodeId core_global_id(NodeId local) const {
    return base_->core_global_id(local);
  }
  /// d_w of `local` at this version (base value ± merged delta weights).
  float weighted_degree(NodeId local) const;

  /// Any segment ≤ the pin touches this row (one index lookup).
  bool dirty(NodeId local) const {
    const auto t = log_->touches(local);
    return !t.empty() && t.front().segment < num_segments_;
  }

  /// Neighborhood view at this version. Dirty rows merge into the
  /// snapshot's scratch arena — a merged view stays valid until the next
  /// read of a dirty row or reset_scratch(); clean rows are zero-copy base
  /// views.
  VertexProp vertex_prop(NodeId local) const;
  std::vector<VertexProp> get_neighbor_infos(
      std::span<const NodeId> locals) const;

  /// Wire encoders; byte-identical to GraphShard's for clean rows (same
  /// shared encoder underneath).
  void encode_neighbor_infos_csr(std::span<const NodeId> locals, ByteWriter& w,
                                 const FetchOptions& options = {}) const;
  void encode_neighbor_infos_tensor_list(std::span<const NodeId> locals,
                                         ByteWriter& w) const;

  /// Drop merged-row scratch (views from vertex_prop become invalid).
  /// Called per pipeline round so long queries don't grow the arena
  /// unboundedly.
  void reset_scratch() const;

 private:
  friend class VersionedShardStore;
  ShardSnapshot(std::shared_ptr<const GraphShard> base,
                std::shared_ptr<const DeltaLog> log, std::uint64_t version,
                std::shared_ptr<void> pin);

  /// Merge base row ⊕ the ops of every segment ≤ the pin that touches it
  /// into the scratch arena; returns the arena row index.
  std::size_t merge_row(NodeId local) const;

  /// Merge every dirty row of `locals` first (arena appends invalidate
  /// earlier views), then call fn(i, row) for each row in order.
  template <typename Fn>
  void for_each_row(std::span<const NodeId> locals, Fn&& fn) const;

  std::shared_ptr<const GraphShard> base_;
  std::shared_ptr<const DeltaLog> log_;
  std::uint32_t num_segments_ = 0;  // prefix of log_ at or below the pin
  std::uint64_t version_ = 0;
  std::shared_ptr<void> pin_;  // decrements storage.snapshot_pins on drop

  mutable CachedRowArena scratch_;
  mutable std::vector<std::size_t> row_slots_;  // for_each_row's pass 1
};

/// The versioned store for one shard: current generation (base + pending
/// segments) plus a bounded list of retired pre-compaction generations so
/// recent old versions stay re-pinnable for remote readers.
class VersionedShardStore {
 public:
  /// Wrap an immutable shard as version-`base_version` (0 = pristine).
  explicit VersionedShardStore(std::shared_ptr<const GraphShard> base,
                               std::uint64_t base_version = 0);

  ShardId shard_id() const;
  /// Base CSR of the newest generation (what a clean latest read serves).
  std::shared_ptr<const GraphShard> base() const;
  /// Newest applied graph version (base_version when never mutated).
  std::uint64_t latest_version() const;
  /// Oldest version still snapshottable (floor of the oldest retained
  /// generation).
  std::uint64_t oldest_pinnable_version() const;
  /// Edges currently living in delta segments of the newest generation.
  std::uint64_t delta_edges() const;
  std::int64_t snapshot_pins() const;

  /// Append one mutation batch at `version` (strictly greater than
  /// latest_version()). Ops are validated against the base row count.
  void apply(std::uint64_t version, MutationBatch batch);

  /// Pin a coherent snapshot at `version` (kVersionLatest = newest).
  /// Fails (GE_REQUIRE) when the version predates the oldest retained
  /// generation — "snapshot version compacted away".
  std::shared_ptr<const ShardSnapshot> snapshot(
      std::uint64_t version = kVersionLatest) const;

  /// Fold pending segments into a fresh base CSR (Copy → Publish →
  /// Retire). Concurrent reads and applies stay safe: materialization
  /// runs outside the lock on a pinned snapshot; segments applied during
  /// the copy carry into the new generation. No-op on a clean store.
  void compact();
  std::uint64_t compactions() const;

  /// Full-store serialization (migration / replica bootstrap): base CSR +
  /// floor/latest versions + pending segments of the current generation.
  /// Retired generations do not ship — a freshly adopted replica serves
  /// versions ≥ its floor.
  void serialize(ByteWriter& w) const;
  static std::shared_ptr<VersionedShardStore> deserialize(ByteReader& r);

  /// Retired generations kept re-pinnable after compaction.
  static constexpr std::size_t kMaxRetiredGenerations = 4;

 private:
  struct Generation {
    std::shared_ptr<const GraphShard> base;
    std::uint64_t floor = 0;  // base materialized at this version
    std::shared_ptr<const DeltaLog> log;  // segments above the floor
  };

  struct PinState;

  /// Build a fresh GraphShard equal to `snap` (merged rows + updated
  /// weighted degrees; the halo shared with the old base).
  static std::shared_ptr<const GraphShard> materialize(
      const ShardSnapshot& snap);

  std::shared_ptr<const ShardSnapshot> snapshot_locked(
      std::uint64_t version) const;

  mutable std::mutex mu_;
  std::mutex compact_mu_;  // serializes concurrent compact() calls
  Generation current_;
  std::vector<Generation> retired_;  // oldest first, bounded
  std::uint64_t latest_ = 0;

  std::shared_ptr<PinState> pins_;
  obs::Gauge delta_edges_;
  obs::Counter compactions_;
  std::vector<obs::Registration> regs_;
};

/// The rows one mutation batch changed on one shard: the distinct source
/// rows of its ops, ascending. Only a source row's bytes change — an
/// insert or delete edits its source row, and the weighted-degree hints
/// already on other rows' edges are never updated after the fact
/// (DESIGN.md §15).
struct ShardRows {
  ShardId shard = 0;
  std::vector<NodeId> rows;
};

/// Per-process registry of what versions exist: the newest *published*
/// version (safe for new queries to pin — every shard has applied all
/// mutations ≤ it) and, per row, the first and last version that changed
/// it, feeding the halo gate and the adjacency cache's tags.
///
/// Readers take no lock. A shard's row arrays are allocated at its first
/// note, sized by its core-row count, and never reallocated; a graph that
/// never mutates allocates none.
class VersionTracker {
 public:
  /// Row arrays are sized by `mapping`'s per-shard core-row counts.
  explicit VersionTracker(const GlobalMapping& mapping);
  ~VersionTracker();

  VersionTracker(const VersionTracker&) = delete;
  VersionTracker& operator=(const VersionTracker&) = delete;

  int num_shards() const { return static_cast<int>(num_rows_.size()); }

  std::uint64_t published() const {
    return published_.load(std::memory_order_acquire);
  }
  /// Publish `version` after noting the rows it changed — notes first, so
  /// a reader that sees published() ≥ V also sees every note ≤ V. Every
  /// shard id and row is range-checked before anything is noted.
  ///   * A version at or below published() is dropped: a late or
  ///     repeated announce, already covered.
  ///   * A version above published() + 1 means the versions between
  ///     were missed, and with them which rows changed (DESIGN.md §15).
  ///     Every row of every shard then counts as first mutated no later
  ///     than published() + 1 and last mutated at `version`: the gates
  ///     serve fewer copies, never a stale one.
  void publish(std::uint64_t version, std::span<const ShardRows> changed);

  /// First / last version that changed row `row` of `shard`; 0 = never.
  std::uint64_t first_mutation(ShardId shard, NodeId row) const {
    const Cell* c = cell(shard, row);
    return c != nullptr ? c->first.load(std::memory_order_acquire) : 0;
  }
  std::uint64_t last_mutation(ShardId shard, NodeId row) const {
    const Cell* c = cell(shard, row);
    return c != nullptr ? c->last.load(std::memory_order_acquire) : 0;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> first{0};
    std::atomic<std::uint64_t> last{0};
  };

  std::size_t checked_shard(ShardId shard) const {
    GE_REQUIRE(shard >= 0 && static_cast<std::size_t>(shard) <
                                 num_rows_.size(),
               "shard id out of range");
    return static_cast<std::size_t>(shard);
  }
  const Cell* cell(ShardId shard, NodeId row) const {
    const std::size_t s = checked_shard(shard);
    GE_REQUIRE(row >= 0 && row < num_rows_[s], "row id out of range");
    const Cell* cells = cells_[s].load(std::memory_order_acquire);
    return cells != nullptr ? cells + row : nullptr;
  }
  /// Shard `s`'s cells, allocated on first use. Caller holds write_mu_.
  Cell* cells_for_write(std::size_t s);

  std::vector<NodeId> num_rows_;  // core rows per shard
  std::unique_ptr<std::atomic<Cell*>[]> cells_;
  std::mutex write_mu_;  // serializes publish()
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace ppr
