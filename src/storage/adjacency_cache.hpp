// Shard-local adjacency cache: a bounded CLOCK-evicted store of neighbor
// rows fetched from *remote* shards, shared by every query running on the
// machine. Where the halo-adjacency cache (GraphShard) statically holds the
// 1-hop halo set, this cache fills dynamically with whatever rows the
// workload actually pulls over RPC — so rows fetched for one SSPPR query
// serve later iterations and later queries of the batch without another
// remote round-trip (the SALIENT++-style frequency caching direction).
//
// Entries are tagged per row with the row's last-mutation version
// (DESIGN.md §15), so a write invalidates only the rows it changed. A row
// re-fetched because its halo copy went stale is inserted non-evictable:
// it sits beside the CLOCK slots, outside the capacity, until a version
// bump erases it — the halo's key set bounds those entries.
//
// Thread safety: one spinlock guards the index and the slot arrays; hits
// are *copied out* into a caller-owned CachedRowArena under the lock, so a
// concurrent eviction can never invalidate a row another computing process
// is still pushing from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "concurrent/spinlock.hpp"
#include "obs/metrics.hpp"
#include "storage/shard.hpp"

namespace ppr {

/// Hit/miss/eviction counters, exposed like the halo-cache stats. Backed
/// by registry instruments: constructed with a shard id they attach as
/// `storage.adjacency_cache.*{shard=N}` (shard < 0 = unregistered, for
/// standalone caches in unit tests).
struct AdjacencyCacheStats {
  explicit AdjacencyCacheStats(ShardId shard = -1) {
    if (shard < 0) return;
    const obs::Labels labels{{"shard", std::to_string(shard)}};
    auto& reg = obs::MetricRegistry::global();
    regs_.push_back(reg.attach("storage.adjacency_cache.hits", labels,
                               hits));
    regs_.push_back(reg.attach("storage.adjacency_cache.misses", labels,
                               misses));
    regs_.push_back(reg.attach("storage.adjacency_cache.insertions", labels,
                               insertions));
    regs_.push_back(reg.attach("storage.adjacency_cache.evictions", labels,
                               evictions));
    regs_.push_back(reg.attach("cache.version_invalidations", labels,
                               version_invalidations));
  }

  obs::Counter hits;
  obs::Counter misses;
  obs::Counter insertions;
  obs::Counter evictions;
  /// Entries dropped because their row was mutated after the version they
  /// were filled at (DESIGN.md §15 invalidation contract).
  obs::Counter version_invalidations;

  void reset() {
    hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    version_invalidations = 0;
  }

 private:
  std::vector<obs::Registration> regs_;
};

/// Owned CSR arena the cache copies hit rows into. Rows are appended by
/// AdjacencyCache::lookup; views from row(i) stay valid until the next
/// append or clear (materialize them only after all lookups of the
/// iteration are done).
class CachedRowArena {
 public:
  void clear() {
    indptr_.clear();
    nbr_local_ids_.clear();
    nbr_shard_ids_.clear();
    edge_weights_.clear();
    nbr_weighted_deg_.clear();
    nbr_global_ids_.clear();
    src_weighted_deg_.clear();
  }

  std::size_t num_rows() const { return src_weighted_deg_.size(); }

  std::size_t append_row(const VertexProp& row) {
    open_row(row);
    return close_row(row.weighted_degree);
  }

  /// In-place row building (the versioned store's merged rows): open a
  /// row holding `base`, edit it with erase_edge()/push_edge(), then
  /// close_row() — or discard_open_row() to drop it. row() views are not
  /// taken while a row is open.
  void open_row(const VertexProp& base) {
    if (indptr_.empty()) indptr_.push_back(0);
    nbr_local_ids_.insert(nbr_local_ids_.end(), base.nbr_local_ids.begin(),
                          base.nbr_local_ids.end());
    nbr_shard_ids_.insert(nbr_shard_ids_.end(), base.nbr_shard_ids.begin(),
                          base.nbr_shard_ids.end());
    edge_weights_.insert(edge_weights_.end(), base.edge_weights.begin(),
                         base.edge_weights.end());
    nbr_weighted_deg_.insert(nbr_weighted_deg_.end(),
                             base.nbr_weighted_degrees.begin(),
                             base.nbr_weighted_degrees.end());
    nbr_global_ids_.insert(nbr_global_ids_.end(), base.nbr_global_ids.begin(),
                           base.nbr_global_ids.end());
  }
  /// Erase the open row's first edge to `nbr_global`; its weight lands in
  /// `weight`. False when the open row has no such edge.
  bool erase_edge(NodeId nbr_global, float& weight) {
    const auto lo = nbr_global_ids_.begin() + indptr_.back();
    const auto it = std::find(lo, nbr_global_ids_.end(), nbr_global);
    if (it == nbr_global_ids_.end()) return false;
    const auto k = it - nbr_global_ids_.begin();
    weight = edge_weights_[static_cast<std::size_t>(k)];
    nbr_local_ids_.erase(nbr_local_ids_.begin() + k);
    nbr_shard_ids_.erase(nbr_shard_ids_.begin() + k);
    edge_weights_.erase(edge_weights_.begin() + k);
    nbr_weighted_deg_.erase(nbr_weighted_deg_.begin() + k);
    nbr_global_ids_.erase(it);
    return true;
  }
  void push_edge(NodeId local, ShardId shard, float weight, float nbr_wdeg,
                 NodeId global) {
    nbr_local_ids_.push_back(local);
    nbr_shard_ids_.push_back(shard);
    edge_weights_.push_back(weight);
    nbr_weighted_deg_.push_back(nbr_wdeg);
    nbr_global_ids_.push_back(global);
  }
  std::size_t close_row(float src_wdeg) {
    indptr_.push_back(static_cast<EdgeIndex>(nbr_local_ids_.size()));
    src_weighted_deg_.push_back(src_wdeg);
    return src_weighted_deg_.size() - 1;
  }
  void discard_open_row() {
    const auto lo = static_cast<std::size_t>(indptr_.back());
    nbr_local_ids_.resize(lo);
    nbr_shard_ids_.resize(lo);
    edge_weights_.resize(lo);
    nbr_weighted_deg_.resize(lo);
    nbr_global_ids_.resize(lo);
  }

  VertexProp row(std::size_t i) const {
    const auto lo = static_cast<std::size_t>(indptr_[i]);
    const auto hi = static_cast<std::size_t>(indptr_[i + 1]);
    return VertexProp{
        {nbr_local_ids_.data() + lo, nbr_local_ids_.data() + hi},
        {nbr_shard_ids_.data() + lo, nbr_shard_ids_.data() + hi},
        {edge_weights_.data() + lo, edge_weights_.data() + hi},
        {nbr_weighted_deg_.data() + lo, nbr_weighted_deg_.data() + hi},
        {nbr_global_ids_.data() + lo, nbr_global_ids_.data() + hi},
        src_weighted_deg_[i]};
  }

 private:
  std::vector<EdgeIndex> indptr_;
  std::vector<NodeId> nbr_local_ids_;
  std::vector<ShardId> nbr_shard_ids_;
  std::vector<float> edge_weights_;
  std::vector<float> nbr_weighted_deg_;
  std::vector<NodeId> nbr_global_ids_;
  std::vector<float> src_weighted_deg_;
};

class AdjacencyCache {
 public:
  /// `capacity_rows`: maximum number of evictable rows; above it the
  /// CLOCK hand evicts the first row whose reference bit is clear.
  /// `shard` labels the registry-attached counters (< 0 = unregistered).
  explicit AdjacencyCache(std::size_t capacity_rows, ShardId shard = -1);

  std::size_t capacity() const { return slots_.size(); }
  /// Resident rows, non-evictable ones included.
  std::size_t size() const;

  /// Probe `<locals[i], dst>` for every i. Hits are copied into `arena`
  /// (hit_rows[t] = arena row of hit t, hit_indices[t] = its position in
  /// `locals`); misses land in miss_locals/miss_indices. Output vectors
  /// are cleared first.
  ///
  /// Version contract (DESIGN.md §15): `row_last_mut[i]` is the
  /// last-mutation version L of row `<locals[i], dst>` (0 = never
  /// mutated; an empty span means no row ever mutated) and
  /// `graph_version` the reader's pin. An entry tagged with a version
  /// other than L was filled before the row last changed — it is ERASED
  /// (counted as a version_invalidation) so the refill re-caches current
  /// data. An entry tagged L serves a reader pinned at V ≥ L (the row
  /// cannot have changed in (L, V]); a reader pinned BEFORE L misses
  /// without erasing, since the entry is still right for newer readers.
  void lookup(ShardId dst, std::span<const NodeId> locals,
              CachedRowArena& arena, std::vector<std::size_t>& hit_indices,
              std::vector<std::size_t>& hit_rows,
              std::vector<NodeId>& miss_locals,
              std::vector<std::size_t>& miss_indices,
              std::span<const std::uint64_t> row_last_mut = {},
              std::uint64_t graph_version = 0);

  /// Insert one row for `<local, dst>` (no-op if already resident with
  /// the same tag, beyond refreshing its reference bit; a resident entry
  /// with another tag is refilled in place). The row was fetched pinned
  /// at `graph_version`; it is cached (tagged with its last-mutation
  /// version `row_last_mut`) only when that pin proves it current — pin
  /// ≥ L. Rows fetched through an old pin are simply not cached. A row
  /// first inserted with `evictable` false never leaves through CLOCK,
  /// only through a version bump.
  void insert(ShardId dst, NodeId local, const VertexProp& row,
              std::uint64_t row_last_mut = 0,
              std::uint64_t graph_version = 0, bool evictable = true);

  const AdjacencyCacheStats& stats() const { return stats_; }
  AdjacencyCacheStats& stats() { return stats_; }

 private:
  static_assert(std::is_same_v<NodeId, ShardId>,
                "a slot packs local, shard and global ids in one array");

  /// One cached row in two allocations: `ids` holds the neighbors' local
  /// ids, shard ids and global ids back to back; `floats` the edge
  /// weights, then the neighbors' weighted degrees. A machine can hold
  /// tens of thousands of rows (a refreshed halo stays resident), so the
  /// per-row overhead is kept to two blocks.
  struct Slot {
    std::uint64_t key = 0;
    std::uint8_t referenced = 0;  // CLOCK second-chance bit
    // Row's last-mutation version when it was filled; a later mutation
    // of the row moves it past this tag and the entry self-erases on its
    // next probe.
    std::uint64_t version_tag = 0;
    float weighted_degree = 0;
    std::vector<NodeId> ids;
    std::vector<float> floats;

    void fill(const VertexProp& row);
    VertexProp row() const;
  };

  using Index = std::unordered_map<std::uint64_t, std::uint32_t>;
  /// Index values with this bit set name fixed_ slots (non-evictable).
  static constexpr std::uint32_t kFixedBit = 0x80000000u;

  Slot& slot_at(std::uint32_t idx) {
    return (idx & kFixedBit) != 0 ? fixed_[idx & ~kFixedBit] : slots_[idx];
  }
  /// Pick the slot for a new evictable row: a freed slot, else a never
  /// used one, else advance the CLOCK hand until a slot with a clear
  /// reference bit comes up. Caller holds lock_.
  std::uint32_t victim_slot();
  /// A fixed_ slot for a new non-evictable row. Caller holds lock_.
  std::uint32_t fixed_slot();
  /// Drop an entry and free its slot. Caller holds lock_.
  void erase(Index::iterator it);

  mutable Spinlock lock_;
  // The index needs per-key erase on eviction, which the repo's FlatMap
  // deliberately omits (the PPR maps never erase), so the cache keeps a
  // plain unordered_map — this is not the operator hot path.
  Index index_;
  std::vector<Slot> slots_;  // the CLOCK ring, `capacity` slots
  std::size_t used_slots_ = 0;  // slots_ ever handed out
  std::vector<std::uint32_t> free_slots_;  // erased CLOCK slots
  std::vector<Slot> fixed_;  // non-evictable rows
  std::vector<std::uint32_t> free_fixed_;  // erased fixed_ slots
  std::size_t hand_ = 0;
  AdjacencyCacheStats stats_;
  obs::Gauge resident_rows_;  // registry view of size()
  obs::Registration resident_reg_;
};

}  // namespace ppr
