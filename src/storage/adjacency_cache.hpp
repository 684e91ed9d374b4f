// Shard-local adjacency cache: a bounded CLOCK-evicted store of neighbor
// rows fetched from *remote* shards, shared by every query running on the
// machine. Where the halo-adjacency cache (GraphShard) statically holds the
// 1-hop halo set, this cache fills dynamically with whatever rows the
// workload actually pulls over RPC — so rows fetched for one SSPPR query
// serve later iterations and later queries of the batch without another
// remote round-trip (the SALIENT++-style frequency caching direction).
//
// Thread safety: one spinlock guards the index and the slot arrays; hits
// are *copied out* into a caller-owned CachedRowArena under the lock, so a
// concurrent eviction can never invalidate a row another computing process
// is still pushing from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
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
  /// Entries dropped because the shard's graph version moved past the
  /// version they were filled at (DESIGN.md §15 invalidation contract).
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

  std::size_t append_row(std::span<const NodeId> locals,
                         std::span<const ShardId> shards,
                         std::span<const float> weights,
                         std::span<const float> nbr_wdeg,
                         std::span<const NodeId> globals, float src_wdeg) {
    open_row(VertexProp{locals, shards, weights, nbr_wdeg, globals, src_wdeg});
    return close_row(src_wdeg);
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
  /// `capacity_rows`: maximum number of cached neighbor rows; above it the
  /// CLOCK hand evicts the first row whose reference bit is clear.
  /// `shard` labels the registry-attached counters (< 0 = unregistered).
  explicit AdjacencyCache(std::size_t capacity_rows, ShardId shard = -1);

  std::size_t capacity() const { return slots_.size(); }
  std::size_t size() const;

  /// Probe `<locals[i], dst>` for every i. Hits are copied into `arena`
  /// (hit_rows[t] = arena row of hit t, hit_indices[t] = its position in
  /// `locals`); misses land in miss_locals/miss_indices. Output vectors
  /// are cleared first.
  ///
  /// Version contract (DESIGN.md §15): `shard_last_mut` is shard `dst`'s
  /// last-mutation version L (0 = never mutated) and `graph_version` the
  /// reader's pin. An entry tagged with a version other than L was filled
  /// before the shard last changed — it is ERASED (counted as a
  /// version_invalidation) so the refill re-caches current data. An
  /// entry tagged L serves a reader pinned at V ≥ L (the row cannot have
  /// changed in (L, V]); a reader pinned BEFORE L misses without erasing,
  /// since the entry is still right for newer readers. The defaults
  /// (L = 0, pin = 0) describe a never-mutated graph.
  void lookup(ShardId dst, std::span<const NodeId> locals,
              CachedRowArena& arena, std::vector<std::size_t>& hit_indices,
              std::vector<std::size_t>& hit_rows,
              std::vector<NodeId>& miss_locals,
              std::vector<std::size_t>& miss_indices,
              std::uint64_t shard_last_mut = 0,
              std::uint64_t graph_version = 0);

  /// Insert one row for `<local, dst>` (no-op if already resident, beyond
  /// refreshing its reference bit). The row was fetched pinned at
  /// `graph_version`; it is cached (tagged with `shard_last_mut`) only
  /// when that pin proves it current — i.e. pin ≥ last mutation. Rows
  /// fetched through an old pin are simply not cached.
  void insert(ShardId dst, NodeId local, const VertexProp& row,
              std::uint64_t shard_last_mut = 0,
              std::uint64_t graph_version = 0);

  const AdjacencyCacheStats& stats() const { return stats_; }
  AdjacencyCacheStats& stats() { return stats_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    bool used = false;
    std::uint8_t referenced = 0;  // CLOCK second-chance bit
    // Shard's last-mutation version when the row was filled; a later
    // mutation bumps the shard past this tag and the entry self-erases
    // on its next probe.
    std::uint64_t version_tag = 0;
    float weighted_degree = 0;
    std::vector<NodeId> nbr_local_ids;
    std::vector<ShardId> nbr_shard_ids;
    std::vector<float> edge_weights;
    std::vector<float> nbr_weighted_deg;
    std::vector<NodeId> nbr_global_ids;
  };

  /// Pick the victim slot: first unused slot, else advance the CLOCK hand
  /// until a slot with a clear reference bit comes up. Caller holds lock_.
  std::size_t victim_slot();

  mutable Spinlock lock_;
  // The index needs per-key erase on eviction, which the repo's FlatMap
  // deliberately omits (the PPR maps never erase), so the cache keeps a
  // plain unordered_map — this is not the operator hot path.
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::vector<Slot> slots_;
  std::size_t used_slots_ = 0;
  std::size_t hand_ = 0;
  AdjacencyCacheStats stats_;
  obs::Gauge resident_rows_;  // registry view of size()
  obs::Registration resident_reg_;
};

}  // namespace ppr
