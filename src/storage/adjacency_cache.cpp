#include "storage/adjacency_cache.hpp"

namespace ppr {

void AdjacencyCache::Slot::fill(const VertexProp& row) {
  weighted_degree = row.weighted_degree;
  ids.clear();
  ids.reserve(3 * row.degree());  // exact: no growth slack per row
  ids.insert(ids.end(), row.nbr_local_ids.begin(), row.nbr_local_ids.end());
  ids.insert(ids.end(), row.nbr_shard_ids.begin(), row.nbr_shard_ids.end());
  ids.insert(ids.end(), row.nbr_global_ids.begin(), row.nbr_global_ids.end());
  floats.clear();
  floats.reserve(2 * row.degree());
  floats.insert(floats.end(), row.edge_weights.begin(),
                row.edge_weights.end());
  floats.insert(floats.end(), row.nbr_weighted_degrees.begin(),
                row.nbr_weighted_degrees.end());
}

VertexProp AdjacencyCache::Slot::row() const {
  const std::size_t d = floats.size() / 2;
  const std::span<const NodeId> id_span(ids);
  const std::span<const float> float_span(floats);
  return VertexProp{id_span.first(d),          id_span.subspan(d, d),
                    float_span.first(d),       float_span.subspan(d, d),
                    id_span.subspan(2 * d, d), weighted_degree};
}

AdjacencyCache::AdjacencyCache(std::size_t capacity_rows, ShardId shard)
    : stats_(shard) {
  GE_REQUIRE(capacity_rows > 0, "adjacency cache needs capacity > 0");
  GE_REQUIRE(capacity_rows < kFixedBit, "adjacency cache capacity too large");
  slots_.resize(capacity_rows);
  index_.reserve(capacity_rows * 2);
  if (shard >= 0) {
    resident_reg_ = obs::MetricRegistry::global().attach(
        "storage.adjacency_cache.resident_rows",
        {{"shard", std::to_string(shard)}}, resident_rows_);
  }
}

std::size_t AdjacencyCache::size() const {
  LockGuard<Spinlock> guard(lock_);
  return index_.size();
}

void AdjacencyCache::erase(Index::iterator it) {
  const std::uint32_t idx = it->second;
  Slot& slot = slot_at(idx);
  slot.referenced = 0;
  if ((idx & kFixedBit) != 0) {
    free_fixed_.push_back(idx & ~kFixedBit);
  } else {
    free_slots_.push_back(idx);
  }
  index_.erase(it);
}

void AdjacencyCache::lookup(ShardId dst, std::span<const NodeId> locals,
                            CachedRowArena& arena,
                            std::vector<std::size_t>& hit_indices,
                            std::vector<std::size_t>& hit_rows,
                            std::vector<NodeId>& miss_locals,
                            std::vector<std::size_t>& miss_indices,
                            std::span<const std::uint64_t> row_last_mut,
                            std::uint64_t graph_version) {
  hit_indices.clear();
  hit_rows.clear();
  miss_locals.clear();
  miss_indices.clear();
  if (locals.empty()) return;
  GE_REQUIRE(row_last_mut.empty() || row_last_mut.size() == locals.size(),
             "one last-mutation version per probed row");

  std::size_t hits = 0;
  std::size_t invalidated = 0;
  {
    LockGuard<Spinlock> guard(lock_);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const std::uint64_t key = NodeRef{locals[i], dst}.key();
      const auto it = index_.find(key);
      if (it == index_.end()) {
        miss_locals.push_back(locals[i]);
        miss_indices.push_back(i);
        continue;
      }
      const std::uint64_t last_mut =
          row_last_mut.empty() ? 0 : row_last_mut[i];
      Slot& slot = slot_at(it->second);
      if (slot.version_tag != last_mut) {
        // Filled before the row's latest mutation: drop the entry so the
        // refill caches current data.
        erase(it);
        ++invalidated;
        miss_locals.push_back(locals[i]);
        miss_indices.push_back(i);
        continue;
      }
      if (graph_version < last_mut) {
        // The entry is current but this reader is pinned before the row's
        // last mutation — it must read through a snapshot. Keep the
        // entry: it is still right for readers at ≥ last_mut.
        miss_locals.push_back(locals[i]);
        miss_indices.push_back(i);
        continue;
      }
      slot.referenced = 1;
      hit_indices.push_back(i);
      hit_rows.push_back(arena.append_row(slot.row()));
      ++hits;
    }
    if (invalidated != 0) {
      resident_rows_.set(static_cast<std::int64_t>(index_.size()));
    }
  }
  stats_.hits.fetch_add(hits, std::memory_order_relaxed);
  stats_.misses.fetch_add(locals.size() - hits, std::memory_order_relaxed);
  if (invalidated != 0) {
    stats_.version_invalidations.fetch_add(invalidated,
                                           std::memory_order_relaxed);
  }
}

std::uint32_t AdjacencyCache::victim_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  if (used_slots_ < slots_.size()) {
    return static_cast<std::uint32_t>(used_slots_++);
  }
  // Every slot is in use: second-chance sweep.
  for (;;) {
    Slot& slot = slots_[hand_];
    const auto idx = static_cast<std::uint32_t>(hand_);
    hand_ = (hand_ + 1) % slots_.size();
    if (slot.referenced) {
      slot.referenced = 0;
      continue;
    }
    index_.erase(slot.key);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }
}

std::uint32_t AdjacencyCache::fixed_slot() {
  if (!free_fixed_.empty()) {
    const std::uint32_t idx = free_fixed_.back();
    free_fixed_.pop_back();
    return idx | kFixedBit;
  }
  GE_CHECK(fixed_.size() < kFixedBit, "too many non-evictable rows");
  fixed_.emplace_back();
  return static_cast<std::uint32_t>(fixed_.size() - 1) | kFixedBit;
}

void AdjacencyCache::insert(ShardId dst, NodeId local,
                            const VertexProp& row,
                            std::uint64_t row_last_mut,
                            std::uint64_t graph_version, bool evictable) {
  // A row fetched through a pin OLDER than its last mutation may already
  // be stale at the newest version — don't cache it.
  if (graph_version < row_last_mut) return;
  const std::uint64_t key = NodeRef{local, dst}.key();
  LockGuard<Spinlock> guard(lock_);
  const auto it = index_.find(key);
  if (it != index_.end() &&
      slot_at(it->second).version_tag == row_last_mut) {
    slot_at(it->second).referenced = 1;
    return;
  }
  // Resident but version-stale: refill the same slot with current data.
  const std::uint32_t idx = it != index_.end()
                                ? it->second
                                : (evictable ? victim_slot() : fixed_slot());
  Slot& slot = slot_at(idx);
  slot.key = key;
  slot.referenced = 1;
  slot.version_tag = row_last_mut;
  slot.fill(row);
  index_[key] = idx;
  stats_.insertions.fetch_add(1, std::memory_order_relaxed);
  resident_rows_.set(static_cast<std::int64_t>(index_.size()));
}

}  // namespace ppr
