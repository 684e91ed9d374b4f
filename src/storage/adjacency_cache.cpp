#include "storage/adjacency_cache.hpp"

namespace ppr {

AdjacencyCache::AdjacencyCache(std::size_t capacity_rows, ShardId shard)
    : stats_(shard) {
  GE_REQUIRE(capacity_rows > 0, "adjacency cache needs capacity > 0");
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
  return used_slots_;
}

void AdjacencyCache::lookup(ShardId dst, std::span<const NodeId> locals,
                            CachedRowArena& arena,
                            std::vector<std::size_t>& hit_indices,
                            std::vector<std::size_t>& hit_rows,
                            std::vector<NodeId>& miss_locals,
                            std::vector<std::size_t>& miss_indices,
                            std::uint64_t shard_last_mut,
                            std::uint64_t graph_version) {
  hit_indices.clear();
  hit_rows.clear();
  miss_locals.clear();
  miss_indices.clear();
  if (locals.empty()) return;

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
      Slot& slot = slots_[it->second];
      if (slot.version_tag != shard_last_mut) {
        // Filled before the shard's latest mutation: drop the entry so
        // the refill caches current data. The slot itself waits for the
        // CLOCK hand (referenced stays clear so it goes first).
        slot.used = false;
        slot.referenced = 0;
        index_.erase(it);
        ++invalidated;
        miss_locals.push_back(locals[i]);
        miss_indices.push_back(i);
        continue;
      }
      if (graph_version < shard_last_mut) {
        // The entry is current but this reader is pinned before the
        // shard's last mutation — it must read through a snapshot. Keep
        // the entry: it is still right for readers at ≥ shard_last_mut.
        miss_locals.push_back(locals[i]);
        miss_indices.push_back(i);
        continue;
      }
      slot.referenced = 1;
      hit_indices.push_back(i);
      hit_rows.push_back(arena.append_row(
          slot.nbr_local_ids, slot.nbr_shard_ids, slot.edge_weights,
          slot.nbr_weighted_deg, slot.nbr_global_ids,
          slot.weighted_degree));
      ++hits;
    }
  }
  stats_.hits.fetch_add(hits, std::memory_order_relaxed);
  stats_.misses.fetch_add(locals.size() - hits, std::memory_order_relaxed);
  if (invalidated != 0) {
    stats_.version_invalidations.fetch_add(invalidated,
                                           std::memory_order_relaxed);
  }
}

std::size_t AdjacencyCache::victim_slot() {
  if (used_slots_ < slots_.size()) return used_slots_++;
  for (;;) {
    Slot& slot = slots_[hand_];
    const std::size_t idx = hand_;
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

void AdjacencyCache::insert(ShardId dst, NodeId local,
                            const VertexProp& row,
                            std::uint64_t shard_last_mut,
                            std::uint64_t graph_version) {
  // A row fetched through a pin OLDER than the shard's last mutation may
  // already be stale at the newest version — don't cache it.
  if (graph_version < shard_last_mut) return;
  const std::uint64_t key = NodeRef{local, dst}.key();
  LockGuard<Spinlock> guard(lock_);
  const auto it = index_.find(key);
  if (it != index_.end() &&
      slots_[it->second].version_tag == shard_last_mut) {
    slots_[it->second].referenced = 1;
    return;
  }
  // Resident but version-stale: refill the same slot with current data.
  const std::size_t idx = it != index_.end() ? it->second : victim_slot();
  Slot& slot = slots_[idx];
  slot.key = key;
  slot.used = true;
  slot.referenced = 1;
  slot.version_tag = shard_last_mut;
  slot.weighted_degree = row.weighted_degree;
  slot.nbr_local_ids.assign(row.nbr_local_ids.begin(),
                            row.nbr_local_ids.end());
  slot.nbr_shard_ids.assign(row.nbr_shard_ids.begin(),
                            row.nbr_shard_ids.end());
  slot.edge_weights.assign(row.edge_weights.begin(), row.edge_weights.end());
  slot.nbr_weighted_deg.assign(row.nbr_weighted_degrees.begin(),
                               row.nbr_weighted_degrees.end());
  slot.nbr_global_ids.assign(row.nbr_global_ids.begin(),
                             row.nbr_global_ids.end());
  index_[key] = static_cast<std::uint32_t>(idx);
  stats_.insertions.fetch_add(1, std::memory_order_relaxed);
  resident_rows_.set(static_cast<std::int64_t>(used_slots_));
}

}  // namespace ppr
