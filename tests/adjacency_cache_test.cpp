#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "storage/adjacency_cache.hpp"

namespace ppr {
namespace {

/// Owned backing arrays for a synthetic neighbor row whose content is a
/// deterministic function of (local, dst), so hits can be verified.
struct RowData {
  std::vector<NodeId> locals;
  std::vector<ShardId> shards;
  std::vector<float> weights;
  std::vector<float> nbr_wdeg;
  std::vector<NodeId> globals;
  float wdeg = 0;

  VertexProp prop() const {
    return VertexProp{locals, shards, weights, nbr_wdeg, globals, wdeg};
  }
};

RowData make_row(NodeId local, ShardId dst, int degree) {
  RowData r;
  for (int k = 0; k < degree; ++k) {
    r.locals.push_back(local * 100 + k);
    r.shards.push_back(static_cast<ShardId>((dst + k) % 4));
    r.weights.push_back(static_cast<float>(k + 1));
    r.nbr_wdeg.push_back(static_cast<float>(local + k));
    r.globals.push_back(local * 1000 + k);
  }
  r.wdeg = static_cast<float>(local) + 0.5f;
  return r;
}

/// Convenience wrapper: probe `locals` and return per-position hit flags.
std::vector<bool> probe(AdjacencyCache& cache, ShardId dst,
                        const std::vector<NodeId>& locals,
                        CachedRowArena& arena,
                        std::vector<std::size_t>* hit_rows_out = nullptr,
                        std::vector<std::size_t>* hit_idx_out = nullptr) {
  std::vector<std::size_t> hit_indices, hit_rows, miss_indices;
  std::vector<NodeId> miss_locals;
  cache.lookup(dst, locals, arena, hit_indices, hit_rows, miss_locals,
               miss_indices);
  std::vector<bool> hit(locals.size(), false);
  for (const std::size_t i : hit_indices) hit[i] = true;
  if (hit_rows_out != nullptr) *hit_rows_out = hit_rows;
  if (hit_idx_out != nullptr) *hit_idx_out = hit_indices;
  return hit;
}

TEST(AdjacencyCache, RoundTripPreservesRowContent) {
  AdjacencyCache cache(8);
  const ShardId dst = 2;
  const RowData a = make_row(5, dst, 3);
  const RowData b = make_row(9, dst, 1);
  cache.insert(dst, 5, a.prop());
  cache.insert(dst, 9, b.prop());
  EXPECT_EQ(cache.size(), 2u);

  CachedRowArena arena;
  std::vector<std::size_t> hit_rows, hit_idx;
  const auto hit =
      probe(cache, dst, {5, 7, 9}, arena, &hit_rows, &hit_idx);
  EXPECT_TRUE(hit[0]);
  EXPECT_FALSE(hit[1]);
  EXPECT_TRUE(hit[2]);

  for (std::size_t t = 0; t < hit_idx.size(); ++t) {
    const RowData& want = hit_idx[t] == 0 ? a : b;
    const VertexProp got = arena.row(hit_rows[t]);
    ASSERT_EQ(got.degree(), want.locals.size());
    EXPECT_EQ(got.weighted_degree, want.wdeg);
    for (std::size_t k = 0; k < want.locals.size(); ++k) {
      EXPECT_EQ(got.nbr_local_ids[k], want.locals[k]);
      EXPECT_EQ(got.nbr_shard_ids[k], want.shards[k]);
      EXPECT_EQ(got.edge_weights[k], want.weights[k]);
      EXPECT_EQ(got.nbr_weighted_degrees[k], want.nbr_wdeg[k]);
      EXPECT_EQ(got.nbr_global_ids[k], want.globals[k]);
    }
  }
}

TEST(AdjacencyCache, SameLocalDifferentShardAreDistinctKeys) {
  AdjacencyCache cache(8);
  cache.insert(1, 7, make_row(7, 1, 2).prop());
  CachedRowArena arena;
  EXPECT_TRUE(probe(cache, 1, {7}, arena)[0]);
  EXPECT_FALSE(probe(cache, 3, {7}, arena)[0]);
}

TEST(AdjacencyCache, CapacityBoundAndEvictionCounting) {
  AdjacencyCache cache(4);
  for (NodeId v = 0; v < 10; ++v) {
    cache.insert(0, v, make_row(v, 0, 2).prop());
  }
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.stats().insertions.load(), 10u);
  EXPECT_EQ(cache.stats().evictions.load(), 6u);
  // Exactly 4 of the 10 rows can still be resident.
  CachedRowArena arena;
  std::vector<NodeId> all(10);
  for (NodeId v = 0; v < 10; ++v) all[static_cast<std::size_t>(v)] = v;
  const auto hit = probe(cache, 0, all, arena);
  std::size_t resident = 0;
  for (const bool h : hit) resident += h ? 1u : 0u;
  EXPECT_EQ(resident, 4u);
}

TEST(AdjacencyCache, ClockGivesReferencedRowsASecondChance) {
  AdjacencyCache cache(3);
  for (const NodeId v : {0, 1, 2}) {
    cache.insert(0, v, make_row(v, 0, 1).prop());
  }
  // Inserting a 4th row sweeps every reference bit and evicts row 0.
  cache.insert(0, 3, make_row(3, 0, 1).prop());
  CachedRowArena arena;
  EXPECT_FALSE(probe(cache, 0, {0}, arena)[0]);
  // Touch row 2 (sets its reference bit), then insert another row: the
  // CLOCK hand must skip the referenced row 2 and evict row 1 instead.
  EXPECT_TRUE(probe(cache, 0, {2}, arena)[0]);
  cache.insert(0, 4, make_row(4, 0, 1).prop());
  EXPECT_FALSE(probe(cache, 0, {1}, arena)[0]);
  EXPECT_TRUE(probe(cache, 0, {2}, arena)[0]);
  EXPECT_TRUE(probe(cache, 0, {4}, arena)[0]);
}

TEST(AdjacencyCache, HitMissCountersAccumulate) {
  AdjacencyCache cache(8);
  cache.insert(0, 1, make_row(1, 0, 1).prop());
  CachedRowArena arena;
  probe(cache, 0, {1, 2, 3}, arena);  // 1 hit, 2 misses
  probe(cache, 0, {1}, arena);        // 1 hit
  EXPECT_EQ(cache.stats().hits.load(), 2u);
  EXPECT_EQ(cache.stats().misses.load(), 2u);
  cache.stats().reset();
  EXPECT_EQ(cache.stats().hits.load(), 0u);
  EXPECT_EQ(cache.stats().misses.load(), 0u);
}

TEST(AdjacencyCache, ReinsertOnlyRefreshesResidentRow) {
  AdjacencyCache cache(4);
  cache.insert(0, 1, make_row(1, 0, 2).prop());
  cache.insert(0, 1, make_row(1, 0, 2).prop());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions.load(), 1u);
}

// ---------------------------------------------------------------------
// Per-row version tags (DESIGN.md §15): each entry carries its row's
// last-mutation version L, and each probe passes every row's current L.

/// Probe one row of `dst` as a reader pinned at `pin` whose row was last
/// mutated at `last_mut`; true on a hit.
bool probe_at(AdjacencyCache& cache, ShardId dst, NodeId local,
              std::uint64_t last_mut, std::uint64_t pin) {
  CachedRowArena arena;
  std::vector<std::size_t> hit_indices, hit_rows, miss_indices;
  std::vector<NodeId> miss_locals;
  const NodeId locals[] = {local};
  const std::uint64_t versions[] = {last_mut};
  cache.lookup(dst, locals, arena, hit_indices, hit_rows, miss_locals,
               miss_indices, versions, pin);
  return !hit_indices.empty();
}

TEST(AdjacencyCache, RowTagServesEveryPinAtOrAboveIt) {
  AdjacencyCache cache(8);
  cache.insert(1, 5, make_row(5, 1, 3).prop(), /*row_last_mut=*/3,
               /*graph_version=*/3);
  EXPECT_TRUE(probe_at(cache, 1, 5, 3, 3));
  EXPECT_TRUE(probe_at(cache, 1, 5, 3, 9));
  EXPECT_EQ(cache.stats().version_invalidations.load(), 0u);
}

TEST(AdjacencyCache, MovedRowTagErasesTheEntryOnce) {
  AdjacencyCache cache(8);
  cache.insert(1, 5, make_row(5, 1, 3).prop(), 3, 3);
  // The row was mutated again at 6: the entry is erased and counted.
  EXPECT_FALSE(probe_at(cache, 1, 5, 6, 6));
  EXPECT_EQ(cache.stats().version_invalidations.load(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  // The next probe finds nothing to erase.
  EXPECT_FALSE(probe_at(cache, 1, 5, 6, 6));
  EXPECT_EQ(cache.stats().version_invalidations.load(), 1u);
  // A refill at a pin that proves it current serves again.
  cache.insert(1, 5, make_row(5, 1, 4).prop(), 6, 7);
  EXPECT_TRUE(probe_at(cache, 1, 5, 6, 7));
}

TEST(AdjacencyCache, ReaderPinnedBelowTheTagMissesWithoutErasing) {
  AdjacencyCache cache(8);
  cache.insert(1, 5, make_row(5, 1, 3).prop(), 3, 4);
  EXPECT_FALSE(probe_at(cache, 1, 5, 3, 2));
  EXPECT_EQ(cache.stats().version_invalidations.load(), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(probe_at(cache, 1, 5, 3, 3));
}

TEST(AdjacencyCache, RowFetchedAtAnOlderPinIsNotCached) {
  AdjacencyCache cache(8);
  cache.insert(1, 5, make_row(5, 1, 3).prop(), /*row_last_mut=*/5,
               /*graph_version=*/4);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions.load(), 0u);
}

TEST(AdjacencyCache, SiblingRowOfAMutatedRowKeepsHitting) {
  AdjacencyCache cache(8);
  cache.insert(2, 1, make_row(1, 2, 2).prop());
  cache.insert(2, 2, make_row(2, 2, 2).prop());
  // Row 1 of shard 2 changed at version 4; row 2 never did.
  CachedRowArena arena;
  std::vector<std::size_t> hit_indices, hit_rows, miss_indices;
  std::vector<NodeId> miss_locals;
  const std::vector<NodeId> locals = {1, 2};
  const std::vector<std::uint64_t> versions = {4, 0};
  cache.lookup(2, locals, arena, hit_indices, hit_rows, miss_locals,
               miss_indices, versions, /*graph_version=*/4);
  EXPECT_EQ(hit_indices, std::vector<std::size_t>{1});
  EXPECT_EQ(miss_locals, std::vector<NodeId>{1});
  EXPECT_EQ(cache.stats().version_invalidations.load(), 1u);
  EXPECT_EQ(arena.row(hit_rows[0]).weighted_degree,
            make_row(2, 2, 2).wdeg);
}

TEST(AdjacencyCache, NonEvictableRowSurvivesClockButNotAVersionBump) {
  AdjacencyCache cache(2);
  cache.insert(3, 100, make_row(100, 3, 2).prop(), 2, 2,
               /*evictable=*/false);
  // Ten evictable rows churn the two CLOCK slots.
  for (NodeId v = 0; v < 10; ++v) {
    cache.insert(3, v, make_row(v, 3, 1).prop(), 0, 2);
  }
  EXPECT_EQ(cache.stats().evictions.load(), 8u);
  EXPECT_EQ(cache.size(), 3u);  // two CLOCK rows + the fixed one
  EXPECT_TRUE(probe_at(cache, 3, 100, 2, 2));
  // A later mutation of the row erases it like any entry.
  EXPECT_FALSE(probe_at(cache, 3, 100, 6, 6));
  EXPECT_EQ(cache.stats().version_invalidations.load(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  // The refreshed copy takes the freed fixed slot and serves again.
  cache.insert(3, 100, make_row(100, 3, 5).prop(), 6, 6, false);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(probe_at(cache, 3, 100, 6, 6));
  EXPECT_EQ(cache.stats().evictions.load(), 8u);
}

TEST(AdjacencyCache, ConcurrentLookupInsertSmoke) {
  // Several "computing processes" hammer one machine's cache; hits are
  // copied out under the lock, so views must never dangle. TSan/ASan
  // builds (tools/check.sh) give this test its teeth.
  AdjacencyCache cache(32);
  constexpr int kThreads = 4;
  constexpr int kRounds = 300;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&cache, w] {
      CachedRowArena arena;
      std::vector<std::size_t> hit_indices, hit_rows, miss_indices;
      std::vector<NodeId> miss_locals;
      for (int round = 0; round < kRounds; ++round) {
        const NodeId base = static_cast<NodeId>((w * 13 + round) % 64);
        const std::vector<NodeId> want = {base, base + 1, base + 2};
        arena.clear();
        cache.lookup(0, want, arena, hit_indices, hit_rows, miss_locals,
                     miss_indices);
        for (std::size_t t = 0; t < hit_rows.size(); ++t) {
          const VertexProp vp = arena.row(hit_rows[t]);
          ASSERT_EQ(vp.degree(), 2u);
        }
        for (const NodeId miss : miss_locals) {
          cache.insert(0, miss, make_row(miss, 0, 2).prop());
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_LE(cache.size(), 32u);
  EXPECT_GT(cache.stats().hits.load(), 0u);
  EXPECT_GT(cache.stats().insertions.load(), 0u);
}

}  // namespace
}  // namespace ppr
