#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "concurrent/flat_map.hpp"
#include "concurrent/sharded_map.hpp"
#include "concurrent/spinlock.hpp"

namespace ppr {
namespace {

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        LockGuard<Spinlock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 80000);
}

TEST(Spinlock, TryLock) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(FlatMap, InsertFindUpdate) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  map[10] = 1;
  map[20] = 2;
  map[10] += 5;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.find(10), nullptr);
  EXPECT_EQ(*map.find(10), 6);
  EXPECT_EQ(*map.find(20), 2);
  EXPECT_EQ(map.find(30), nullptr);
}

TEST(FlatMap, GrowsPastInitialCapacity) {
  FlatMap<std::uint64_t> map(16);
  for (std::uint64_t k = 0; k < 10000; ++k) map[k * 7 + 1] = k;
  EXPECT_EQ(map.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.find(k * 7 + 1), nullptr) << k;
    EXPECT_EQ(*map.find(k * 7 + 1), k);
  }
}

TEST(FlatMap, DefaultConstructsOnFirstAccess) {
  FlatMap<double> map;
  EXPECT_EQ(map[99], 0.0);
  map[99] += 1.5;
  EXPECT_EQ(map[99], 1.5);
}

TEST(FlatMap, ClearRemovesEverything) {
  FlatMap<int> map;
  for (std::uint64_t k = 1; k <= 100; ++k) map[k] = 1;
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(50), nullptr);
  map[50] = 2;  // usable after clear
  EXPECT_EQ(*map.find(50), 2);
}

TEST(FlatMap, ForEachVisitsAllEntriesOnce) {
  FlatMap<int> map;
  for (std::uint64_t k = 1; k <= 500; ++k) map[k] = 1;
  std::size_t visits = 0;
  std::uint64_t key_sum = 0;
  map.for_each([&](std::uint64_t k, int& v) {
    ++visits;
    key_sum += k;
    EXPECT_EQ(v, 1);
  });
  EXPECT_EQ(visits, 500u);
  EXPECT_EQ(key_sum, 500u * 501u / 2);
}

TEST(FlatMap, EmptyKeyRejected) {
  FlatMap<int> map;
  EXPECT_THROW(map[kEmptyKey], InternalError);
}

TEST(FlatMap, CollidingKeysProbeCorrectly) {
  // Dense sequential keys stress linear probing chains.
  FlatMap<std::uint64_t> map(16);
  for (std::uint64_t k = 1; k <= 64; ++k) map[k] = k * 10;
  for (std::uint64_t k = 1; k <= 64; ++k) EXPECT_EQ(*map.find(k), k * 10);
}

TEST(ShardedMap, UpsertAndFind) {
  ShardedMap<double> map;
  map.upsert(7, [](double& v) { v += 1.5; });
  map.upsert(7, [](double& v) { v += 1.0; });
  double out = 0;
  EXPECT_TRUE(map.find(7, out));
  EXPECT_DOUBLE_EQ(out, 2.5);
  EXPECT_FALSE(map.find(8, out));
  EXPECT_EQ(map.size(), 1u);
}

TEST(ShardedMap, KeysSpreadAcrossSubmaps) {
  ShardedMap<int> map(4);
  std::vector<int> used(map.num_submaps(), 0);
  for (std::uint64_t k = 1; k <= 10000; ++k) {
    used[map.submap_index(k)] = 1;
  }
  EXPECT_EQ(std::accumulate(used.begin(), used.end(), 0),
            static_cast<int>(map.num_submaps()));
}

TEST(ShardedMap, ConcurrentUpsertStress) {
  ShardedMap<long> map;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 512;
  constexpr int kRepeats = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (std::uint64_t k = 1; k <= kKeys; ++k) {
          map.upsert(k, [](long& v) { ++v; });
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(map.size(), kKeys);
  map.for_each([&](std::uint64_t, long& v) {
    EXPECT_EQ(v, static_cast<long>(kThreads) * kRepeats);
  });
}

struct AddOp {
  std::uint64_t key;
  double delta;
};

TEST(ShardedMap, ApplyPartitionedMatchesSerial) {
  Rng rng(3);
  std::vector<AddOp> ops;
  for (int i = 0; i < 20000; ++i) {
    ops.push_back({rng.next_u64(400) + 1, rng.next_double()});
  }
  ShardedMap<double> serial;
  for (const AddOp& op : ops) {
    serial.upsert(op.key, [&](double& v) { v += op.delta; });
  }
  for (const int threads : {1, 2, 4, 8}) {
    ShardedMap<double> parallel;
    parallel.apply_partitioned(
        std::span<const AddOp>(ops), threads,
        [](double& v, const AddOp& op) { v += op.delta; });
    EXPECT_EQ(parallel.size(), serial.size()) << threads << " threads";
    serial.for_each([&](std::uint64_t key, double& expected) {
      double got = 0;
      ASSERT_TRUE(parallel.find(key, got));
      EXPECT_NEAR(got, expected, 1e-9) << "key " << key;
    });
  }
}

TEST(ShardedMap, ApplyPartitionedPreservesPerKeyOrder) {
  // Ops on one key must apply in list order (single-owner guarantee).
  std::vector<AddOp> ops;
  for (int i = 0; i < 100; ++i) {
    ops.push_back({42, i == 0 ? 1.0 : 2.0});
  }
  // value = ((1*2)*2)*... only if order preserved; use multiply.
  ShardedMap<double> map;
  map.upsert(42, [](double& v) { v = 1.0; });
  map.apply_partitioned(std::span<const AddOp>(ops), 4,
                        [](double& v, const AddOp& op) { v = v * 2 - op.delta; });
  ShardedMap<double> ref;
  ref.upsert(42, [](double& v) { v = 1.0; });
  for (const AddOp& op : ops) {
    ref.upsert(42, [&](double& v) { v = v * 2 - op.delta; });
  }
  double got = 0, expected = 0;
  ASSERT_TRUE(map.find(42, got));
  ASSERT_TRUE(ref.find(42, expected));
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST(ShardedMap, ClearAndReuse) {
  ShardedMap<int> map;
  for (std::uint64_t k = 1; k <= 100; ++k) {
    map.upsert(k, [](int& v) { v = 1; });
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  map.upsert(5, [](int& v) { v = 9; });
  int out = 0;
  EXPECT_TRUE(map.find(5, out));
  EXPECT_EQ(out, 9);
}

}  // namespace
}  // namespace ppr
