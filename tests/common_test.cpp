#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/argparse.hpp"
#include "common/check.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"

namespace ppr {
namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(GE_REQUIRE(false, "bad input"), InvalidArgument);
  EXPECT_NO_THROW(GE_REQUIRE(true, "fine"));
}

TEST(Check, CheckThrowsInternalError) {
  EXPECT_THROW(GE_CHECK(false, "bug"), InternalError);
  EXPECT_NO_THROW(GE_CHECK(true, "fine"));
}

TEST(Check, MessagesCarryContext) {
  try {
    GE_REQUIRE(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Serialize, PodRoundTrip) {
  ByteWriter w;
  w.write<std::uint64_t>(42);
  w.write<std::int32_t>(-7);
  w.write<float>(3.5f);
  w.write<std::uint8_t>(255);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint64_t>(), 42u);
  EXPECT_EQ(r.read<std::int32_t>(), -7);
  EXPECT_FLOAT_EQ(r.read<float>(), 3.5f);
  EXPECT_EQ(r.read<std::uint8_t>(), 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, StringRoundTrip) {
  ByteWriter w;
  w.write_string("hello");
  w.write_string("");
  w.write_string(std::string("with\0null", 9));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), std::string("with\0null", 9));
}

TEST(Serialize, VectorRoundTrip) {
  ByteWriter w;
  w.write_vec(std::vector<std::int32_t>{1, 2, 3});
  w.write_vec(std::vector<float>{});
  w.write_vec(std::vector<double>{0.25, -1e9});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vec<std::int32_t>(), (std::vector<std::int32_t>{1, 2, 3}));
  EXPECT_TRUE(r.read_vec<float>().empty());
  EXPECT_EQ(r.read_vec<double>(), (std::vector<double>{0.25, -1e9}));
}

TEST(Serialize, TensorWrappedRoundTrip) {
  ByteWriter w;
  w.write_tensor(std::vector<std::int32_t>{5, 6, 7});
  w.write_tensor(std::vector<float>{1.5f});
  w.write_tensor(std::vector<std::int32_t>{});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_tensor<std::int32_t>(),
            (std::vector<std::int32_t>{5, 6, 7}));
  EXPECT_EQ(r.read_tensor<float>(), (std::vector<float>{1.5f}));
  EXPECT_TRUE(r.read_tensor<std::int32_t>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TensorWrappingCostsHeaderPerArray) {
  // The Compress ablation relies on tensor wrapping being strictly more
  // expensive per array than flat framing.
  const std::vector<std::int32_t> payload{1, 2, 3};
  ByteWriter flat;
  flat.write_vec(payload);
  ByteWriter wrapped;
  wrapped.write_tensor(payload);
  EXPECT_GT(wrapped.size(), flat.size());
  EXPECT_GE(wrapped.size(), kTensorHeaderBytes);
}

// Serialized bytes may come off the wire: a short or ill-typed buffer is
// malformed input, not an engine bug.
TEST(Serialize, UnderflowThrows) {
  ByteWriter w;
  w.write<std::uint32_t>(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read<std::uint64_t>(), InvalidArgument);
}

TEST(Serialize, DtypeMismatchThrows) {
  ByteWriter w;
  w.write_tensor(std::vector<std::int32_t>{1});
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_tensor<double>(), InvalidArgument);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedValuesInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_u64(17), 17u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoundedValuesCoverRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_u64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(ArgParse, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",      "--n=5",       "--name", "twitter",
                        "positional", "--flag",     "--rate", "0.5"};
  ArgParser args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "twitter");
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 0.5);
  EXPECT_EQ(args.get_int("missing", 9), 9);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * 2);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, TrySubmitRejectsWhenQueueFull) {
  ThreadPool pool(1, /*max_queued=*/2);
  // Park the single worker so queued tasks pile up deterministically.
  std::mutex gate;
  gate.lock();
  auto blocker = pool.submit([&gate] { std::lock_guard<std::mutex> l(gate); });
  // Give the worker a moment to pick the blocker up (it may briefly count
  // as queued otherwise and eat one slot).
  while (pool.queued() > 0) std::this_thread::yield();

  auto a = pool.try_submit([] { return 1; });
  auto b = pool.try_submit([] { return 2; });
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(pool.queued(), 2u);
  // Queue is at max_queued: the bounded path refuses, non-blocking.
  auto c = pool.try_submit([] { return 3; });
  EXPECT_FALSE(c.has_value());
  // Unbounded submit still accepts (only try_submit honors the bound).
  auto d = pool.submit([] { return 4; });

  gate.unlock();
  blocker.get();
  EXPECT_EQ(a->get(), 1);
  EXPECT_EQ(b->get(), 2);
  EXPECT_EQ(d.get(), 4);
  // Capacity freed: try_submit works again.
  auto e = pool.try_submit([] { return 5; });
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->get(), 5);
}

TEST(Histogram, BucketsAreContiguousAndMonotonic) {
  // Every value maps into a bucket whose [lower, upper) range contains it.
  for (std::uint64_t v = 0; v < 100000; v = v < 512 ? v + 1 : v * 17 / 16) {
    const std::size_t idx = LatencyHistogram::bucket_of(v);
    EXPECT_LE(LatencyHistogram::bucket_lower(idx), v) << v;
    EXPECT_GT(LatencyHistogram::bucket_upper(idx), v) << v;
  }
}

TEST(Histogram, PercentilesWithinQuantizationError) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<std::uint64_t>(i));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_NEAR(s.mean(), 500.5, 1e-9);
  // 1/kSubBuckets relative quantization (12.5%) plus the bucket midpoint.
  EXPECT_NEAR(s.percentile(0.5), 500.0, 500.0 * 0.14);
  EXPECT_NEAR(s.percentile(0.95), 950.0, 950.0 * 0.14);
  EXPECT_NEAR(s.percentile(0.99), 990.0, 990.0 * 0.14);
  EXPECT_NEAR(s.percentile(1.0), 1000.0, 1000.0 * 0.14);
}

TEST(Histogram, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 1000; ++i) {
        h.record(static_cast<std::uint64_t>(t * 1000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.snapshot().count, 8000u);
}

TEST(Histogram, EmptySnapshotIsZero) {
  LatencyHistogram h;
  const HistogramSnapshot s = h.snapshot();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.percentile(0.99), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ParallelForThreads, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_threads(1000, 8,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForThreads, SingleThreadFallback) {
  int sum = 0;
  parallel_for_threads(10, 1, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

}  // namespace
}  // namespace ppr
