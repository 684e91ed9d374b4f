#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "engine/ssppr_batch.hpp"
#include "engine/throughput.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"

namespace ppr {
namespace {

constexpr double kAlpha = 0.462;

using Entries = std::vector<std::pair<NodeRef, double>>;

Entries sorted_ppr(const SspprState& s) {
  Entries e = s.ppr_entries();
  std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.first.key() < b.first.key();
  });
  return e;
}

Entries sorted_residuals(const SspprState& s) {
  Entries e = s.residual_entries();
  std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.first.key() < b.first.key();
  });
  return e;
}

/// Bit-exact comparison: same support, same doubles.
void expect_identical(const Entries& got, const Entries& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first.key(), want[i].first.key()) << what << " @" << i;
    ASSERT_EQ(got[i].second, want[i].second) << what << " @" << i;
  }
}

class BatchDriverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(800, 4000, 0.5, 0.2, 0.2, 99);
    assignment_ = partition_multilevel(graph_, 4);
  }

  std::unique_ptr<Cluster> make_cluster(bool halo,
                                        std::size_t cache_rows) const {
    ClusterOptions opts;
    opts.num_machines = 4;
    opts.network = no_network_cost();
    opts.cache_halo_adjacency = halo;
    opts.adjacency_cache_rows = cache_rows;
    return std::make_unique<Cluster>(graph_, assignment_, opts);
  }

  /// B sources on `machine` (core nodes, with one duplicated pair to
  /// stress cross-query dedup of identical frontiers).
  std::vector<NodeRef> pick_sources(const Cluster& cluster, int machine,
                                    std::size_t count) const {
    const NodeId core = cluster.shard(machine).num_core_nodes();
    std::vector<NodeRef> sources;
    for (std::size_t q = 0; q < count; ++q) {
      const auto local = static_cast<NodeId>(
          (static_cast<NodeId>(q / 2) * 17 + 3) % core);
      sources.push_back(NodeRef{local, static_cast<ShardId>(machine)});
    }
    return sources;
  }

  Graph graph_;
  PartitionAssignment assignment_;
};

TEST_F(BatchDriverFixture, BatchedResultsBitIdenticalToIndependentRuns) {
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  constexpr std::size_t kQueries = 6;
  constexpr int kMachine = 1;
  struct Config {
    bool halo;
    std::size_t cache_rows;
    bool compress;
    bool overlap;
    WireCodec codec = WireCodec::kFlat;
    SspprKernel kernel = SspprKernel::kSparse;
  };
  std::vector<Config> configs;
  for (const std::size_t cache_rows : {std::size_t{0}, std::size_t{256}}) {
    for (const bool compress : {false, true}) {
      for (const bool overlap : {false, true}) {
        configs.push_back({false, cache_rows, compress, overlap});
      }
    }
  }
  // The halo cache and the adjacency cache also have to compose.
  configs.push_back({true, 0, true, true});
  configs.push_back({true, 256, true, true});
  // The delta-varint wire codec must be invisible to results: alone, and
  // composed with both caches.
  configs.push_back({false, 0, true, true, WireCodec::kDeltaVarint});
  configs.push_back({true, 256, true, true, WireCodec::kDeltaVarint});
  // The push-kernel representation must be invisible too: adaptive (with
  // a threshold low enough to flip mid-query) and always-dense rows,
  // composed with the varint codec and both caches.
  configs.push_back({false, 0, true, true, WireCodec::kFlat,
                     SspprKernel::kAdaptive});
  configs.push_back({true, 256, true, true, WireCodec::kDeltaVarint,
                     SspprKernel::kAdaptive});
  configs.push_back({false, 0, true, true, WireCodec::kDeltaVarint,
                     SspprKernel::kDense});

  for (const Config& cfg : configs) {
    SCOPED_TRACE(::testing::Message()
                 << "halo=" << cfg.halo << " cache=" << cfg.cache_rows
                 << " compress=" << cfg.compress << " overlap=" << cfg.overlap
                 << " codec=" << wire_codec_name(cfg.codec)
                 << " kernel=" << kernel_name(cfg.kernel));
    auto cluster = make_cluster(cfg.halo, cfg.cache_rows);
    const DriverOptions driver{true, cfg.compress, cfg.overlap, cfg.codec};
    const auto sources = pick_sources(*cluster, kMachine, kQueries);
    SspprOptions query_opts = ppr;
    query_opts.kernel = cfg.kernel;
    query_opts.dense_threshold = 0.005;  // flip adaptive states mid-query
    if (cfg.kernel != SspprKernel::kSparse) {
      for (int m = 0; m < cluster->num_machines(); ++m) {
        query_opts.shard_core_counts.push_back(
            static_cast<NodeId>(cluster->shard(m).num_core_nodes()));
      }
    }

    // Reference: each query alone with the sparse-only kernel — the
    // representation policy must be invisible to results (and
    // compute_ssppr never consults the adjacency cache, so the reference
    // is cache-independent too).
    std::vector<Entries> want_ppr, want_res;
    std::vector<std::size_t> want_pushes;
    for (const NodeRef src : sources) {
      const SspprState ref =
          compute_ssppr(cluster->storage(kMachine), src, ppr, driver);
      want_ppr.push_back(sorted_ppr(ref));
      want_res.push_back(sorted_residuals(ref));
      want_pushes.push_back(ref.num_pushes());
    }

    // Cold batch run, then a warm rerun on reset() states (the second
    // pass exercises adjacency-cache hits when the cache is on).
    std::vector<SspprState> states;
    states.reserve(kQueries);
    for (const NodeRef src : sources) states.emplace_back(src, query_opts);
    for (const char* pass : {"cold", "warm"}) {
      const BatchRunStats stats =
          run_ssppr_batch(cluster->storage(kMachine), states, driver);
      EXPECT_EQ(stats.num_queries, kQueries);
      EXPECT_GT(stats.num_iterations, 0u);
      std::size_t total_pushes = 0;
      for (std::size_t q = 0; q < kQueries; ++q) {
        SCOPED_TRACE(::testing::Message() << pass << " query " << q);
        expect_identical(sorted_ppr(states[q]), want_ppr[q], "ppr");
        expect_identical(sorted_residuals(states[q]), want_res[q],
                         "residual");
        EXPECT_EQ(states[q].num_pushes(), want_pushes[q]);
        EXPECT_NEAR(states[q].total_mass(), 1.0, 2e-6);
        total_pushes += states[q].num_pushes();
      }
      EXPECT_EQ(stats.num_pushes, total_pushes);
      for (std::size_t q = 0; q < kQueries; ++q) {
        states[q].reset(sources[q]);
      }
    }
  }
}

TEST_F(BatchDriverFixture, SingleQueryBatchMatchesComputeSsppr) {
  auto cluster = make_cluster(false, 0);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const NodeRef src = pick_sources(*cluster, 0, 1)[0];
  const SspprState ref = compute_ssppr(cluster->storage(0), src, ppr);
  std::vector<SspprState> states;
  states.emplace_back(src, ppr);
  run_ssppr_batch(cluster->storage(0), states, DriverOptions{});
  expect_identical(sorted_ppr(states[0]), sorted_ppr(ref), "ppr");
  EXPECT_EQ(states[0].num_pushes(), ref.num_pushes());
}

// Every registered `pipeline.phase_us` series is fed by both drivers — in
// a batch run local and remote fetch by the pipeline, pop and push by the
// driver; in the Single ablation all four by run_ssppr — and the phases,
// timed once each, never add up to more than the call. Each record rounds
// to integer µs, so the bound allows 0.5 µs per record.
TEST_F(BatchDriverFixture, EveryPipelinePhaseSeriesIsFed) {
  auto cluster = make_cluster(false, 0);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const auto sources = pick_sources(*cluster, 0, 4);
  const auto expect_fed = [&](const auto& run) {
    std::vector<SspprState> states;
    for (const NodeRef src : sources) states.emplace_back(src, ppr);
    auto& registry = obs::MetricRegistry::global();
    const obs::MetricsSnapshot before = registry.snapshot();
    WallTimer wall;
    run(states);
    const double call_us = wall.micros();
    const obs::MetricsSnapshot delta =
        registry.snapshot().delta_since(before);
    std::size_t series = 0;
    double phase_us = 0;
    double records = 0;
    for (const auto& e : delta.entries) {
      if (e.name != "pipeline.phase_us") continue;
      ++series;
      EXPECT_GT(e.hist.count, 0u) << e.key;
      phase_us += static_cast<double>(e.hist.sum);
      records += static_cast<double>(e.hist.count);
    }
    EXPECT_EQ(series, 4u);  // pop, local_fetch, remote_fetch, push
    EXPECT_LE(phase_us, call_us + 0.5 * records);
  };
  {
    SCOPED_TRACE("batch");
    expect_fed([&](std::vector<SspprState>& states) {
      run_ssppr_batch(cluster->storage(0), states, DriverOptions{});
    });
  }
  {
    SCOPED_TRACE("single");
    expect_fed([&](std::vector<SspprState>& states) {
      for (SspprState& state : states) {
        run_ssppr(cluster->storage(0), state, DriverOptions::single());
      }
    });
  }
}

// Single (batch = false) is run_ssppr's ablation only: the batch driver
// rejects it instead of silently running batched.
TEST_F(BatchDriverFixture, UnbatchedOptionsAreRejected) {
  auto cluster = make_cluster(false, 0);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  std::vector<SspprState> states;
  states.emplace_back(pick_sources(*cluster, 0, 1)[0], ppr);
  DriverOptions unbatched;
  unbatched.batch = false;
  EXPECT_THROW(run_ssppr_batch(cluster->storage(0), states, unbatched),
               InvalidArgument);
  EXPECT_EQ(states[0].num_pushes(), 0u);
}

TEST_F(BatchDriverFixture, ResetStateMatchesFreshState) {
  auto cluster = make_cluster(false, 0);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const auto a = pick_sources(*cluster, 2, 1)[0];
  const NodeRef b{(a.local + 7) % cluster->shard(2).num_core_nodes(),
                  a.shard};
  std::vector<SspprState> recycled;
  recycled.emplace_back(a, ppr);
  run_ssppr_batch(cluster->storage(2), recycled, DriverOptions{});
  recycled[0].reset(b);
  run_ssppr_batch(cluster->storage(2), recycled, DriverOptions{});
  const SspprState fresh = compute_ssppr(cluster->storage(2), b, ppr);
  expect_identical(sorted_ppr(recycled[0]), sorted_ppr(fresh), "ppr");
  EXPECT_EQ(recycled[0].num_pushes(), fresh.num_pushes());
}

TEST_F(BatchDriverFixture, QueryThreadsDoNotChangeResults) {
  auto cluster = make_cluster(false, 0);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const auto sources = pick_sources(*cluster, 0, 8);
  DriverOptions serial{};
  DriverOptions threaded{};
  threaded.query_threads = 4;
  std::vector<SspprState> a, b;
  a.reserve(sources.size());
  b.reserve(sources.size());
  for (const NodeRef src : sources) {
    a.emplace_back(src, ppr);
    b.emplace_back(src, ppr);
  }
  run_ssppr_batch(cluster->storage(0), a, serial);
  run_ssppr_batch(cluster->storage(0), b, threaded);
  for (std::size_t q = 0; q < sources.size(); ++q) {
    expect_identical(sorted_ppr(b[q]), sorted_ppr(a[q]), "ppr");
  }
}

TEST_F(BatchDriverFixture, CrossQueryDedupReducesRemoteTraffic) {
  auto cluster = make_cluster(false, 0);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const auto sources = pick_sources(*cluster, 1, 8);

  cluster->reset_stats();
  for (const NodeRef src : sources) {
    compute_ssppr(cluster->storage(1), src, ppr);
  }
  const std::uint64_t solo_calls = cluster->total_remote_calls();
  const std::uint64_t solo_nodes = cluster->total_remote_nodes();
  const std::uint64_t solo_bytes = cluster->total_remote_bytes();

  cluster->reset_stats();
  std::vector<SspprState> states;
  states.reserve(sources.size());
  for (const NodeRef src : sources) states.emplace_back(src, ppr);
  run_ssppr_batch(cluster->storage(1), states, DriverOptions{});
  EXPECT_LT(cluster->total_remote_calls(), solo_calls);
  EXPECT_LT(cluster->total_remote_nodes(), solo_nodes);
  EXPECT_LT(cluster->total_remote_bytes(), solo_bytes);
}

TEST_F(BatchDriverFixture, AdjacencyCacheServesRepeatRuns) {
  auto cluster = make_cluster(false, 4096);
  const SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  const auto sources = pick_sources(*cluster, 1, 4);

  cluster->reset_stats();
  std::vector<SspprState> states;
  states.reserve(sources.size());
  for (const NodeRef src : sources) states.emplace_back(src, ppr);
  run_ssppr_batch(cluster->storage(1), states, DriverOptions{});
  const std::uint64_t cold_nodes = cluster->total_remote_nodes();
  EXPECT_GT(cluster->total_adjacency_cache_misses(), 0u);

  cluster->reset_stats();
  for (std::size_t q = 0; q < sources.size(); ++q) {
    states[q].reset(sources[q]);
  }
  run_ssppr_batch(cluster->storage(1), states, DriverOptions{});
  EXPECT_GT(cluster->total_adjacency_cache_hits(), 0u);
  EXPECT_LT(cluster->total_remote_nodes(), cold_nodes)
      << "warm cache must cut remote fetches";
}

TEST_F(BatchDriverFixture, RoundScratchAllocationFreeOnceWarmInBothKernels) {
  auto cluster = make_cluster(false, 0);
  SspprOptions ppr{.alpha = kAlpha, .epsilon = 1e-6};
  for (int m = 0; m < cluster->num_machines(); ++m) {
    ppr.shard_core_counts.push_back(
        static_cast<NodeId>(cluster->shard(m).num_core_nodes()));
  }
  const auto sources = pick_sources(*cluster, 1, 4);

  const auto run_batch = [&](SspprKernel kernel, double threshold) {
    SspprOptions o = ppr;
    o.kernel = kernel;
    o.dense_threshold = threshold;
    std::vector<SspprState> states;
    states.reserve(sources.size());
    for (const NodeRef src : sources) states.emplace_back(src, o);
    run_ssppr_batch(cluster->storage(1), states, DriverOptions{});
  };

  // Warm the pool across both representations (the dense kernel acquires
  // an extra SIMD precompute row per push), then require that more
  // batches of either kind perform zero round-scratch allocations.
  run_batch(SspprKernel::kSparse, 0.02);
  run_batch(SspprKernel::kDense, 0.02);
  run_batch(SspprKernel::kAdaptive, 0.005);
  BufferPoolStats& stats = SspprState::scratch_pool().stats();
  const std::uint64_t warm_allocations = stats.allocations();
  const std::uint64_t warm_acquired =
      stats.acquired.load(std::memory_order_relaxed);
  EXPECT_GT(warm_acquired, 0u) << "the push loop must use the scratch pool";

  run_batch(SspprKernel::kSparse, 0.02);
  run_batch(SspprKernel::kDense, 0.02);
  run_batch(SspprKernel::kAdaptive, 0.005);
  EXPECT_EQ(stats.allocations(), warm_allocations)
      << "steady-state rounds must not allocate round scratch";
  EXPECT_GT(stats.acquired.load(std::memory_order_relaxed), warm_acquired);
}

TEST_F(BatchDriverFixture, ThroughputHarnessBatchedMatchesUnbatched) {
  auto cluster = make_cluster(false, 2048);
  WorkloadOptions w;
  w.procs_per_machine = 2;
  w.queries_per_machine = 8;
  w.warmup_runs = 0;
  w.measured_runs = 1;
  w.ppr.alpha = kAlpha;
  w.ppr.epsilon = 1e-5;

  const ThroughputResult solo = measure_engine_throughput(*cluster, w);
  w.query_batch_size = 4;
  const ThroughputResult batched = measure_engine_throughput(*cluster, w);
  EXPECT_EQ(solo.total_queries, 32u);
  EXPECT_EQ(batched.total_queries, 32u);
  EXPECT_GT(batched.queries_per_second, 0.0);
  // Deterministic engine: the same queries do the same pushes whether or
  // not their fetches were coalesced.
  EXPECT_EQ(batched.total_pushes, solo.total_pushes);
}

}  // namespace
}  // namespace ppr
