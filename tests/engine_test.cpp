#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "engine/datasets.hpp"
#include "engine/ssppr_driver.hpp"
#include "engine/throughput.hpp"
#include "graph/generators.hpp"
#include "ppr/forward_push.hpp"
#include "ppr/metrics.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {
namespace {

constexpr double kAlpha = 0.462;

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(800, 4000, 0.5, 0.2, 0.2, 99);
    assignment_ = partition_multilevel(graph_, 4);
  }

  std::unique_ptr<Cluster> make_cluster(int machines = 4) {
    ClusterOptions opts;
    opts.num_machines = machines;
    opts.network = no_network_cost();
    const PartitionAssignment assignment =
        machines == 4 ? assignment_ : partition_multilevel(graph_, machines);
    return std::make_unique<Cluster>(graph_, assignment, opts);
  }

  Graph graph_;
  PartitionAssignment assignment_;
};

TEST_F(ClusterFixture, ShardsCoverGraph) {
  auto cluster = make_cluster();
  NodeId total_core = 0;
  EdgeIndex total_edges = 0;
  for (int m = 0; m < cluster->num_machines(); ++m) {
    total_core += cluster->shard(m).num_core_nodes();
    total_edges += cluster->shard(m).num_stored_edges();
  }
  EXPECT_EQ(total_core, graph_.num_nodes());
  EXPECT_EQ(total_edges, graph_.num_edges());
}

TEST_F(ClusterFixture, AllDriverModesMatchReference) {
  auto cluster = make_cluster();
  const NodeId source_global = 50;
  const NodeRef source = cluster->locate(source_global);
  const auto ref =
      forward_push_sequential(graph_, source_global, kAlpha, 1e-7);

  const DriverOptions modes[] = {
      DriverOptions::single(), DriverOptions::batched(),
      DriverOptions::compressed(), DriverOptions::overlapped()};
  for (const DriverOptions& mode : modes) {
    SspprState state = compute_ssppr(
        cluster->storage(source.shard), source,
        SspprOptions{.alpha = kAlpha, .epsilon = 1e-7}, mode);
    const auto dense = state.to_dense(cluster->mapping(), graph_.num_nodes());
    EXPECT_LT(l1_error(dense, ref.ppr), 1e-3)
        << "batch=" << mode.batch << " compress=" << mode.compress
        << " overlap=" << mode.overlap;
    EXPECT_GE(topk_precision(dense, ref.ppr, 50), 0.95);
    EXPECT_NEAR(state.total_mass(), 1.0, 2e-6);
  }
}

TEST_F(ClusterFixture, OwnerComputeRuleEnforced) {
  auto cluster = make_cluster();
  const NodeRef source = cluster->locate(10);
  const int wrong_machine = (source.shard + 1) % cluster->num_machines();
  EXPECT_THROW(compute_ssppr(cluster->storage(wrong_machine), source,
                             SspprOptions{}),
               InvalidArgument);
}

TEST_F(ClusterFixture, RemoteRatioGrowsWithMachines) {
  auto c2 = make_cluster(2);
  auto c8 = make_cluster(8);
  for (Cluster* cluster : {c2.get(), c8.get()}) {
    cluster->reset_stats();
    for (const NodeId global : {7, 77, 177, 477}) {
      const NodeRef source = cluster->locate(global);
      compute_ssppr(cluster->storage(source.shard), source,
                    SspprOptions{.alpha = kAlpha, .epsilon = 1e-6});
    }
  }
  EXPECT_GT(c8->remote_ratio(), c2->remote_ratio())
      << "more partitions => more remote traversal (§4.3)";
  EXPECT_LT(c2->remote_ratio(), 0.6)
      << "min-cut partitioning keeps most traversal local";
}

TEST_F(ClusterFixture, ThroughputHarnessRuns) {
  auto cluster = make_cluster();
  WorkloadOptions w;
  w.procs_per_machine = 2;
  w.queries_per_machine = 4;
  w.warmup_runs = 0;
  w.measured_runs = 1;
  w.ppr.alpha = kAlpha;
  w.ppr.epsilon = 1e-5;
  const ThroughputResult r = measure_engine_throughput(*cluster, w);
  EXPECT_EQ(r.total_queries, 16u);
  EXPECT_GT(r.queries_per_second, 0.0);
  EXPECT_GT(r.total_pushes, 0u);
  EXPECT_GT(r.phase_seconds[static_cast<int>(Phase::kPush)], 0.0);
}

TEST_F(ClusterFixture, BreakdownPhasesCoverWork) {
  auto cluster = make_cluster();
  const NodeRef source = cluster->locate(99);
  const auto phase_us = [](Phase phase) {
    return pipeline_phase_histogram(phase).snapshot().sum;
  };
  const auto push_before = phase_us(Phase::kPush);
  const auto local_before = phase_us(Phase::kLocalFetch);
  const auto remote_before = phase_us(Phase::kRemoteFetch);
  compute_ssppr(cluster->storage(source.shard), source,
                SspprOptions{.alpha = kAlpha, .epsilon = 1e-6},
                DriverOptions::compressed());
  EXPECT_GT(phase_us(Phase::kPush), push_before);
  EXPECT_GT(phase_us(Phase::kLocalFetch), local_before);
  EXPECT_GT(phase_us(Phase::kRemoteFetch), remote_before);
}

TEST(Datasets, SpecsExistAndGenerateScaledDown) {
  EXPECT_EQ(standard_datasets().size(), 4u);
  EXPECT_NO_THROW(dataset_spec("twitter-sim"));
  EXPECT_THROW(dataset_spec("nope"), InvalidArgument);
  // Tiny scale keeps the test fast; no cache dir => no disk writes.
  const DatasetSpec& spec = dataset_spec("products-sim");
  const Graph g = load_or_generate(spec, "", 0.02);
  EXPECT_NEAR(g.num_nodes(), spec.num_nodes * 0.02, 2);
  EXPECT_GT(g.num_edges(), 0);
}

TEST(Datasets, PartitionCacheRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ppr_cache_test").string();
  std::filesystem::remove_all(dir);
  const Graph g = generate_erdos_renyi(500, 2000, 12);
  const auto a = load_or_partition(g, "er-test", 3, dir);
  const auto b = load_or_partition(g, "er-test", 3, dir);  // from cache
  EXPECT_EQ(a, b);
  std::filesystem::remove_all(dir);
}

TEST(PowerIterationThroughput, ProducesPositiveRate) {
  const Graph g = generate_erdos_renyi(300, 1500, 8);
  const double qps = measure_power_iteration_qps(g, kAlpha, 1e-8, 2, 3);
  EXPECT_GT(qps, 0.0);
}

}  // namespace
}  // namespace ppr
