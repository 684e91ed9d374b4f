#include <gtest/gtest.h>

#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "ppr/forward_push.hpp"
#include "ppr/metrics.hpp"
#include "ppr/tensor_push.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {
namespace {

constexpr double kAlpha = 0.462;

class TensorPushFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(700, 3500, 0.5, 0.2, 0.2, 31);
    ClusterOptions opts;
    opts.num_machines = 3;
    opts.network = no_network_cost();
    cluster_ = std::make_unique<Cluster>(
        graph_, partition_multilevel(graph_, 3), opts);
  }

  Graph graph_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(TensorPushFixture, ContextTablesInvertMapping) {
  const TensorPushContext& ctx = cluster_->tensor_ctx();
  EXPECT_EQ(ctx.num_nodes(), graph_.num_nodes());
  for (NodeId v = 0; v < graph_.num_nodes(); v += 13) {
    const ShardId s = ctx.shard_of(v);
    const NodeId l = ctx.local_of(v);
    EXPECT_EQ(ctx.global_of(s, l), v);
    EXPECT_FLOAT_EQ(ctx.dense_dw()[static_cast<std::size_t>(v)],
                    graph_.weighted_degree(v));
  }
}

TEST_F(TensorPushFixture, MatchesSequentialReference) {
  const NodeId source = 42;
  const NodeRef ref = cluster_->locate(source);
  TensorPushOptions opts;
  opts.alpha = kAlpha;
  opts.epsilon = 1e-7;
  const TensorPushResult result = tensor_forward_push(
      cluster_->storage(ref.shard), cluster_->tensor_ctx(), source, opts);
  const auto expected =
      forward_push_sequential(graph_, source, kAlpha, 1e-7);
  EXPECT_LT(l1_error(result.ppr, expected.ppr), 1e-3);
  EXPECT_GE(topk_precision(result.ppr, expected.ppr, 50), 0.95);
  EXPECT_GT(result.num_iterations, 0u);
  EXPECT_GT(result.num_pushes, 0u);
}

TEST_F(TensorPushFixture, MatchesHashMapEngineExactly) {
  // Both run the same frontier-synchronous schedule on the same shards,
  // so their results should agree far beyond the ε tolerance.
  const NodeId source = 77;
  const NodeRef ref = cluster_->locate(source);
  TensorPushOptions topts;
  topts.alpha = kAlpha;
  topts.epsilon = 1e-6;
  const TensorPushResult tensor = tensor_forward_push(
      cluster_->storage(ref.shard), cluster_->tensor_ctx(), source, topts);

  SspprState state = compute_ssppr(
      cluster_->storage(ref.shard), ref,
      SspprOptions{.alpha = kAlpha, .epsilon = 1e-6},
      DriverOptions::compressed());
  const auto engine = state.to_dense(cluster_->mapping(), graph_.num_nodes());
  // Floating-point accumulation order differs between the dense and
  // hashmap state, so threshold ties can flip at the ε scale; beyond
  // that the two must agree.
  EXPECT_LT(l1_error(tensor.ppr, engine), 1e-4);
  EXPECT_GE(topk_precision(tensor.ppr, engine, 50), 0.98);
  EXPECT_NEAR(static_cast<double>(tensor.num_pushes),
              static_cast<double>(state.num_pushes()),
              0.05 * static_cast<double>(state.num_pushes()) + 4);
}

TEST_F(TensorPushFixture, OverlapAndCompressFlagsDontChangeResult) {
  const NodeId source = 11;
  const NodeRef ref = cluster_->locate(source);
  std::vector<TensorPushResult> results;
  for (const bool compress : {true, false}) {
    for (const bool overlap : {true, false}) {
      TensorPushOptions opts;
      opts.alpha = kAlpha;
      opts.epsilon = 1e-6;
      opts.compress = compress;
      opts.overlap = overlap;
      results.push_back(tensor_forward_push(cluster_->storage(ref.shard),
                                            cluster_->tensor_ctx(), source,
                                            opts));
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(max_error(results[i].ppr, results[0].ppr), 1e-12);
  }
}

TEST_F(TensorPushFixture, TimersAttributeActivatedScanToPop) {
  const NodeId source = 5;
  const NodeRef ref = cluster_->locate(source);
  TensorPushOptions opts;
  opts.alpha = kAlpha;
  opts.epsilon = 1e-6;
  const auto phase_us = [](Phase phase) {
    return pipeline_phase_histogram(phase).snapshot().sum;
  };
  const auto pop_before = phase_us(Phase::kPop);
  const auto push_before = phase_us(Phase::kPush);
  (void)tensor_forward_push(cluster_->storage(ref.shard),
                            cluster_->tensor_ctx(), source, opts);
  // The dense scan must be visible and non-trivial relative to push time.
  EXPECT_GT(phase_us(Phase::kPop), pop_before);
  EXPECT_GT(phase_us(Phase::kPush), push_before);
}

TEST_F(TensorPushFixture, SourceOutOfRangeThrows) {
  TensorPushOptions opts;
  EXPECT_THROW(tensor_forward_push(cluster_->storage(0),
                                   cluster_->tensor_ctx(),
                                   graph_.num_nodes() + 5, opts),
               InvalidArgument);
}

}  // namespace
}  // namespace ppr
