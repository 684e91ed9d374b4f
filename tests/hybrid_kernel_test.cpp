// Equality matrix for the adaptive dense/sparse hybrid push kernel: every
// representation policy, thread count, wire codec, and switch schedule must
// produce bit-identical results to the classic sparse-only kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"

namespace ppr {
namespace {

constexpr double kAlpha = 0.462;

using Entries = std::vector<std::pair<NodeRef, double>>;

Entries sorted_entries(Entries e) {
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

void expect_states_identical(const SspprState& got, const SspprState& want,
                             const std::string& what) {
  expect_identical(sorted_entries(got.ppr_entries()),
                   sorted_entries(want.ppr_entries()), what + " ppr");
  expect_identical(sorted_entries(got.residual_entries()),
                   sorted_entries(want.residual_entries()),
                   what + " residual");
  EXPECT_EQ(got.num_pushes(), want.num_pushes()) << what;
  EXPECT_EQ(got.total_mass(), want.total_mass())
      << what << " (total_mass must be bit-identical across kernels)";
}

class ForcedScalarGuard {
 public:
  ~ForcedScalarGuard() {
    const char* e = std::getenv("GE_FORCE_SCALAR");
    simd::set_forced_scalar(e != nullptr && e[0] == '1');
  }
};

class HybridKernelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(600, 3000, 0.5, 0.2, 0.2, 66);
    assignment_ = partition_multilevel(graph_, 2);
    ClusterOptions copts;
    copts.num_machines = 2;
    copts.network = no_network_cost();
    cluster_ = std::make_unique<Cluster>(graph_, assignment_, copts);
    for (int m = 0; m < cluster_->num_machines(); ++m) {
      topology_.push_back(
          static_cast<NodeId>(cluster_->shard(m).num_core_nodes()));
    }
  }

  SspprOptions opts(SspprKernel kernel, int threads = 1,
                    double dense_threshold = 0.02,
                    bool bind_topology = true) const {
    SspprOptions o;
    o.alpha = kAlpha;
    o.epsilon = 1e-6;
    o.num_threads = threads;
    o.parallel_threshold = 2;  // small graph: force the MT path when >1
    o.kernel = kernel;
    o.dense_threshold = dense_threshold;
    if (bind_topology) o.shard_core_counts = topology_;
    return o;
  }

  SspprState run(const SspprOptions& o, NodeId source_global = 123,
                 WireCodec codec = WireCodec::kFlat) const {
    const NodeRef source = cluster_->locate(source_global);
    DriverOptions driver;
    driver.codec = codec;
    return compute_ssppr(cluster_->storage(source.shard), source, o, driver);
  }

  Graph graph_;
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<NodeId> topology_;
};

TEST_F(HybridKernelFixture, KernelNames) {
  EXPECT_STREQ(kernel_name(SspprKernel::kSparse), "sparse");
  EXPECT_STREQ(kernel_name(SspprKernel::kDense), "dense");
  EXPECT_STREQ(kernel_name(SspprKernel::kAdaptive), "adaptive");
}

/// The headline contract: {sparse, dense, adaptive} × {flat, varint
/// codec} × switch thresholds (never / mid-query / always) all produce
/// byte-for-byte the same π, r, push count, and total mass as the
/// sparse-only kernel AT THE SAME THREAD COUNT. (Different thread counts
/// partition the frontier differently and are only ε-equivalent — that
/// cross-thread property is ParallelPushMatchesSingleThread's job.)
TEST_F(HybridKernelFixture, EqualityMatrixBitIdentical) {
  for (const int threads : {1, 4}) {
    const SspprState baseline = run(opts(SspprKernel::kSparse, threads));

    struct Case {
      SspprKernel kernel;
      WireCodec codec;
      double threshold;
    };
    std::vector<Case> cases;
    for (const WireCodec codec :
         {WireCodec::kFlat, WireCodec::kDeltaVarint}) {
      cases.push_back({SspprKernel::kSparse, codec, 0.02});
      // 0.9: adaptive never promotes. 0.02: flips mid-query. 1e-4:
      // promotes on round one and demotes only when nearly drained.
      for (const double threshold : {0.9, 0.02, 1e-4}) {
        cases.push_back({SspprKernel::kDense, codec, threshold});
        cases.push_back({SspprKernel::kAdaptive, codec, threshold});
      }
    }

    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << "kernel=" << kernel_name(c.kernel)
                   << " threads=" << threads
                   << " codec=" << wire_codec_name(c.codec)
                   << " threshold=" << c.threshold);
      const SspprState got =
          run(opts(c.kernel, threads, c.threshold), 123, c.codec);
      expect_states_identical(got, baseline, "matrix");
    }
  }
}

TEST_F(HybridKernelFixture, AdaptiveActuallySwitchesMidQuery) {
  // A tiny threshold promotes on the first non-empty round; its demote
  // point (threshold/4 of the universe) is below one node, so the state
  // rides dense to the end.
  const SspprState state = run(opts(SspprKernel::kAdaptive, 1, 1e-4));
  EXPECT_EQ(state.promotions(), 1u);
  EXPECT_EQ(state.demotions(), 0u);
  EXPECT_TRUE(state.dense_active());
  // A 5% threshold flips both ways on this workload: the frontier swells
  // past 5% of the universe mid-query and drains below 1.25% (the
  // hysteresis point) before emptying.
  const SspprState flips = run(opts(SspprKernel::kAdaptive, 1, 0.05));
  EXPECT_GE(flips.promotions(), 1u);
  EXPECT_GE(flips.demotions(), 1u);
  // A threshold above any reachable density never promotes.
  const SspprState never = run(opts(SspprKernel::kAdaptive, 1, 0.9));
  EXPECT_EQ(never.promotions(), 0u);
  EXPECT_EQ(never.demotions(), 0u);
}

TEST_F(HybridKernelFixture, AdaptiveWithoutTopologyStaysSparse) {
  const SspprOptions o =
      opts(SspprKernel::kAdaptive, 1, 1e-4, /*bind_topology=*/false);
  const SspprState state = run(o);
  EXPECT_EQ(state.promotions(), 0u);
  EXPECT_FALSE(state.dense_active());
  expect_states_identical(state, run(opts(SspprKernel::kSparse)),
                          "no-topology adaptive");
}

TEST_F(HybridKernelFixture, DenseKernelRequiresTopology) {
  const SspprOptions o =
      opts(SspprKernel::kDense, 1, 0.02, /*bind_topology=*/false);
  try {
    SspprState state(NodeRef{0, 0}, o);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "dense kernel requires a bound shard topology"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(HybridKernelFixture, PromoteDemoteRoundTripIsLossFree) {
  // Drive a few rounds sparse, then switch back and forth: every stored
  // value must move bitwise, with no arithmetic applied.
  SspprState state(cluster_->locate(123), opts(SspprKernel::kSparse));
  std::vector<NodeId> nodes;
  std::vector<ShardId> shards;
  const ShardId self = state.source().shard;
  const DistGraphStorage& storage = cluster_->storage(self);
  for (int round = 0; round < 3 && !state.frontier_empty(); ++round) {
    state.pop(nodes, shards);
    // Feed every popped node through the single-query driver's local path.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId one_node[] = {nodes[i]};
      const ShardId one_shard[] = {shards[i]};
      if (shards[i] == self) {
        state.push(storage.local_store().snapshot(0)->get_neighbor_infos(
                       one_node),
                   one_node, one_shard);
      } else {
        state.push(
            storage.get_neighbor_info_single_async(shards[i], nodes[i])
                .wait(),
            one_node, one_shard);
      }
    }
  }
  const Entries want_ppr = sorted_entries(state.ppr_entries());
  const Entries want_res = sorted_entries(state.residual_entries());
  const double want_mass = state.total_mass();
  const std::size_t want_frontier = state.frontier_size();

  state.promote_to_dense();
  EXPECT_TRUE(state.dense_active());
  EXPECT_STREQ(state.kernel_mode_name(), "dense");
  expect_identical(sorted_entries(state.ppr_entries()), want_ppr, "dense π");
  expect_identical(sorted_entries(state.residual_entries()), want_res,
                   "dense r");
  EXPECT_EQ(state.total_mass(), want_mass);
  EXPECT_EQ(state.frontier_size(), want_frontier);
  state.promote_to_dense();  // no-op when already dense
  EXPECT_EQ(state.promotions(), 1u);

  state.demote_to_sparse();
  EXPECT_FALSE(state.dense_active());
  EXPECT_STREQ(state.kernel_mode_name(), "sparse");
  expect_identical(sorted_entries(state.ppr_entries()), want_ppr,
                   "restored π");
  expect_identical(sorted_entries(state.residual_entries()), want_res,
                   "restored r");
  EXPECT_EQ(state.total_mass(), want_mass);
  EXPECT_EQ(state.frontier_size(), want_frontier);
  state.demote_to_sparse();  // no-op when already sparse
  EXPECT_EQ(state.demotions(), 1u);
}

/// Torture the switch machinery: force a representation flip at EVERY
/// round boundary and require bit-identity with a never-switching run of
/// the exact same driving loop (same thread count, same push grouping).
TEST_F(HybridKernelFixture, ArbitrarySwitchScheduleBitIdentical) {
  // schedule(round) returns true to run the coming round dense.
  const auto drive = [&](int threads, auto&& schedule) {
    SspprState state(cluster_->locate(123),
                     opts(SspprKernel::kSparse, threads));
    const ShardId self = state.source().shard;
    const DistGraphStorage& storage = cluster_->storage(self);
    const int ns = storage.num_shards();
    std::vector<NodeId> nodes;
    std::vector<ShardId> shards;
    int round = 0;
    for (;;) {
      if (schedule(round)) {
        state.promote_to_dense();
      } else {
        state.demote_to_sparse();
      }
      state.pop(nodes, shards);
      if (nodes.empty()) break;
      // Group by shard (self first, then ascending) with one push call
      // per group, replaying the batched driver's call structure.
      std::vector<NeighborBatch> batches;
      const auto push_shard = [&](ShardId target) {
        std::vector<NodeId> loc;
        std::vector<ShardId> shv;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          if (shards[i] != target) continue;
          loc.push_back(nodes[i]);
          shv.push_back(shards[i]);
        }
        if (loc.empty()) return;
        if (target == self) {
          state.push(
              storage.local_store().snapshot(0)->get_neighbor_infos(loc),
              loc, shv);
          return;
        }
        batches.clear();
        std::vector<VertexProp> infos;
        for (const NodeId local : loc) {
          batches.push_back(
              storage.get_neighbor_info_single_async(target, local).wait());
        }
        for (const NeighborBatch& b : batches) infos.push_back(b[0]);
        state.push(infos, loc, shv);
      };
      push_shard(self);
      for (ShardId j = 0; j < ns; ++j) {
        if (j != self) push_shard(j);
      }
      ++round;
    }
    return std::make_pair(std::move(state), round);
  };

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto [sparse_only, sparse_rounds] =
        drive(threads, [](int) { return false; });
    auto [alternating, alt_rounds] =
        drive(threads, [](int round) { return round % 2 == 0; });
    auto [dense_only, dense_rounds] =
        drive(threads, [](int) { return true; });
    EXPECT_GT(sparse_rounds, 2) << "query must take several rounds";
    EXPECT_EQ(alt_rounds, sparse_rounds);
    EXPECT_EQ(dense_rounds, sparse_rounds);
    EXPECT_GE(alternating.promotions(), 2u);
    EXPECT_GE(alternating.demotions(), 2u);
    expect_states_identical(alternating, sparse_only, "alternating");
    expect_states_identical(dense_only, sparse_only, "dense-only");
  }
}

TEST_F(HybridKernelFixture, ResetFromDenseMatchesFresh) {
  SspprOptions o = opts(SspprKernel::kAdaptive, 1, 1e-4);
  const NodeRef a = cluster_->locate(123);
  SspprState recycled(a, o);
  run_ssppr(cluster_->storage(a.shard), recycled, DriverOptions{});
  EXPECT_GE(recycled.promotions(), 1u);

  // Recycle for a different source on the same shard; the dense arrays
  // must come back all-zero so the second query is bit-identical to a
  // fresh state's run.
  const NodeRef b{(a.local + 7) % topology_[static_cast<std::size_t>(
                                     a.shard)],
                  a.shard};
  recycled.reset(b);
  EXPECT_FALSE(recycled.dense_active());
  run_ssppr(cluster_->storage(a.shard), recycled, DriverOptions{});
  SspprState fresh(b, o);
  run_ssppr(cluster_->storage(a.shard), fresh, DriverOptions{});
  expect_states_identical(recycled, fresh, "recycled vs fresh");
}

TEST_F(HybridKernelFixture, BindTopologyRules) {
  SspprState state(NodeRef{0, 0}, opts(SspprKernel::kSparse));
  // Rebinding the identical topology is a no-op.
  state.bind_topology(topology_);
  EXPECT_TRUE(state.dense_capable());
  std::size_t universe = 0;
  for (const NodeId c : topology_) universe += static_cast<std::size_t>(c);
  EXPECT_EQ(state.dense_universe(), universe);

  // A different topology while sparse: allowed.
  std::vector<NodeId> bigger = topology_;
  bigger.push_back(32);
  state.bind_topology(bigger);
  EXPECT_EQ(state.dense_universe(), universe + 32);

  // While dense: rejected.
  state.promote_to_dense();
  EXPECT_THROW(state.bind_topology(topology_), InvalidArgument);
  state.demote_to_sparse();
  state.bind_topology(topology_);
  EXPECT_EQ(state.dense_universe(), universe);
}

TEST_F(HybridKernelFixture, ForcedScalarDoesNotChangeResults) {
  ForcedScalarGuard guard;
  simd::set_forced_scalar(false);
  const SspprState vec =
      run(opts(SspprKernel::kAdaptive, 1, 1e-4), 123,
          WireCodec::kDeltaVarint);
  simd::set_forced_scalar(true);
  const SspprState scalar =
      run(opts(SspprKernel::kAdaptive, 1, 1e-4), 123,
          WireCodec::kDeltaVarint);
  EXPECT_GE(vec.promotions(), 1u);
  expect_states_identical(scalar, vec, "scalar vs simd");
}

TEST_F(HybridKernelFixture, DensityMeasurementAndMetrics) {
  SspprState state(cluster_->locate(123), opts(SspprKernel::kAdaptive));
  std::vector<NodeId> nodes;
  std::vector<ShardId> shards;
  state.pop(nodes, shards);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(state.last_round_density(),
            1.0 / static_cast<double>(state.dense_universe()));
}

}  // namespace
}  // namespace ppr
