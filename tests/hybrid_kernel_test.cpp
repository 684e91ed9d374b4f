// Equality matrix for the dense and sparse push kernels: every
// representation, thread count, wire codec and SIMD level must produce
// bit-identical results to the classic sparse (hash-map) kernel, and a
// state must move into the dense arrays without changing a bit.
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

  SspprOptions opts(SspprKernel kernel, int threads = 1) const {
    SspprOptions o;
    o.alpha = kAlpha;
    o.epsilon = 1e-6;
    o.num_threads = threads;
    o.parallel_threshold = 2;  // small graph: force the MT path when >1
    o.kernel = kernel;
    return o;
  }

  SspprState run(const SspprOptions& o, NodeId source_global = 123,
                 WireCodec codec = WireCodec::kFlat) const {
    const NodeRef source = cluster_->locate(source_global);
    DriverOptions driver;
    driver.codec = codec;
    return compute_ssppr(cluster_->storage(source.shard), source, o, driver);
  }

  /// Run up to `rounds` rounds by hand, one push call per popped node, the
  /// way a driver that never binds a topology would.
  void drive_by_hand(SspprState& state, int rounds) const {
    const ShardId self = state.source().shard;
    const DistGraphStorage& storage = cluster_->storage(self);
    std::vector<NodeId> nodes;
    std::vector<ShardId> shards;
    for (int round = 0; round < rounds && !state.frontier_empty(); ++round) {
      state.pop(nodes, shards);
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
  }

  Graph graph_;
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<NodeId> topology_;
};

TEST_F(HybridKernelFixture, KernelNames) {
  EXPECT_STREQ(kernel_name(SspprKernel::kSparse), "sparse");
  EXPECT_STREQ(kernel_name(SspprKernel::kDense), "dense");
}

/// The headline contract: {sparse, dense} × {flat, varint codec} × {SIMD,
/// forced scalar} all produce byte-for-byte the same π, r, push count, and
/// total mass as the sparse kernel at the same thread count. (Different
/// thread counts partition the frontier differently and are only
/// ε-equivalent — that cross-thread property is
/// ParallelPushMatchesSingleThread's job.)
TEST_F(HybridKernelFixture, EqualityMatrixBitIdentical) {
  ForcedScalarGuard guard;
  for (const int threads : {1, 4}) {
    simd::set_forced_scalar(false);
    const SspprState baseline = run(opts(SspprKernel::kSparse, threads));
    EXPECT_FALSE(baseline.dense_active());
    for (const bool scalar : {false, true}) {
      simd::set_forced_scalar(scalar);
      for (const WireCodec codec :
           {WireCodec::kFlat, WireCodec::kDeltaVarint}) {
        for (const SspprKernel kernel :
             {SspprKernel::kSparse, SspprKernel::kDense}) {
          SCOPED_TRACE(::testing::Message()
                       << "kernel=" << kernel_name(kernel)
                       << " threads=" << threads
                       << " codec=" << wire_codec_name(codec)
                       << " scalar=" << scalar);
          const SspprState got = run(opts(kernel, threads), 123, codec);
          EXPECT_EQ(got.dense_active(), kernel == SspprKernel::kDense);
          expect_states_identical(got, baseline, "matrix");
        }
      }
    }
  }
}

/// A seeded state no driver has bound keeps the maps; binding moves its
/// seed into the arrays, and the driven query gives the sparse answer.
TEST_F(HybridKernelFixture, BindingASeededStateMovesItIntoTheArrays) {
  const NodeRef source = cluster_->locate(123);
  SspprState state(source, opts(SspprKernel::kDense));
  EXPECT_FALSE(state.dense_active());
  state.bind_topology(topology_);
  EXPECT_TRUE(state.dense_active());
  EXPECT_STREQ(state.kernel_mode_name(), "dense");
  EXPECT_EQ(state.frontier_size(), 1u);
  expect_identical(state.residual_entries(), {{source, 1.0}}, "seed");
  EXPECT_TRUE(state.ppr_entries().empty());
  EXPECT_EQ(state.total_mass(), 1.0);

  run_ssppr(cluster_->storage(source.shard), state, DriverOptions{});
  EXPECT_TRUE(state.dense_active());
  expect_states_identical(state, run(opts(SspprKernel::kSparse)),
                          "bound seed");
}

/// Binding mid-query moves every stored value bitwise: a state driven a
/// few rounds in the maps, then bound, holds the same π, r, mass and
/// frontier, and finishes bit-identical to a sparse state on the same
/// schedule.
TEST_F(HybridKernelFixture, BindMidQueryIsLossFree) {
  const NodeRef source = cluster_->locate(123);
  SspprState state(source, opts(SspprKernel::kDense));
  SspprState sparse(source, opts(SspprKernel::kSparse));
  drive_by_hand(state, 3);
  drive_by_hand(sparse, 3);
  ASSERT_FALSE(state.frontier_empty()) << "the query must still be running";
  EXPECT_FALSE(state.dense_active());
  const Entries want_ppr = sorted_entries(state.ppr_entries());
  const Entries want_res = sorted_entries(state.residual_entries());
  const double want_mass = state.total_mass();
  const std::size_t want_frontier = state.frontier_size();

  state.bind_topology(topology_);
  EXPECT_TRUE(state.dense_active());
  // The dense scans already list entries in ascending key order.
  expect_identical(state.ppr_entries(), want_ppr, "dense π");
  expect_identical(state.residual_entries(), want_res, "dense r");
  EXPECT_EQ(state.total_mass(), want_mass);
  EXPECT_EQ(state.frontier_size(), want_frontier);

  const DistGraphStorage& storage = cluster_->storage(source.shard);
  run_ssppr(storage, state, DriverOptions{});
  run_ssppr(storage, sparse, DriverOptions{});
  EXPECT_FALSE(sparse.dense_active());
  expect_states_identical(state, sparse, "bound mid-query");
}

TEST_F(HybridKernelFixture, ResetFromDenseMatchesFresh) {
  const SspprOptions o = opts(SspprKernel::kDense);
  const NodeRef a = cluster_->locate(123);
  SspprState recycled(a, o);
  run_ssppr(cluster_->storage(a.shard), recycled, DriverOptions{});
  EXPECT_TRUE(recycled.dense_active());

  // Recycle for a different source on the same shard: the state stays in
  // the arrays, and zeroing only its touched slots must leave them as
  // clean as a fresh state's.
  const NodeRef b{(a.local + 7) % topology_[static_cast<std::size_t>(
                                     a.shard)],
                  a.shard};
  recycled.reset(b);
  EXPECT_TRUE(recycled.dense_active());
  EXPECT_EQ(recycled.frontier_size(), 1u);
  EXPECT_EQ(recycled.total_mass(), 1.0);
  run_ssppr(cluster_->storage(a.shard), recycled, DriverOptions{});
  SspprState fresh(b, o);
  run_ssppr(cluster_->storage(a.shard), fresh, DriverOptions{});
  expect_states_identical(recycled, fresh, "recycled vs fresh");
}

TEST_F(HybridKernelFixture, BindTopologyRules) {
  const NodeRef source = cluster_->locate(123);
  SspprState state(source, opts(SspprKernel::kDense));
  state.bind_topology(topology_);
  ASSERT_TRUE(state.dense_active());
  // Rebinding the identical topology is a no-op.
  state.bind_topology(topology_);
  EXPECT_TRUE(state.dense_active());
  EXPECT_EQ(state.total_mass(), 1.0);

  // A different topology is rejected and leaves the state as it was.
  std::vector<NodeId> bigger = topology_;
  bigger.push_back(32);
  EXPECT_THROW(state.bind_topology(bigger), InvalidArgument);
  expect_identical(state.residual_entries(), {{source, 1.0}}, "after reject");

  // The hash-map kernel stays in the maps, bound or not.
  SspprState sparse(source, opts(SspprKernel::kSparse));
  sparse.bind_topology(topology_);
  EXPECT_FALSE(sparse.dense_active());
  EXPECT_STREQ(sparse.kernel_mode_name(), "sparse");

  // Malformed layouts, and one that does not hold the state's nodes.
  SspprState unbound(source, opts(SspprKernel::kDense));
  EXPECT_THROW(unbound.bind_topology({}), InvalidArgument);
  const std::vector<NodeId> negative = {-1, 5};
  EXPECT_THROW(unbound.bind_topology(negative), InvalidArgument);
  std::vector<NodeId> too_small = topology_;
  too_small[static_cast<std::size_t>(source.shard)] = source.local;
  EXPECT_THROW(unbound.bind_topology(too_small), InvalidArgument);
}

}  // namespace
}  // namespace ppr
