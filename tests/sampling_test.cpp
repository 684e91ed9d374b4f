// Tests for the k-hop fan-out sampler and the adaptive top-k SSPPR
// wrapper.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "engine/cluster.hpp"
#include "engine/topk.hpp"
#include "graph/generators.hpp"
#include "ppr/forward_push.hpp"
#include "ppr/khop_sampler.hpp"
#include "ppr/metrics.hpp"
#include "ppr/power_iteration.hpp"
#include "khop_reference.hpp"

namespace ppr {
namespace {

class SamplingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(600, 3600, 0.5, 0.2, 0.2, 61);
    ClusterOptions opts;
    opts.num_machines = 3;
    opts.network = no_network_cost();
    cluster_ = std::make_unique<Cluster>(
        graph_, partition_multilevel(graph_, 3), opts);
  }

  /// The first `n` core locals of `shard`.
  std::vector<NodeId> first_locals(ShardId shard, NodeId n) const {
    std::vector<NodeId> out;
    for (NodeId l = 0; l < std::min(n, cluster_->shard(shard).num_core_nodes());
         ++l) {
      out.push_back(l);
    }
    return out;
  }

  /// Neighbor refs of `ref`'s row, straight from the Graph's adjacency
  /// (which every shard stores in the same order).
  std::vector<NodeRef> graph_row(NodeRef ref) const {
    std::vector<NodeRef> row;
    for (const NodeId v :
         graph_.neighbors(cluster_->mapping().to_global(ref))) {
      row.push_back(cluster_->mapping().to_ref(v));
    }
    return row;
  }

  Graph graph_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(SamplingFixture, KHopRespectsFanoutAndMembership) {
  // Every source of every level gets exactly min(degree, k) distinct real
  // neighbors, and each sampled ref names the node the mapping says.
  for (ShardId s = 0; s < 3; ++s) {
    SCOPED_TRACE(::testing::Message() << "roots on shard " << s);
    const std::vector<NodeId> roots = first_locals(s, 12);
    KHopOptions opts;
    opts.fanouts = {5, 3};
    opts.seed = 7;
    const KHopResult res = sample_khop(cluster_->storage(s), roots, opts);
    ASSERT_EQ(res.levels.size(), 3u);
    // Edges come level by level; each level's block is the samples of its
    // frontier's sources.
    std::size_t at = 0;
    for (std::size_t d = 0; d < opts.fanouts.size(); ++d) {
      const auto k = static_cast<std::size_t>(opts.fanouts[d]);
      std::map<std::uint64_t, std::set<NodeId>> per_source;
      std::size_t block = 0;
      for (const NodeRef src : res.levels[d]) {
        block += std::min(graph_row(src).size(), k);
        per_source[src.key()];
      }
      ASSERT_LE(at + block, res.edges.size());
      for (std::size_t e = at; e < at + block; ++e) {
        const auto& [src, dst] = res.edges[e];
        ASSERT_TRUE(per_source.count(src.key())) << "source not in level";
        const NodeId g = cluster_->mapping().to_global(dst);
        const auto nbrs = graph_.neighbors(cluster_->mapping().to_global(src));
        EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), g), nbrs.end())
            << "sample must be an actual neighbor";
        EXPECT_TRUE(per_source[src.key()].insert(g).second)
            << "without replacement";
        // local/shard ids agree with the mapping.
        const NodeRef back = cluster_->mapping().to_ref(g);
        EXPECT_EQ(back.local, dst.local);
        EXPECT_EQ(back.shard, dst.shard);
      }
      for (const NodeRef src : res.levels[d]) {
        EXPECT_EQ(per_source[src.key()].size(),
                  std::min(graph_row(src).size(), k));
      }
      at += block;
    }
    EXPECT_EQ(at, res.edges.size());
  }
}

TEST_F(SamplingFixture, KHopSamplesRemoteRowsToContract) {
  // The second level's sources include other shards' nodes, whose rows
  // cross the wire; their samples keep the same contract.
  const std::vector<NodeId> roots = first_locals(0, 20);
  KHopOptions opts;
  opts.fanouts = {4, 3};
  opts.seed = 11;
  cluster_->reset_stats();
  const KHopResult res = sample_khop(cluster_->storage(0), roots, opts);
  ASSERT_GT(cluster_->storage(0).stats().remote_calls.load(), 0u);
  std::map<std::uint64_t, int> remote_samples;
  for (const auto& [src, dst] : res.edges) {
    if (src.shard == 0) continue;
    ++remote_samples[src.key()];
    const auto nbrs = graph_.neighbors(cluster_->mapping().to_global(src));
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(),
                        cluster_->mapping().to_global(dst)),
              nbrs.end());
  }
  ASSERT_FALSE(remote_samples.empty()) << "no remote source was sampled";
  for (const auto& [key, count] : remote_samples) EXPECT_LE(count, 3);
}

TEST_F(SamplingFixture, KHopDeterministicPerSeed) {
  const std::vector<NodeId> roots{0, 1, 2, 3};
  KHopOptions opts;
  opts.fanouts = {4, 4};
  opts.seed = 9;
  const KHopResult a = sample_khop(cluster_->storage(0), roots, opts);
  const KHopResult b = sample_khop(cluster_->storage(0), roots, opts);
  EXPECT_EQ(khop_edges(a), khop_edges(b));
  EXPECT_EQ(khop_levels(a), khop_levels(b));
  opts.seed = 10;
  const KHopResult c = sample_khop(cluster_->storage(0), roots, opts);
  EXPECT_NE(khop_edges(a), khop_edges(c));
}

TEST_F(SamplingFixture, KHopMatchesReferenceReplay) {
  // sample_khop's levels and edges equal the sampler's stream replayed
  // over the Graph's own adjacency lists, for roots on every shard, a
  // repeated root (which draws twice) and several seeds and depths.
  for (ShardId s = 0; s < 3; ++s) {
    std::vector<NodeId> roots = first_locals(s, 10);
    roots.push_back(roots.front());
    for (const std::uint64_t seed : {1u, 7u, 12345u}) {
      for (const std::vector<int>& fanouts :
           {std::vector<int>{10, 5}, std::vector<int>{3, 2, 2}}) {
        SCOPED_TRACE(::testing::Message()
                     << "shard " << s << " seed " << seed << " depth "
                     << fanouts.size());
        KHopOptions opts;
        opts.fanouts = fanouts;
        opts.seed = seed;
        const KHopResult got = sample_khop(cluster_->storage(s), roots, opts);
        const KHopResult want = reference_khop(
            s, 3, roots, opts, [&](NodeRef r) { return graph_row(r); });
        ASSERT_GT(got.edges.size(), 0u);
        EXPECT_EQ(khop_levels(got), khop_levels(want));
        EXPECT_EQ(khop_edges(got), khop_edges(want));
      }
    }
  }
}

TEST_F(SamplingFixture, KHopLevelsAndEdgesAreConsistent) {
  std::vector<NodeId> roots{0, 1, 2};
  KHopOptions opts;
  opts.fanouts = {6, 3};
  const KHopResult res = sample_khop(cluster_->storage(0), roots, opts);
  ASSERT_EQ(res.levels.size(), 3u);
  EXPECT_EQ(res.levels[0].size(), 3u);
  // Level sizes bounded by fanout products.
  EXPECT_LE(res.levels[1].size(), 3u * 6);
  EXPECT_LE(res.levels[2].size(), res.levels[1].size() * 3);
  // Levels are deduplicated.
  for (const auto& level : res.levels) {
    std::set<std::uint64_t> seen;
    for (const NodeRef n : level) EXPECT_TRUE(seen.insert(n.key()).second);
  }
  // Every sampled edge is a real graph edge.
  for (const auto& [src, dst] : res.edges) {
    const NodeId sg = cluster_->mapping().to_global(src);
    const NodeId dg = cluster_->mapping().to_global(dst);
    const auto nbrs = graph_.neighbors(sg);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), dg), nbrs.end())
        << sg << "->" << dg;
  }
}

TEST_F(SamplingFixture, KHopRejectsBadFanouts) {
  std::vector<NodeId> roots{0};
  KHopOptions opts;
  opts.fanouts = {};
  EXPECT_THROW(sample_khop(cluster_->storage(0), roots, opts),
               InvalidArgument);
  opts.fanouts = {3, 0};
  EXPECT_THROW(sample_khop(cluster_->storage(0), roots, opts),
               InvalidArgument);
}

TEST_F(SamplingFixture, TopkMatchesGroundTruth) {
  const NodeId source = 10;
  const NodeRef ref = cluster_->locate(source);
  TopkOptions opts;
  opts.k = 20;
  opts.ppr.epsilon = 1e-3;  // deliberately coarse start
  const TopkResult res = topk_ssppr(cluster_->storage(ref.shard), ref, opts);
  ASSERT_EQ(res.topk.size(), 20u);
  EXPECT_GT(res.refinements, 1) << "coarse start must trigger refinement";
  EXPECT_LT(res.final_epsilon, 1e-3);

  // Compare the returned set against the exact top-20.
  const auto exact = power_iteration(graph_, source, 0.462, 1e-12);
  std::vector<double> approx(static_cast<std::size_t>(graph_.num_nodes()),
                             0.0);
  for (const auto& [node, value] : res.topk) {
    approx[static_cast<std::size_t>(cluster_->mapping().to_global(node))] =
        value;
  }
  EXPECT_GE(topk_precision(approx, exact.ppr, 20), 0.9);
  // Descending order.
  for (std::size_t i = 1; i < res.topk.size(); ++i) {
    EXPECT_GE(res.topk[i - 1].second, res.topk[i].second);
  }
}

TEST_F(SamplingFixture, TopkConvergedFlagStableAcrossExtraRefinement) {
  const NodeRef ref = cluster_->locate(10);
  TopkOptions opts;
  opts.k = 10;
  opts.ppr.epsilon = 1e-4;
  opts.max_refinements = 5;
  const TopkResult res = topk_ssppr(cluster_->storage(ref.shard), ref, opts);
  EXPECT_TRUE(res.converged);
  // A further refinement from the converged epsilon returns the same set.
  TopkOptions finer = opts;
  finer.ppr.epsilon = res.final_epsilon / 10;
  finer.max_refinements = 1;
  const TopkResult res2 =
      topk_ssppr(cluster_->storage(ref.shard), ref, finer);
  std::set<std::uint64_t> a, b;
  for (const auto& [n, v] : res.topk) a.insert(n.key());
  for (const auto& [n, v] : res2.topk) b.insert(n.key());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ppr
