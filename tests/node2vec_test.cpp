#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "engine/cluster.hpp"
#include "graph/generators.hpp"
#include "ppr/node2vec.hpp"

namespace ppr {
namespace {

class Node2vecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(400, 2200, 0.5, 0.2, 0.2, 71);
    ClusterOptions opts;
    opts.num_machines = 2;
    opts.network = no_network_cost();
    cluster_ = std::make_unique<Cluster>(
        graph_, partition_multilevel(graph_, 2), opts);
  }

  Graph graph_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(Node2vecFixture, WalksFollowEdges) {
  std::vector<NodeId> roots{0, 1, 2, 3, 4};
  Node2vecOptions opts;
  opts.walk_length = 8;
  opts.p = 0.5;
  opts.q = 2.0;
  const Node2vecResult res =
      node2vec_walk(cluster_->storage(0), roots, opts);
  EXPECT_EQ(res.num_walks, roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    NodeId prev = cluster_->shard(0).core_global_id(roots[i]);
    for (int t = 0; t < opts.walk_length; ++t) {
      const NodeId cur = cluster_->mapping().to_global(res.at(i, t));
      const auto nbrs = graph_.neighbors(prev);
      const bool ok =
          std::find(nbrs.begin(), nbrs.end(), cur) != nbrs.end() ||
          cur == prev;  // stuck walkers repeat in place
      EXPECT_TRUE(ok) << "walk " << i << " step " << t << ": " << prev
                      << "->" << cur;
      prev = cur;
    }
  }
}

TEST_F(Node2vecFixture, LowPReturnsMoreOften) {
  // With p << 1, walks revisit the previous node far more often than with
  // p >> 1 (on the same seed set).
  std::vector<NodeId> roots;
  for (NodeId l = 0; l < std::min<NodeId>(40, cluster_->shard(0).num_core_nodes());
       ++l) {
    roots.push_back(l);
  }
  const auto count_backtracks = [&](double p) {
    int backtracks = 0;
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      Node2vecOptions opts;
      opts.walk_length = 10;
      opts.p = p;
      opts.q = 1.0;
      opts.seed = seed;
      const Node2vecResult res =
          node2vec_walk(cluster_->storage(0), roots, opts);
      for (std::size_t i = 0; i < res.num_walks; ++i) {
        for (int t = 2; t < opts.walk_length; ++t) {
          if (res.at(i, t) == res.at(i, t - 2)) ++backtracks;
        }
      }
    }
    return backtracks;
  };
  EXPECT_GT(count_backtracks(0.05), count_backtracks(20.0) * 2);
}

TEST_F(Node2vecFixture, UnitPqMatchesFirstOrderStatistics) {
  // With p=q=1 the bias disappears; the walk should visit roughly as many
  // distinct nodes as a uniform weighted walk would (sanity, not exact).
  std::vector<NodeId> roots{0};
  Node2vecOptions opts;
  opts.walk_length = 50;
  const Node2vecResult res = node2vec_walk(cluster_->storage(0), roots, opts);
  std::map<std::uint64_t, int> visits;
  for (int t = 0; t < opts.walk_length; ++t) ++visits[res.at(0, t).key()];
  EXPECT_GT(visits.size(), 5u) << "unit-bias walk must actually move";
}

TEST_F(Node2vecFixture, RejectsBadParameters) {
  std::vector<NodeId> roots{0};
  Node2vecOptions opts;
  opts.walk_length = 0;
  EXPECT_THROW(node2vec_walk(cluster_->storage(0), roots, opts),
               InvalidArgument);
  opts.walk_length = 3;
  opts.p = 0;
  EXPECT_THROW(node2vec_walk(cluster_->storage(0), roots, opts),
               InvalidArgument);
}

TEST_F(Node2vecFixture, DeterministicPerSeed) {
  std::vector<NodeId> roots{0, 1};
  Node2vecOptions opts;
  opts.walk_length = 6;
  opts.seed = 13;
  const auto a = node2vec_walk(cluster_->storage(0), roots, opts);
  const auto b = node2vec_walk(cluster_->storage(0), roots, opts);
  EXPECT_EQ(a.walks, b.walks);
}

// Own-shard rows are read at the walk's pinned version, like remote
// rows: once every edge of a root is deleted, its walk has nowhere to go
// and stays in place.
TEST_F(Node2vecFixture, WalksSkipDeletedOwnShardEdges) {
  const GraphShard& shard = cluster_->shard(0);
  NodeId root = -1;
  for (NodeId l = 0; l < shard.num_core_nodes() && root < 0; ++l) {
    const auto nbrs = graph_.neighbors(shard.core_global_id(l));
    const NodeId g = shard.core_global_id(l);
    if (!nbrs.empty() &&
        std::find(nbrs.begin(), nbrs.end(), g) == nbrs.end()) {
      root = l;
    }
  }
  ASSERT_GE(root, 0);
  const NodeId g = shard.core_global_id(root);
  std::vector<EdgeMutationOp> ops;
  for (const NodeId u : graph_.neighbors(g)) {
    ops.push_back(EdgeMutationOp{.u = g, .v = u, .insert = false});
  }
  cluster_->apply_edge_mutations(ops);

  const NodeId roots[] = {root};
  Node2vecOptions opts;
  opts.walk_length = 6;
  const Node2vecResult res = node2vec_walk(cluster_->storage(0), roots, opts);
  for (int t = 0; t < opts.walk_length; ++t) {
    EXPECT_EQ(res.at(0, t).key(), (NodeRef{root, 0}.key()))
        << "step " << t << " followed a deleted edge";
  }
}

}  // namespace
}  // namespace ppr
