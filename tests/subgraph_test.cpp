// Tests for the §4.5 mini-batch construction pipeline: top-K PPR node
// selection, induced-subgraph correctness, and the cross-machine feature
// store.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "gnn/subgraph.hpp"
#include "graph/generators.hpp"

namespace ppr::gnn {
namespace {

class SubgraphFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_barabasi_albert(500, 5, 23);
    ClusterOptions opts;
    opts.num_machines = 2;
    opts.network = no_network_cost();
    cluster_ = std::make_unique<Cluster>(
        graph_, partition_multilevel(graph_, 2), opts);

    const std::size_t dim = 6;
    const Matrix all = make_synthetic_features(graph_.num_nodes(), dim, 3, 5);
    labels_ = make_synthetic_labels(graph_.num_nodes(), 3, 5);
    for (int m = 0; m < 2; ++m) {
      const GraphShard& shard = cluster_->shard(m);
      Matrix local(static_cast<std::size_t>(shard.num_core_nodes()), dim);
      for (NodeId l = 0; l < shard.num_core_nodes(); ++l) {
        std::copy_n(all.row(static_cast<std::size_t>(
                        shard.core_global_id(l))),
                    dim, local.row(static_cast<std::size_t>(l)));
      }
      services_.push_back(std::make_unique<FeatureStoreService>(
          cluster_->endpoint(m), std::move(local)));
    }
    all_features_ = all;
    for (int m = 0; m < 2; ++m) {
      std::vector<RemoteRef> rrefs;
      for (int peer = 0; peer < 2; ++peer) {
        rrefs.emplace_back(&cluster_->endpoint(m), peer,
                           kFeatureServiceName);
      }
      stores_.push_back(std::make_unique<DistFeatureStore>(
          cluster_->endpoint(m), std::move(rrefs), m,
          &services_[static_cast<std::size_t>(m)]->features()));
    }
  }

  SspprState run_query(NodeId global) {
    const NodeRef src = cluster_->locate(global);
    return compute_ssppr(cluster_->storage(src.shard), src,
                         SspprOptions{.alpha = 0.462, .epsilon = 1e-5});
  }

  Graph graph_;
  std::unique_ptr<Cluster> cluster_;
  Matrix all_features_;
  std::vector<std::int32_t> labels_;
  std::vector<std::unique_ptr<FeatureStoreService>> services_;
  std::vector<std::unique_ptr<DistFeatureStore>> stores_;
};

TEST_F(SubgraphFixture, TopkIncludesSourceFirst) {
  const SspprState state = run_query(3);
  const auto nodes = topk_ppr_nodes(state, 10);
  ASSERT_FALSE(nodes.empty());
  EXPECT_EQ(nodes[0], state.source());
  EXPECT_LE(nodes.size(), 11u);
  // No duplicates.
  std::unordered_set<std::uint64_t> seen;
  for (const NodeRef n : nodes) EXPECT_TRUE(seen.insert(n.key()).second);
}

TEST_F(SubgraphFixture, TopkOrderedByPprValue) {
  const SspprState state = run_query(3);
  const auto nodes = topk_ppr_nodes(state, 20);
  std::unordered_map<std::uint64_t, double> value;
  for (const auto& [ref, v] : state.ppr_entries()) value[ref.key()] = v;
  for (std::size_t i = 2; i < nodes.size(); ++i) {
    EXPECT_GE(value[nodes[i - 1].key()], value[nodes[i].key()])
        << "rank " << i;
  }
}

TEST_F(SubgraphFixture, FeatureStoreFetchesLocalAndRemoteRows) {
  // Take a few nodes from each shard.
  std::vector<NodeRef> refs;
  for (int m = 0; m < 2; ++m) {
    for (NodeId l = 0; l < 3; ++l) refs.push_back(NodeRef{l, m});
  }
  const Matrix rows = stores_[0]->fetch(refs);
  ASSERT_EQ(rows.rows(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const NodeId global = cluster_->mapping().to_global(refs[i]);
    for (std::size_t j = 0; j < rows.cols(); ++j) {
      EXPECT_FLOAT_EQ(rows.at(i, j),
                      all_features_.at(static_cast<std::size_t>(global), j))
          << "row " << i << " col " << j;
    }
  }
}

TEST_F(SubgraphFixture, ConvertBatchInducesExactlyTheSelectedEdges) {
  std::vector<SspprState> states;
  states.push_back(run_query(3));
  states.push_back(run_query(200));
  const std::size_t k = 24;
  const SubgraphBatch batch =
      convert_batch(cluster_->storage(states[0].source().shard), *stores_[0],
                    cluster_->mapping(), states, k, labels_);

  ASSERT_EQ(batch.ego_idx.size(), 2u);
  EXPECT_EQ(batch.y[0], labels_[3]);
  EXPECT_EQ(batch.y[1], labels_[200]);
  EXPECT_EQ(batch.x.rows(), batch.num_nodes());

  // Build the selected global-id set.
  std::unordered_map<NodeId, std::int32_t> index_of_global;
  for (std::size_t i = 0; i < batch.nodes.size(); ++i) {
    index_of_global[cluster_->mapping().to_global(batch.nodes[i])] =
        static_cast<std::int32_t>(i);
  }
  // Every stored edge must exist in the original graph with the same
  // weight, and the stored adjacency must contain ALL induced edges.
  for (std::size_t i = 0; i < batch.num_nodes(); ++i) {
    const NodeId vg = cluster_->mapping().to_global(batch.nodes[i]);
    std::unordered_map<std::int32_t, float> stored;
    for (EdgeIndex e = batch.indptr[i]; e < batch.indptr[i + 1]; ++e) {
      stored[batch.adj[static_cast<std::size_t>(e)]] =
          batch.edge_weights[static_cast<std::size_t>(e)];
    }
    std::size_t expected = 0;
    const auto nbrs = graph_.neighbors(vg);
    const auto ws = graph_.edge_weights(vg);
    for (std::size_t nk = 0; nk < nbrs.size(); ++nk) {
      const auto it = index_of_global.find(nbrs[nk]);
      if (it == index_of_global.end()) continue;
      ++expected;
      ASSERT_TRUE(stored.count(it->second))
          << "missing induced edge " << vg << "->" << nbrs[nk];
      EXPECT_FLOAT_EQ(stored[it->second], ws[nk]);
    }
    EXPECT_EQ(stored.size(), expected) << "extra edges at node " << vg;
  }
}

TEST_F(SubgraphFixture, EgoNodesPresentWithFeatures) {
  std::vector<SspprState> states;
  states.push_back(run_query(42));
  const SubgraphBatch batch =
      convert_batch(cluster_->storage(states[0].source().shard), *stores_[0],
                    cluster_->mapping(), states, 16, labels_);
  const auto ego = static_cast<std::size_t>(batch.ego_idx[0]);
  EXPECT_EQ(cluster_->mapping().to_global(batch.nodes[ego]), 42);
  for (std::size_t j = 0; j < batch.x.cols(); ++j) {
    EXPECT_FLOAT_EQ(batch.x.at(ego, j), all_features_.at(42, j));
  }
}

// Own-shard rows are read at the batch's pinned version, like remote
// rows: once every edge of a root is deleted, the induced subgraph keeps
// none of them, in either direction.
TEST_F(SubgraphFixture, ConvertBatchSkipsDeletedOwnShardEdges) {
  const NodeId root = 3;
  std::vector<SspprState> states;
  states.push_back(run_query(root));
  const ShardId shard = states[0].source().shard;
  std::vector<EdgeMutationOp> ops;
  for (const NodeId u : graph_.neighbors(root)) {
    ops.push_back(EdgeMutationOp{.u = root, .v = u, .insert = false});
  }
  ASSERT_FALSE(ops.empty());
  cluster_->apply_edge_mutations(ops);

  const SubgraphBatch batch = convert_batch(
      cluster_->storage(shard), *stores_[static_cast<std::size_t>(shard)],
      cluster_->mapping(), states, 24, labels_);
  ASSERT_GT(batch.num_nodes(), 1u);
  const auto ego = static_cast<std::size_t>(batch.ego_idx[0]);
  EXPECT_EQ(batch.indptr[ego + 1], batch.indptr[ego])
      << "the root kept deleted edges";
  for (const std::int32_t col : batch.adj) {
    EXPECT_NE(col, batch.ego_idx[0]) << "a row kept a deleted edge";
  }
}

}  // namespace
}  // namespace ppr::gnn
