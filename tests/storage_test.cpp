#include <gtest/gtest.h>

#include "concurrent/flat_map.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "rpc/inproc_transport.hpp"
#include "storage/dist_storage.hpp"
#include "storage/machine.hpp"
#include "storage/storage_service.hpp"

namespace ppr {
namespace {

TEST(NodeRef, KeyPackingRoundTrip) {
  const NodeRef refs[] = {{0, 0}, {5, 3}, {0x7fffffff, 0x7fffffff}, {1, 0}};
  for (const NodeRef r : refs) {
    const NodeRef back = NodeRef::from_key(r.key());
    EXPECT_EQ(back, r);
    EXPECT_NE(r.key(), kEmptyKey);
  }
}

TEST(NodeRef, DistinctRefsDistinctKeys) {
  EXPECT_NE((NodeRef{1, 2}.key()), (NodeRef{2, 1}.key()));
  EXPECT_NE((NodeRef{0, 1}.key()), (NodeRef{1, 0}.key()));
}

class ShardFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(600, 3000, 0.5, 0.2, 0.2, 77);
    assignment_ = partition_multilevel(graph_, kShards);
    sharded_ = build_sharded_graph(graph_, assignment_, kShards);
  }

  static constexpr int kShards = 3;
  Graph graph_;
  PartitionAssignment assignment_;
  ShardedGraph sharded_;
};

TEST_F(ShardFixture, MappingIsABijection) {
  NodeId total = 0;
  for (int s = 0; s < kShards; ++s) {
    total += sharded_.mapping.num_core_nodes(s);
  }
  EXPECT_EQ(total, graph_.num_nodes());
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    const NodeRef ref = sharded_.mapping.to_ref(v);
    EXPECT_EQ(ref.shard, assignment_[static_cast<std::size_t>(v)]);
    EXPECT_EQ(sharded_.mapping.to_global(ref), v);
  }
}

TEST_F(ShardFixture, ShardStoresExactlyItsCoreRows) {
  for (int s = 0; s < kShards; ++s) {
    const GraphShard& shard = *sharded_.shards[static_cast<std::size_t>(s)];
    EXPECT_EQ(shard.shard_id(), s);
    EXPECT_EQ(shard.num_core_nodes(), sharded_.mapping.num_core_nodes(s));
    EdgeIndex expected_edges = 0;
    for (NodeId l = 0; l < shard.num_core_nodes(); ++l) {
      expected_edges += graph_.degree(shard.core_global_id(l));
    }
    EXPECT_EQ(shard.num_stored_edges(), expected_edges);
  }
}

TEST_F(ShardFixture, VertexPropMatchesGraph) {
  for (int s = 0; s < kShards; ++s) {
    const GraphShard& shard = *sharded_.shards[static_cast<std::size_t>(s)];
    for (NodeId l = 0; l < shard.num_core_nodes(); ++l) {
      const NodeId v = shard.core_global_id(l);
      const VertexProp prop = shard.vertex_prop(l);
      const auto nbrs = graph_.neighbors(v);
      const auto weights = graph_.edge_weights(v);
      ASSERT_EQ(prop.degree(), nbrs.size());
      EXPECT_FLOAT_EQ(prop.weighted_degree, graph_.weighted_degree(v));
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        // Halo bookkeeping: the stored <local, shard> pair maps back to
        // the original neighbor, and the cached weighted degree matches.
        const NodeRef ref{prop.nbr_local_ids[k], prop.nbr_shard_ids[k]};
        EXPECT_EQ(sharded_.mapping.to_global(ref), nbrs[k]);
        EXPECT_FLOAT_EQ(prop.edge_weights[k], weights[k]);
        EXPECT_FLOAT_EQ(prop.nbr_weighted_degrees[k],
                        graph_.weighted_degree(nbrs[k]));
        EXPECT_EQ(prop.nbr_global_ids[k], nbrs[k]);
      }
    }
  }
}

TEST_F(ShardFixture, CsrEncodingRoundTrip) {
  const GraphShard& shard = *sharded_.shards[0];
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < std::min<NodeId>(20, shard.num_core_nodes()); ++l) {
    locals.push_back(l);
  }
  ByteWriter w;
  shard.encode_neighbor_infos_csr(locals, w);
  ByteReader r(w.bytes());
  const NeighborBatch batch = NeighborBatch::decode_csr(r);
  ASSERT_EQ(batch.size(), locals.size());
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const VertexProp expected = shard.vertex_prop(locals[i]);
    const VertexProp got = batch[i];
    ASSERT_EQ(got.degree(), expected.degree());
    EXPECT_FLOAT_EQ(got.weighted_degree, expected.weighted_degree);
    for (std::size_t k = 0; k < got.degree(); ++k) {
      EXPECT_EQ(got.nbr_local_ids[k], expected.nbr_local_ids[k]);
      EXPECT_EQ(got.nbr_shard_ids[k], expected.nbr_shard_ids[k]);
      EXPECT_FLOAT_EQ(got.edge_weights[k], expected.edge_weights[k]);
      EXPECT_FLOAT_EQ(got.nbr_weighted_degrees[k],
                      expected.nbr_weighted_degrees[k]);
    }
  }
}

TEST_F(ShardFixture, TensorListEncodingMatchesCsrEncoding) {
  const GraphShard& shard = *sharded_.shards[1];
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < std::min<NodeId>(15, shard.num_core_nodes()); ++l) {
    locals.push_back(l);
  }
  ByteWriter csr_w, list_w;
  shard.encode_neighbor_infos_csr(locals, csr_w);
  shard.encode_neighbor_infos_tensor_list(locals, list_w);
  ByteReader csr_r(csr_w.bytes());
  ByteReader list_r(list_w.bytes());
  const NeighborBatch a = NeighborBatch::decode_csr(csr_r);
  const NeighborBatch b = NeighborBatch::decode_tensor_list(list_r);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].degree(), b[i].degree());
    for (std::size_t k = 0; k < a[i].degree(); ++k) {
      EXPECT_EQ(a[i].nbr_local_ids[k], b[i].nbr_local_ids[k]);
      EXPECT_FLOAT_EQ(a[i].edge_weights[k], b[i].edge_weights[k]);
    }
  }
  // The compressed encoding must be smaller — that is the point.
  EXPECT_LT(csr_w.size(), list_w.size());
}

TEST_F(ShardFixture, MemoryAccountingIsPlausible) {
  const GraphShard& shard = *sharded_.shards[0];
  // 4 per-edge float/int arrays + global ids ≥ 20 bytes per stored edge.
  EXPECT_GE(shard.memory_bytes(),
            static_cast<std::size_t>(shard.num_stored_edges()) * 20);
}

class DistStorageFixture : public ShardFixture {
 protected:
  void SetUp() override {
    ShardFixture::SetUp();
    tracker_ = std::make_shared<VersionTracker>(sharded_.mapping);
    transport_ =
        std::make_shared<InProcTransport>(kShards, NetworkModel{0, 0});
    for (int m = 0; m < kShards; ++m) {
      machines_.push_back(std::make_unique<Machine>(
          transport_, m, ShardMap::identity(kShards), tracker_,
          sharded_.mapping, MachineConfig{}));
      storages_.push_back(
          machines_.back()->install(std::make_shared<VersionedShardStore>(
              sharded_.shards[static_cast<std::size_t>(m)])));
    }
  }

  std::shared_ptr<VersionTracker> tracker_;
  std::shared_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::vector<std::shared_ptr<DistGraphStorage>> storages_;
};

TEST_F(DistStorageFixture, RemoteFetchEqualsLocalTruth) {
  // Machine 0 fetches nodes owned by machine 1 and must see exactly what
  // machine 1's shard stores.
  const GraphShard& shard1 = *sharded_.shards[1];
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < std::min<NodeId>(25, shard1.num_core_nodes()); ++l) {
    locals.push_back(l);
  }
  for (const bool compress : {true, false}) {
    NeighborBatch batch =
        storages_[0]
            ->get_neighbor_infos_async(1, locals,
                                       FetchOptions{.compress = compress})
            .wait();
    ASSERT_EQ(batch.size(), locals.size());
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const VertexProp expected = shard1.vertex_prop(locals[i]);
      ASSERT_EQ(batch[i].degree(), expected.degree());
      EXPECT_FLOAT_EQ(batch[i].weighted_degree, expected.weighted_degree);
      for (std::size_t k = 0; k < expected.degree(); ++k) {
        EXPECT_EQ(batch[i].nbr_local_ids[k], expected.nbr_local_ids[k]);
        EXPECT_EQ(batch[i].nbr_shard_ids[k], expected.nbr_shard_ids[k]);
      }
    }
  }
}

TEST_F(DistStorageFixture, SingleNodeFetchMatchesBatched) {
  const GraphShard& shard2 = *sharded_.shards[2];
  const NodeId local = std::min<NodeId>(3, shard2.num_core_nodes() - 1);
  NeighborBatch single =
      storages_[0]->get_neighbor_info_single_async(2, local).wait();
  ASSERT_EQ(single.size(), 1u);
  const VertexProp expected = shard2.vertex_prop(local);
  EXPECT_EQ(single[0].degree(), expected.degree());
  EXPECT_FLOAT_EQ(single[0].weighted_degree, expected.weighted_degree);
}

TEST_F(DistStorageFixture, LocalSerializedPathMatchesZeroCopy) {
  const GraphShard& shard0 = *sharded_.shards[0];
  std::vector<NodeId> locals{0, 1, 2};
  const auto snap = storages_[0]->local_store().snapshot(0);
  const auto views = snap->get_neighbor_infos(locals);
  const NeighborBatch ser =
      storages_[0]->get_neighbor_infos_local_serialized(locals);
  ASSERT_EQ(views.size(), ser.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i].degree(), ser[i].degree());
    for (std::size_t k = 0; k < views[i].degree(); ++k) {
      EXPECT_EQ(views[i].nbr_local_ids[k], ser[i].nbr_local_ids[k]);
    }
  }
  (void)shard0;
}

TEST_F(DistStorageFixture, StatsCountLocalAndRemote) {
  storages_[0]->stats().reset();
  std::vector<NodeId> locals{0, 1};
  (void)storages_[0]->get_neighbor_infos_local_serialized(locals);
  (void)storages_[0]->get_neighbor_infos_async(1, locals).wait();
  EXPECT_EQ(storages_[0]->stats().local_nodes.load(), 2u);
  EXPECT_EQ(storages_[0]->stats().remote_nodes.load(), 2u);
  EXPECT_EQ(storages_[0]->stats().remote_calls.load(), 1u);
  EXPECT_NEAR(storages_[0]->stats().remote_ratio(), 0.5, 1e-12);
}

TEST_F(DistStorageFixture, OutOfRangeRequestsSurfaceAsErrors) {
  std::vector<NodeId> bogus{999999};
  EXPECT_THROW(storages_[0]->get_neighbor_infos_async(1, bogus).wait(),
               RpcError);
  EXPECT_THROW(storages_[0]->local_store().snapshot(0)->get_neighbor_infos(
                   bogus),
               InvalidArgument);
  EXPECT_THROW((void)storages_[0]->get_neighbor_infos_async(99, bogus),
               InvalidArgument);
}

}  // namespace
}  // namespace ppr
