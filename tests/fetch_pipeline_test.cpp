#include <gtest/gtest.h>

#include <algorithm>

#include "engine/cluster.hpp"
#include "graph/generators.hpp"
#include "rpc/inproc_transport.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {
namespace {

class FetchPipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(600, 2800, 0.5, 0.2, 0.2, 61);
    part_ = partition_multilevel(graph_, 3);
  }

  std::unique_ptr<Cluster> make_cluster(bool halo, std::size_t adj_rows) {
    ClusterOptions opts;
    opts.num_machines = 3;
    opts.network = no_network_cost();
    opts.cache_halo_adjacency = halo;
    opts.adjacency_cache_rows = adj_rows;
    return std::make_unique<Cluster>(graph_, part_, opts);
  }

  /// Request the first `per_shard` core locals of every shard (own shard
  /// included) and run one pipeline round.
  static void run_round(FetchPipeline& pipeline, const Cluster& cluster,
                        NodeId per_shard,
                        const FetchPipeline::Plan& plan = {}) {
    pipeline.begin_round();
    for (int j = 0; j < cluster.num_machines(); ++j) {
      const NodeId count =
          std::min<NodeId>(per_shard, cluster.shard(j).num_core_nodes());
      for (NodeId l = 0; l < count; ++l) {
        pipeline.add(static_cast<ShardId>(j), l);
      }
    }
    pipeline.execute(plan);
  }

  Graph graph_;
  PartitionAssignment part_;
};

TEST_F(FetchPipelineFixture, CascadePartitionsEveryRequestedRow) {
  // With every cache tier enabled, each requested row must land in
  // exactly one bucket: local + halo + cached + wire == requested.
  const auto cluster = make_cluster(/*halo=*/true, /*adj_rows=*/4096);
  FetchPipeline pipeline(cluster->storage(0));

  run_round(pipeline, *cluster, 40);
  const FetchPipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.rounds, 1u);
  EXPECT_GT(s.rows_requested, 0u);
  EXPECT_EQ(s.rows_local + s.rows_halo + s.rows_cached + s.rows_wire,
            s.rows_requested);
  EXPECT_GT(s.rows_local, 0u);  // the own-shard slice

  // A second identical round: every row that crossed the wire is now
  // adjacency-cache resident, so nothing goes over RPC again.
  const std::uint64_t wire_first = s.rows_wire;
  run_round(pipeline, *cluster, 40);
  EXPECT_EQ(s.rounds, 2u);
  EXPECT_EQ(s.rows_local + s.rows_halo + s.rows_cached + s.rows_wire,
            s.rows_requested);
  EXPECT_EQ(s.rows_wire, wire_first);  // no new wire rows in round 2
  EXPECT_GE(s.rows_cached, wire_first);
}

TEST_F(FetchPipelineFixture, StatsSumAcrossShardsMatchesPerShardCounts) {
  const auto cluster = make_cluster(/*halo=*/false, /*adj_rows=*/0);
  const DistGraphStorage& storage = cluster->storage(1);
  FetchPipeline pipeline(storage);
  cluster->reset_stats();

  run_round(pipeline, *cluster, 25);

  std::uint64_t requested = 0;
  std::uint64_t wire = 0;
  for (int j = 0; j < cluster->num_machines(); ++j) {
    const auto rows = pipeline.num_rows(static_cast<ShardId>(j));
    requested += rows;
    if (j != storage.shard_id()) wire += rows;
  }
  const FetchPipelineStats& s = pipeline.stats();
  EXPECT_EQ(s.rows_requested, requested);
  EXPECT_EQ(s.rows_wire, wire);  // no caches: every remote row is wire
  EXPECT_EQ(s.rows_halo, 0u);
  EXPECT_EQ(s.rows_cached, 0u);
  EXPECT_EQ(s.rpcs_issued, 2u);  // one batched RPC per remote shard
  // The pipeline's wire accounting agrees with the storage client's.
  EXPECT_EQ(storage.stats().remote_nodes.load(), wire);
  EXPECT_EQ(storage.stats().remote_calls.load(), 2u);
}

TEST_F(FetchPipelineFixture, DuplicateAddsCollapseOntoOneUnionRow) {
  const auto cluster = make_cluster(false, 0);
  FetchPipeline pipeline(cluster->storage(0));
  pipeline.begin_round();
  const std::uint32_t r0 = pipeline.add(1, 3);
  const std::uint32_t r1 = pipeline.add(1, 3);
  const std::uint32_t r2 = pipeline.add(1, 4);
  EXPECT_EQ(r0, r1);
  EXPECT_NE(r0, r2);
  EXPECT_EQ(pipeline.num_rows(1), 2u);
  pipeline.execute({});
  EXPECT_EQ(pipeline.stats().rows_requested, 2u);
  EXPECT_EQ(pipeline.row_of(1, 3), r0);
  EXPECT_EQ(pipeline.row_of(1, 4), r2);
}

TEST_F(FetchPipelineFixture, ProvenanceTracksResolutionTier) {
  const auto cluster = make_cluster(/*halo=*/true, /*adj_rows=*/4096);
  const DistGraphStorage& storage = cluster->storage(0);
  FetchPipeline pipeline(storage);

  // Own-shard rows are local; a remote neighbor of an own-core row is by
  // construction in the 1-hop halo set.
  const VertexProp own = cluster->shard(0).vertex_prop(0);
  ShardId halo_shard = -1;
  NodeId halo_local = 0;
  for (std::size_t k = 0; k < own.degree(); ++k) {
    if (own.nbr_shard_ids[k] != storage.shard_id()) {
      halo_shard = own.nbr_shard_ids[k];
      halo_local = own.nbr_local_ids[k];
      break;
    }
  }
  ASSERT_GE(halo_shard, 0) << "test graph needs a cross-shard edge at row 0";

  pipeline.begin_round();
  const std::uint32_t local_row = pipeline.add(storage.shard_id(), 0);
  const std::uint32_t halo_row = pipeline.add(halo_shard, halo_local);
  pipeline.execute({});
  EXPECT_EQ(pipeline.source(storage.shard_id(), local_row),
            RowSource::kLocal);
  EXPECT_EQ(pipeline.source(halo_shard, halo_row), RowSource::kHalo);

  // A row that crossed the wire flips to a cache hit when re-requested.
  const auto cold = make_cluster(/*halo=*/false, /*adj_rows=*/4096);
  FetchPipeline cold_pipeline(cold->storage(0));
  cold_pipeline.begin_round();
  std::uint32_t r = cold_pipeline.add(1, 0);
  cold_pipeline.execute({});
  EXPECT_EQ(cold_pipeline.source(1, r), RowSource::kRemote);
  cold_pipeline.begin_round();
  r = cold_pipeline.add(1, 0);
  cold_pipeline.execute({});
  EXPECT_EQ(cold_pipeline.source(1, r), RowSource::kCache);
}

TEST_F(FetchPipelineFixture, RowContentIdenticalAcrossProvenances) {
  // The same logical row, resolved over the wire and then from the
  // adjacency cache, must be byte-for-byte the same neighbor list — this
  // is what makes cache state invisible to the drivers' results.
  const auto cluster = make_cluster(/*halo=*/false, /*adj_rows=*/4096);
  FetchPipeline pipeline(cluster->storage(0));
  const NodeId count =
      std::min<NodeId>(20, cluster->shard(1).num_core_nodes());

  struct RowCopy {
    std::vector<NodeId> locals, globals;
    std::vector<ShardId> shards;
    std::vector<float> weights, nbr_wdeg;
    float wdeg;
  };
  const auto copy_rows = [&] {
    std::vector<RowCopy> rows;
    for (NodeId l = 0; l < count; ++l) {
      const VertexProp vp = pipeline.row(1, pipeline.row_of(1, l));
      rows.push_back(RowCopy{
          {vp.nbr_local_ids.begin(), vp.nbr_local_ids.end()},
          {vp.nbr_global_ids.begin(), vp.nbr_global_ids.end()},
          {vp.nbr_shard_ids.begin(), vp.nbr_shard_ids.end()},
          {vp.edge_weights.begin(), vp.edge_weights.end()},
          {vp.nbr_weighted_degrees.begin(), vp.nbr_weighted_degrees.end()},
          vp.weighted_degree});
    }
    return rows;
  };
  const auto run = [&] {
    pipeline.begin_round();
    for (NodeId l = 0; l < count; ++l) pipeline.add(1, l);
    pipeline.execute({});
    return copy_rows();
  };

  const auto wire_rows = run();    // round 1: all over the wire
  const auto cached_rows = run();  // round 2: all from the cache
  ASSERT_EQ(pipeline.stats().rows_cached,
            static_cast<std::uint64_t>(count));
  for (NodeId l = 0; l < count; ++l) {
    const auto i = static_cast<std::size_t>(l);
    EXPECT_EQ(wire_rows[i].locals, cached_rows[i].locals);
    EXPECT_EQ(wire_rows[i].globals, cached_rows[i].globals);
    EXPECT_EQ(wire_rows[i].shards, cached_rows[i].shards);
    EXPECT_EQ(wire_rows[i].weights, cached_rows[i].weights);
    EXPECT_EQ(wire_rows[i].nbr_wdeg, cached_rows[i].nbr_wdeg);
    EXPECT_EQ(wire_rows[i].wdeg, cached_rows[i].wdeg);
  }
}

TEST_F(FetchPipelineFixture, OverlapHookRunsWithPreResolvedRows) {
  const auto cluster = make_cluster(/*halo=*/true, /*adj_rows=*/0);
  const DistGraphStorage& storage = cluster->storage(0);
  FetchPipeline pipeline(storage);
  pipeline.begin_round();
  pipeline.add(storage.shard_id(), 0);
  pipeline.add(storage.shard_id(), 1);
  bool ran = false;
  pipeline.execute({/*compress=*/true, /*overlap=*/true}, [&] {
    // Own-shard rows are already resolved inside the hook.
    EXPECT_EQ(pipeline.source(storage.shard_id(), 0), RowSource::kLocal);
    EXPECT_EQ(pipeline.row(storage.shard_id(), 0).degree(),
              cluster->shard(0).vertex_prop(0).degree());
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST_F(FetchPipelineFixture, RowOfUnknownPairFails) {
  const auto cluster = make_cluster(false, 0);
  FetchPipeline pipeline(cluster->storage(0));
  pipeline.begin_round();
  pipeline.add(1, 2);
  EXPECT_THROW(pipeline.row_of(1, 99), InternalError);
  EXPECT_THROW(pipeline.row_of(2, 2), InternalError);
}

TEST_F(FetchPipelineFixture, EmptyRoundIsHarmless) {
  const auto cluster = make_cluster(false, 0);
  FetchPipeline pipeline(cluster->storage(0));
  pipeline.begin_round();
  pipeline.execute({});
  EXPECT_EQ(pipeline.stats().rows_requested, 0u);
  EXPECT_EQ(pipeline.stats().rpcs_issued, 0u);
  EXPECT_EQ(pipeline.stats().rounds, 1u);
}

// A peer that answers a batched fetch with a well-formed frame holding
// fewer rows than were asked for is refused, not read past its end. Both
// machines share one in-process network; machine 1 runs a stand-in
// storage service that always answers with shard 1's first row alone.
TEST(FetchPipelineReply, ShortReplyIsRejected) {
  const Graph g = generate_rmat(200, 1000, 0.5, 0.2, 0.2, 61);
  const ShardedGraph sg = build_sharded_graph(g, partition_hash(g, 2), 2);
  ASSERT_GE(sg.shards[1]->num_core_nodes(), 6);
  auto transport = std::make_shared<InProcTransport>(2, NetworkModel{0, 0});
  Machine machine0(transport, 0, ShardMap::identity(2),
                   std::make_shared<VersionTracker>(sg.mapping), sg.mapping,
                   MachineConfig{});
  const auto storage = machine0.install(
      std::make_shared<VersionedShardStore>(sg.shards[0]));
  RpcEndpoint peer(transport, 1);
  peer.register_service(
      kStorageServiceName,
      [&](const std::string&, std::span<const std::uint8_t>) {
        const NodeId first[] = {0};
        ByteWriter reply;
        reply.write<std::uint8_t>(kStorageReplyOk);
        sg.shards[1]->encode_neighbor_infos_csr(first, reply);
        return reply.take();
      });

  FetchPipeline pipeline(*storage);
  pipeline.begin_round();
  for (NodeId l = 0; l < 6; ++l) pipeline.add(1, l);
  EXPECT_THROW(pipeline.execute({}), InvalidArgument);
}

}  // namespace
}  // namespace ppr
