// Elastic shard plane tests (DESIGN.md §13): replica-aware ShardMap
// semantics, the epoch-versioned RoutingTable, the rebalance policy, and
// the live paths on an in-process Cluster — stale-epoch redirect + retry,
// migration under concurrent fetch load, replica-served reads, and
// failover promotion — all holding the engine to bit-identical answers
// across placements.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/routing.hpp"
#include "cluster/shard_map.hpp"
#include "engine/cluster.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace ppr {
namespace {

// ---------------------------------------------------------------------------
// ShardMap: replica sets, failover derivation, fingerprint, wire form

TEST(ShardMapReplicas, WithReplicaAddsSortedSetAndBumpsEpoch) {
  const ShardMap base = ShardMap::identity(3);
  EXPECT_TRUE(base.replicas(0).empty());
  EXPECT_FALSE(base.is_replica(0, 1));

  const ShardMap one = base.with_replica(0, 2);
  const ShardMap two = one.with_replica(0, 1);
  EXPECT_EQ(two.epoch(), base.epoch() + 2);
  EXPECT_EQ(two.replicas(0), (std::vector<std::int32_t>{1, 2}));
  EXPECT_TRUE(two.is_replica(0, 1));
  EXPECT_TRUE(two.serves(0, 1));
  EXPECT_TRUE(two.serves(0, 0));   // primary serves too
  EXPECT_FALSE(two.serves(1, 2));  // untouched shard

  // Adding the primary or an existing replica is an error.
  EXPECT_THROW(two.with_replica(0, 0), InvalidArgument);
  EXPECT_THROW(two.with_replica(0, 1), InvalidArgument);
}

TEST(ShardMapReplicas, WithPlacementPromotesReplicaOutOfTheSet) {
  const ShardMap map = ShardMap::identity(3).with_replica(0, 2);
  const ShardMap moved = map.with_placement(0, 2);
  EXPECT_EQ(moved.node_of(0), 2);
  // The promoted node left the replica set; the old primary is freed, not
  // demoted to a replica.
  EXPECT_TRUE(moved.replicas(0).empty());
  EXPECT_FALSE(moved.serves(0, 0));
  EXPECT_EQ(moved.epoch(), map.epoch() + 1);
}

TEST(ShardMapReplicas, WithoutNodePromotesLowestIdSurvivor) {
  // Shard 1 primary on node 1 with replicas {0, 2}; node 1 dies.
  const ShardMap map =
      ShardMap::identity(3).with_replica(1, 0).with_replica(1, 2);
  const auto next = map.without_node(1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->node_of(1), 0);  // lowest-id survivor wins
  EXPECT_EQ(next->replicas(1), (std::vector<std::int32_t>{2}));
  EXPECT_EQ(next->epoch(), map.epoch() + 1);
  // Other shards keep their (unreplicated) primaries even if unreachable.
  EXPECT_EQ(next->node_of(0), 0);
  EXPECT_EQ(next->node_of(2), 2);
}

TEST(ShardMapReplicas, WithoutNodeStripsDeadReplicas) {
  const ShardMap map = ShardMap::identity(3).with_replica(0, 1);
  const auto next = map.without_node(1);
  ASSERT_TRUE(next.has_value());
  EXPECT_TRUE(next->replicas(0).empty());
  // Node 1's own shard had no replica — its primary entry is unchanged
  // (re-routing cannot resurrect unreplicated data).
  EXPECT_EQ(next->node_of(1), 1);
}

TEST(ShardMapReplicas, WithoutNodeIsNulloptWhenNothingChanges) {
  const ShardMap map = ShardMap::identity(3);
  // An unreplicated primary's death changes nothing the map can express;
  // an unknown node even less so.
  EXPECT_FALSE(map.without_node(1).has_value());
  EXPECT_FALSE(map.without_node(7).has_value());
}

TEST(ShardMapReplicas, FingerprintCoversReplicaSetsAndEpoch) {
  const ShardMap base = ShardMap::identity(4);
  const ShardMap replicated = base.with_replica(2, 0);
  EXPECT_NE(base.fingerprint(), replicated.fingerprint());

  // Same placement + replicas, different epoch → different fingerprint.
  const ShardMap later(std::vector<std::int32_t>{0, 1, 2, 3},
                       base.epoch() + 5);
  EXPECT_NE(base.fingerprint(), later.fingerprint());
}

TEST(ShardMapReplicas, EncodeDecodeRoundTripsReplicas) {
  const ShardMap map =
      ShardMap::identity(3).with_replica(0, 2).with_replica(1, 0);
  ByteWriter w;
  map.encode(w);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  ByteReader r(bytes);
  const ShardMap back = ShardMap::decode(r);
  EXPECT_EQ(back, map);
  EXPECT_EQ(back.fingerprint(), map.fingerprint());
}

// ---------------------------------------------------------------------------
// RoutingTable

TEST(RoutingTable, AppliesOnlyStrictlyNewerEpochs) {
  RoutingTable table(ShardMap::identity(3));
  EXPECT_EQ(table.epoch(), 1u);

  const ShardMap newer = table.current()->with_placement(0, 2);
  EXPECT_TRUE(table.apply(ShardMap(newer)));
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_EQ(table.primary_of(0), 2);

  // Duplicate and stale publishes are dropped, never rolled back to.
  EXPECT_FALSE(table.apply(ShardMap(newer)));
  EXPECT_FALSE(table.apply(ShardMap::identity(3)));
  EXPECT_EQ(table.primary_of(0), 2);
}

TEST(RoutingTable, ReadTargetRoundRobinsOverReplicaSet) {
  RoutingTable table(ShardMap::identity(3));
  // No replicas: always the primary.
  EXPECT_EQ(table.read_target(1), 1);
  EXPECT_EQ(table.read_target(1), 1);

  table.apply(table.current()->with_replica(1, 0).with_replica(1, 2));
  // Deterministic cycle primary → replicas in sorted order, per shard.
  std::vector<std::int32_t> targets;
  for (int i = 0; i < 6; ++i) targets.push_back(table.read_target(1));
  EXPECT_EQ(targets, (std::vector<std::int32_t>{1, 0, 2, 1, 0, 2}));
  // Other shards keep their own cursors.
  EXPECT_EQ(table.read_target(0), 0);
}

TEST(RoutingTable, FailoverConvergesWithoutCoordination) {
  const ShardMap map =
      ShardMap::identity(3).with_replica(2, 0).with_replica(2, 1);
  RoutingTable a{ShardMap(map)};
  RoutingTable b{ShardMap(map)};
  EXPECT_TRUE(a.handle_node_failure(2));
  EXPECT_TRUE(b.handle_node_failure(2));
  // Pure derivation: both tables promoted the identical successor map.
  EXPECT_EQ(*a.current(), *b.current());
  EXPECT_EQ(a.primary_of(2), 0);
  // Re-observing the same death is a no-op.
  EXPECT_FALSE(a.handle_node_failure(2));
}

// ---------------------------------------------------------------------------
// Rebalance policy

TEST(Rebalance, ProposesReplicaForHotShardOnLeastLoadedNode) {
  const ShardMap map = ShardMap::identity(4);
  // Shard 1 is scorching (mean load ≈ 259, threshold 2× that); node 3 is
  // the idlest non-serving node.
  const std::vector<std::uint64_t> load{10, 1000, 20, 5};
  const auto actions = propose_rebalance(load, map, 4, 2.0, 1);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, RebalanceAction::Kind::kAddReplica);
  EXPECT_EQ(actions[0].shard, 1);
  EXPECT_EQ(actions[0].node, 3);
  // Deterministic in its inputs.
  EXPECT_EQ(propose_rebalance(load, map, 4, 2.0, 1)[0].node, 3);
}

TEST(Rebalance, RespectsGuards) {
  const ShardMap map = ShardMap::identity(4);
  // Below the traffic floor: noise, no action.
  EXPECT_TRUE(propose_rebalance({1, 30, 1, 1}, map, 4, 4.0, 1).empty());
  // Uniform load: nothing is hot.
  EXPECT_TRUE(
      propose_rebalance({500, 500, 500, 500}, map, 4, 4.0, 1).empty());
  // Replica cap reached for the hot shard.
  const ShardMap capped = map.with_replica(1, 3);
  EXPECT_TRUE(
      propose_rebalance({10, 1000, 20, 5}, capped, 4, 2.0, 1).empty());
}

// ---------------------------------------------------------------------------
// Live paths on the in-process Cluster (real wire frames, no sockets)

class ElasticClusterTest : public ::testing::Test {
 protected:
  static constexpr int kMachines = 3;

  void SetUp() override {
    graph_ = generate_clustered(400, kMachines, 2000, 300, 1.5, 19);
    assignment_ = partition_hash(graph_, kMachines);
    ClusterOptions options;
    options.num_machines = kMachines;
    options.network = no_network_cost();
    cluster_ = std::make_unique<Cluster>(graph_, assignment_, options);
  }

  /// Flatten a fetched batch for equality comparison.
  static std::vector<std::tuple<NodeId, ShardId, float>> flatten(
      const NeighborBatch& batch) {
    std::vector<std::tuple<NodeId, ShardId, float>> out;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const VertexProp p = batch[i];
      out.emplace_back(-1, -1, p.weighted_degree);
      for (std::size_t k = 0; k < p.degree(); ++k) {
        out.emplace_back(p.nbr_local_ids[k], p.nbr_shard_ids[k],
                         p.edge_weights.empty() ? 0.0f : p.edge_weights[k]);
      }
    }
    return out;
  }

  std::vector<NodeId> sample_locals(ShardId shard, NodeId count) const {
    const NodeId n = std::min<NodeId>(
        count, cluster_->service(shard).shard_ptr(shard)->num_core_nodes());
    std::vector<NodeId> locals;
    for (NodeId l = 0; l < n; ++l) locals.push_back(l);
    return locals;
  }

  NodeId source_on_shard(ShardId shard) const {
    for (NodeId g = 0; g < graph_.num_nodes(); ++g) {
      if (cluster_->locate(g).shard == shard) return g;
    }
    ADD_FAILURE() << "no source on shard " << shard;
    return 0;
  }

  serve::QueryResult run_query(const DistGraphStorage& storage,
                               NodeId source) const {
    serve::ServeOptions options;
    options.executors_per_machine = 1;
    serve::ServiceStats stats;
    serve::MachineScheduler scheduler(storage, options, stats);
    serve::PendingQuery q;
    q.source = cluster_->locate(source);
    q.enqueue_time = std::chrono::steady_clock::now();
    q.deadline = std::chrono::steady_clock::time_point::max();
    serve::QueryFuture future = q.promise.get_future();
    EXPECT_TRUE(scheduler.try_enqueue(std::move(q)));
    return future.wait();
  }

  Graph graph_;
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ElasticClusterTest, StaleEpochRedirectRetriesTransparently) {
  const std::vector<NodeId> locals = sample_locals(2, 20);
  const auto before = flatten(
      cluster_->storage(0).get_neighbor_infos_async(2, locals).wait());

  auto& stale_hits =
      obs::MetricRegistry::global().counter("routing.stale_epoch_hits");
  const std::uint64_t hits0 = stale_hits.load();

  // Move shard 2 onto machine 1 but leave machine 0's table stale — it
  // still believes shard 2 lives on machine 2.
  cluster_->migrate_shard(2, 1, /*skip_publish=*/{0});
  ASSERT_EQ(cluster_->routing(0).primary_of(2), 2);
  ASSERT_FALSE(cluster_->service(2).serves(2));
  ASSERT_TRUE(cluster_->service(1).serves(2));

  // The fetch goes to the old primary, takes a stale-route reply carrying
  // the new map, re-resolves, and lands on machine 1 — same bytes out.
  const auto after = flatten(
      cluster_->storage(0).get_neighbor_infos_async(2, locals).wait());
  EXPECT_EQ(after, before);
  EXPECT_GT(stale_hits.load(), hits0);
  // The redirect taught machine 0 the new placement.
  EXPECT_EQ(cluster_->routing(0).primary_of(2), 1);
  EXPECT_GT(cluster_->routing(0).epoch(), 1u);
}

TEST_F(ElasticClusterTest, MigrationUnderConcurrentLoadStaysBitIdentical) {
  const NodeId source = source_on_shard(2);
  const serve::QueryResult before = run_query(cluster_->storage(2), source);
  ASSERT_EQ(before.status, serve::QueryStatus::kOk);

  // Hammer shard 0 with remote fetches from machines 1 and 2 while it
  // migrates 0 → 2; every fetch must succeed (some via the stale-route
  // retry) and return the same rows.
  const std::vector<NodeId> locals = sample_locals(0, 12);
  const auto truth = flatten(
      cluster_->storage(1).get_neighbor_infos_async(0, locals).wait());
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> fetches{0};
  std::vector<std::thread> load;
  for (int m = 1; m < kMachines; ++m) {
    load.emplace_back([&, m] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto got = flatten(cluster_->storage(m)
                                     .get_neighbor_infos_async(0, locals)
                                     .wait());
        if (got != truth) {
          ADD_FAILURE() << "fetch diverged during migration";
          return;
        }
        fetches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the load ramp, migrate live, let it drain through the new owner.
  while (fetches.load(std::memory_order_relaxed) < 50) {
    std::this_thread::yield();
  }
  cluster_->migrate_shard(0, 2);
  const std::uint64_t at_flip = fetches.load(std::memory_order_relaxed);
  while (fetches.load(std::memory_order_relaxed) < at_flip + 50) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : load) t.join();

  ASSERT_FALSE(cluster_->service(0).serves(0));
  ASSERT_TRUE(cluster_->service(2).serves(0));
  EXPECT_GT(obs::MetricRegistry::global()
                .counter("migration.bytes_copied")
                .load(),
            0u);

  // The query-plane answer is unchanged — IEEE-bit-identical, because the
  // push order depends only on shard ids, never on placement.
  const serve::QueryResult after = run_query(cluster_->storage(2), source);
  ASSERT_EQ(after.status, serve::QueryStatus::kOk);
  EXPECT_EQ(after.num_pushes, before.num_pushes);
  ASSERT_EQ(after.ppr.size(), before.ppr.size());
  for (std::size_t i = 0; i < before.ppr.size(); ++i) {
    EXPECT_EQ(after.ppr[i].first.key(), before.ppr[i].first.key());
    EXPECT_EQ(after.ppr[i].second, before.ppr[i].second);  // bit-equal
  }
}

TEST_F(ElasticClusterTest, ReplicaServesLoadBalancedReads) {
  const std::vector<NodeId> locals = sample_locals(2, 15);
  const auto truth = flatten(
      cluster_->storage(0).get_neighbor_infos_async(2, locals).wait());

  cluster_->add_replica(2, 0);
  ASSERT_TRUE(cluster_->service(0).serves(2));
  ASSERT_EQ(cluster_->routing(1).current()->replicas(2),
            (std::vector<std::int32_t>{0}));

  // Reads from machine 1 round-robin primary/replica; all bit-identical.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(flatten(cluster_->storage(1)
                          .get_neighbor_infos_async(2, locals)
                          .wait()),
              truth);
  }
  // The replica actually served some of them.
  std::uint64_t replica_served = 0;
  for (const auto& [shard, count] : cluster_->service(0).served_counts()) {
    if (shard == 2) replica_served = count;
  }
  EXPECT_GT(replica_served, 0u);
}

TEST_F(ElasticClusterTest, FailoverPromotesReplicaBitIdentically) {
  const NodeId source = source_on_shard(2);
  const serve::QueryResult before = run_query(cluster_->storage(2), source);
  ASSERT_EQ(before.status, serve::QueryStatus::kOk);

  const std::vector<NodeId> locals = sample_locals(2, 15);
  const auto truth = flatten(
      cluster_->storage(1).get_neighbor_infos_async(2, locals).wait());

  cluster_->add_replica(2, 0);
  // Machine 2 "dies": every surviving table derives the same promotion.
  for (const int m : {0, 1}) {
    EXPECT_TRUE(cluster_->routing(m).handle_node_failure(2));
    EXPECT_EQ(cluster_->routing(m).primary_of(2), 0);
  }

  // Reads for shard 2 now land on the promoted replica — same rows.
  EXPECT_EQ(flatten(cluster_->storage(1)
                        .get_neighbor_infos_async(2, locals)
                        .wait()),
            truth);

  // The promoted node runs shard 2's queries exactly as the dead owner
  // did: a serving unit is (shard data, shard id) — placement-free.
  std::vector<RemoteRef> rrefs;
  for (int peer = 0; peer < kMachines; ++peer) {
    rrefs.emplace_back(&cluster_->endpoint(0), peer, kStorageServiceName);
  }
  DistGraphStorage promoted(cluster_->endpoint(0), rrefs,
                            cluster_->service(0).store_ptr(2),
                            std::make_shared<VersionTracker>(
                                cluster_->mapping()),
                            ShardMap(*cluster_->routing(0).current()));
  const serve::QueryResult after = run_query(promoted, source);
  ASSERT_EQ(after.status, serve::QueryStatus::kOk);
  EXPECT_EQ(after.num_pushes, before.num_pushes);
  ASSERT_EQ(after.ppr.size(), before.ppr.size());
  for (std::size_t i = 0; i < before.ppr.size(); ++i) {
    EXPECT_EQ(after.ppr[i].first.key(), before.ppr[i].first.key());
    EXPECT_EQ(after.ppr[i].second, before.ppr[i].second);  // bit-equal
  }
}

TEST_F(ElasticClusterTest, SnapshotRoundTripIsExact) {
  const auto original = cluster_->service(1).shard_ptr(1);
  ByteWriter w;
  original->serialize(w);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  ByteReader r(bytes);
  const auto copy = GraphShard::deserialize(r);
  ASSERT_EQ(copy->shard_id(), original->shard_id());
  ASSERT_EQ(copy->num_core_nodes(), original->num_core_nodes());
  for (NodeId l = 0; l < original->num_core_nodes(); ++l) {
    const VertexProp a = original->vertex_prop(l);
    const VertexProp b = copy->vertex_prop(l);
    ASSERT_EQ(a.degree(), b.degree());
    EXPECT_EQ(a.weighted_degree, b.weighted_degree);
    for (std::size_t k = 0; k < a.degree(); ++k) {
      EXPECT_EQ(a.nbr_local_ids[k], b.nbr_local_ids[k]);
      EXPECT_EQ(a.nbr_shard_ids[k], b.nbr_shard_ids[k]);
      EXPECT_EQ(a.edge_weights[k], b.edge_weights[k]);
    }
  }
}

}  // namespace
}  // namespace ppr
