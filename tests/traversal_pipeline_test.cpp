// Equality matrix for the traversal operators now riding the shared fetch
// pipeline: BFS, random walk and k-hop sampling must produce identical
// results under every combination of {halo cache, adjacency cache,
// compress, overlap}, and the caches must demonstrably cut wire traffic
// on repeated frontiers. Also covers the byte crediting of the single-row
// and pipeline reads.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/cluster.hpp"
#include "graph/generators.hpp"
#include "ppr/bfs.hpp"
#include "ppr/khop_sampler.hpp"
#include "ppr/random_walk.hpp"
#include "khop_reference.hpp"

namespace ppr {
namespace {

struct Config {
  const char* name;
  bool halo;
  std::size_t adj_rows;
  bool compress;
  bool overlap;
  WireCodec codec = WireCodec::kFlat;
};

constexpr Config kMatrix[] = {
    {"baseline", false, 0, true, true},
    {"halo", true, 0, true, true},
    {"adjacency", false, 8192, true, true},
    {"uncompressed", false, 0, false, true},
    {"no-overlap", false, 0, true, false},
    {"everything", true, 8192, true, true},
    {"everything-raw-sync", true, 8192, false, false},
    {"varint", false, 0, true, true, WireCodec::kDeltaVarint},
    {"varint-everything", true, 8192, true, true, WireCodec::kDeltaVarint},
};

class TraversalPipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(600, 2800, 0.5, 0.2, 0.2, 71);
    part_ = partition_multilevel(graph_, 3);
  }

  std::unique_ptr<Cluster> make_cluster(const Config& c) {
    ClusterOptions opts;
    opts.num_machines = 3;
    opts.network = no_network_cost();
    opts.cache_halo_adjacency = c.halo;
    opts.adjacency_cache_rows = c.adj_rows;
    return std::make_unique<Cluster>(graph_, part_, opts);
  }

  /// The first `n` core locals of `shard`.
  static std::vector<NodeId> first_locals(const Cluster& cluster,
                                          ShardId shard, NodeId n) {
    std::vector<NodeId> out;
    for (NodeId l = 0; l < std::min(n, cluster.shard(shard).num_core_nodes());
         ++l) {
      out.push_back(l);
    }
    return out;
  }

  Graph graph_;
  PartitionAssignment part_;
};

/// Canonical form of a BFS result for comparison across runs.
std::vector<std::pair<std::uint64_t, int>> canon(const BfsResult& res) {
  std::vector<std::pair<std::uint64_t, int>> out;
  out.reserve(res.distances.size());
  for (const auto& [node, d] : res.distances) out.emplace_back(node.key(), d);
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(TraversalPipelineFixture, BfsIdenticalUnderEveryCacheConfig) {
  const NodeId source_global = 3;
  std::vector<std::pair<std::uint64_t, int>> reference;
  std::size_t ref_levels = 0;
  for (const Config& c : kMatrix) {
    const auto cluster = make_cluster(c);
    const NodeRef s = cluster->locate(source_global);
    const NodeId locals[] = {s.local};
    BfsOptions opts;
    opts.compress = c.compress;
    opts.overlap = c.overlap;
    opts.codec = c.codec;
    const BfsResult res =
        distributed_bfs(cluster->storage(s.shard), locals, opts);
    // Run twice on the same cluster: a warm adjacency cache must not
    // change the result either.
    const BfsResult warm =
        distributed_bfs(cluster->storage(s.shard), locals, opts);
    const auto got = canon(res);
    EXPECT_EQ(got, canon(warm)) << "warm-cache drift under " << c.name;
    if (reference.empty()) {
      reference = got;
      ref_levels = res.num_levels;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(got, reference) << "BFS drift under config " << c.name;
      EXPECT_EQ(res.num_levels, ref_levels) << c.name;
    }
  }
}

TEST_F(TraversalPipelineFixture, RandomWalkIdenticalUnderEveryCacheConfig) {
  std::vector<NodeId> reference;
  for (const Config& c : kMatrix) {
    const auto cluster = make_cluster(c);
    const GraphShard& shard = cluster->shard(0);
    std::vector<NodeId> roots;
    for (NodeId l = 0; l < std::min<NodeId>(25, shard.num_core_nodes()); ++l) {
      roots.push_back(l);
    }
    RandomWalkOptions opts;
    opts.walk_length = 9;
    opts.seed = 13;
    opts.compress = c.compress;
    opts.overlap = c.overlap;
    opts.codec = c.codec;
    const RandomWalkResult res =
        distributed_random_walk(cluster->storage(0), roots, opts);
    const RandomWalkResult warm =
        distributed_random_walk(cluster->storage(0), roots, opts);
    EXPECT_EQ(res.walks, warm.walks) << "warm-cache drift under " << c.name;
    if (reference.empty()) {
      reference = res.walks;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(res.walks, reference) << "walk drift under config " << c.name;
    }
  }
}

TEST_F(TraversalPipelineFixture, KHopIdenticalUnderEveryCacheConfig) {
  std::vector<std::vector<std::uint64_t>> ref_levels;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ref_edges;
  for (const Config& c : kMatrix) {
    const auto cluster = make_cluster(c);
    KHopOptions opts;
    opts.fanouts = {4, 4, 2};
    opts.seed = 11;
    const std::vector<NodeId> roots = first_locals(*cluster, 0, 20);
    const KHopResult cold = sample_khop(cluster->storage(0), roots, opts);
    const KHopResult warm = sample_khop(cluster->storage(0), roots, opts);
    EXPECT_EQ(khop_edges(cold), khop_edges(warm))
        << "warm-cache drift under " << c.name;
    EXPECT_EQ(khop_levels(cold), khop_levels(warm)) << c.name;
    if (ref_edges.empty()) {
      ref_levels = khop_levels(cold);
      ref_edges = khop_edges(cold);
      ASSERT_FALSE(ref_edges.empty());
    } else {
      EXPECT_EQ(khop_levels(cold), ref_levels) << "k-hop drift under " << c.name;
      EXPECT_EQ(khop_edges(cold), ref_edges) << "k-hop drift under " << c.name;
    }
  }
}

TEST_F(TraversalPipelineFixture, KHopWireRowsDropWithEitherCache) {
  // Rows a k-hop sample fetched once are served by the adjacency cache on
  // the next call, and a two-level sample rooted on the own shard reads
  // only rows of the own shard and its 1-hop halo.
  const auto wire_rows = [&](bool halo, std::size_t adj_rows) {
    const auto cluster = make_cluster(Config{"", halo, adj_rows, true, true});
    KHopOptions opts;
    opts.fanouts = {4, 4};
    opts.seed = 11;
    const std::vector<NodeId> roots = first_locals(*cluster, 0, 20);
    std::pair<std::uint64_t, std::uint64_t> cold_warm;
    cluster->reset_stats();
    (void)sample_khop(cluster->storage(0), roots, opts);
    cold_warm.first = cluster->storage(0).stats().remote_nodes.load();
    cluster->reset_stats();
    (void)sample_khop(cluster->storage(0), roots, opts);
    cold_warm.second = cluster->storage(0).stats().remote_nodes.load();
    return cold_warm;
  };
  const auto none = wire_rows(false, 0);
  const auto halo = wire_rows(true, 0);
  const auto adjacency = wire_rows(false, 1 << 16);
  const auto both = wire_rows(true, 1 << 16);
  ASSERT_GT(none.first, 0u) << "the sample must cross shards to bite";
  EXPECT_EQ(none.second, none.first);
  EXPECT_EQ(halo.first, 0u);
  EXPECT_EQ(halo.second, 0u);
  EXPECT_EQ(adjacency.first, none.first);
  EXPECT_EQ(adjacency.second, 0u);
  EXPECT_EQ(both.second, 0u);
}

TEST_F(TraversalPipelineFixture, BatchedWalkMatchesUnbatchedBaseline) {
  // Both modes pick every walker's step from the same row with the same
  // per-walker RNG stream (the unbatched walk reads that row alone), so
  // the trajectories agree bit-for-bit.
  const auto cluster = make_cluster(kMatrix[0]);
  const GraphShard& shard = cluster->shard(1);
  std::vector<NodeId> roots;
  for (NodeId l = 0; l < std::min<NodeId>(15, shard.num_core_nodes()); ++l) {
    roots.push_back(l);
  }
  RandomWalkOptions batched;
  batched.walk_length = 7;
  batched.seed = 29;
  RandomWalkOptions unbatched = batched;
  unbatched.batch = false;
  const RandomWalkResult a =
      distributed_random_walk(cluster->storage(1), roots, batched);
  const RandomWalkResult b =
      distributed_random_walk(cluster->storage(1), roots, unbatched);
  EXPECT_EQ(a.walks, b.walks);
}

TEST_F(TraversalPipelineFixture,
       RepeatedFrontierBfsFetchesStrictlyLessWithAdjacencyCache) {
  const NodeId source_global = 3;

  const auto count_second_run = [&](std::size_t adj_rows) {
    Config c{"", false, adj_rows, true, true};
    const auto cluster = make_cluster(c);
    const NodeRef s = cluster->locate(source_global);
    const NodeId locals[] = {s.local};
    (void)distributed_bfs(cluster->storage(s.shard), locals);  // warm
    cluster->reset_stats();
    (void)distributed_bfs(cluster->storage(s.shard), locals);  // measure
    return cluster->storage(s.shard).stats().remote_nodes.load();
  };

  const std::uint64_t without = count_second_run(0);
  const std::uint64_t with = count_second_run(1 << 16);
  ASSERT_GT(without, 0u) << "BFS must cross shards for this test to bite";
  EXPECT_LT(with, without)
      << "a warm adjacency cache must cut wire-fetched rows";
}

TEST_F(TraversalPipelineFixture, WalkCachesCutWireTrafficToo) {
  Config c{"", false, 1 << 16, true, true};
  const auto cluster = make_cluster(c);
  std::vector<NodeId> roots;
  for (NodeId l = 0; l < std::min<NodeId>(20, cluster->shard(0).num_core_nodes());
       ++l) {
    roots.push_back(l);
  }
  RandomWalkOptions opts;
  opts.walk_length = 10;
  opts.seed = 3;
  cluster->reset_stats();
  (void)distributed_random_walk(cluster->storage(0), roots, opts);
  const std::uint64_t cold = cluster->storage(0).stats().remote_nodes.load();
  cluster->reset_stats();
  (void)distributed_random_walk(cluster->storage(0), roots, opts);
  const std::uint64_t warm = cluster->storage(0).stats().remote_nodes.load();
  ASSERT_GT(cold, 0u) << "walks must cross shards for this test to bite";
  EXPECT_LT(warm, cold);
}

TEST_F(TraversalPipelineFixture, SingleRowAndPipelineReadsCreditBytes) {
  // The unbatched walk's single-row fetches and the k-hop sampler's
  // pipeline RPCs account their request/response payloads.
  const auto cluster = make_cluster(kMatrix[0]);
  std::vector<NodeId> roots;
  for (NodeId l = 0; l < std::min<NodeId>(25, cluster->shard(0).num_core_nodes());
       ++l) {
    roots.push_back(l);
  }

  RandomWalkOptions opts;
  opts.walk_length = 10;
  opts.batch = false;
  cluster->reset_stats();
  (void)distributed_random_walk(cluster->storage(0), roots, opts);
  const FetchStats& walk_stats = cluster->storage(0).stats();
  ASSERT_GT(walk_stats.remote_calls.load(), 0u);
  EXPECT_GT(walk_stats.remote_request_bytes.load(), 0u);
  EXPECT_GT(walk_stats.remote_response_bytes.load(), 0u);

  cluster->reset_stats();
  KHopOptions khop;
  khop.fanouts = {4, 4};
  khop.seed = 11;
  (void)sample_khop(cluster->storage(0), roots, khop);
  const FetchStats& khop_stats = cluster->storage(0).stats();
  ASSERT_GT(khop_stats.remote_calls.load(), 0u);
  EXPECT_GT(khop_stats.remote_request_bytes.load(), 0u);
  EXPECT_GT(khop_stats.remote_response_bytes.load(), 0u);
}

}  // namespace
}  // namespace ppr
