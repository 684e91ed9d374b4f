// Micro-benchmarks (google-benchmark) of the engine's core operators,
// isolating the design choices DESIGN.md calls out:
//   * hashmap push vs dense-tensor push (the Table-2 mechanism)
//   * CSR-compressed vs tensor-list response serialization (the
//     +Compress mechanism)
//   * sharded-map locked upsert vs lock-free partitioned bulk apply
//   * activated-set retrieval: set drain vs dense scan (the pop cost)
//   * pinned reads of a mutated shard vs its pending delta segments
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "common/rng.hpp"
#include "concurrent/sharded_map.hpp"
#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "ppr/tensor_push.hpp"

namespace ppr {
namespace {

/// Graphs of several sizes with a FIXED average degree: the per-query
/// touched set stays roughly constant, so any cost growth with |V| is
/// the dense-state overhead the paper identifies. (The hashmap engine
/// should be ~flat across sizes; the dense version should grow linearly,
/// crossing over as |V| grows.)
const Graph& bench_graph(std::int64_t num_nodes) {
  static std::map<std::int64_t, Graph> graphs;
  auto it = graphs.find(num_nodes);
  if (it == graphs.end()) {
    it = graphs
             .emplace(num_nodes,
                      generate_rmat(static_cast<NodeId>(num_nodes),
                                    num_nodes * 15, 0.5, 0.2, 0.2, 7))
             .first;
  }
  return it->second;
}

const ShardedGraph& bench_shards(std::int64_t num_nodes) {
  static std::map<std::int64_t, ShardedGraph> shards;
  auto it = shards.find(num_nodes);
  if (it == shards.end()) {
    const Graph& g = bench_graph(num_nodes);
    it = shards
             .emplace(num_nodes,
                      build_sharded_graph(
                          g,
                          PartitionAssignment(
                              static_cast<std::size_t>(g.num_nodes()), 0),
                          1))
             .first;
  }
  return it->second;
}

/// One full SSPPR query with the hashmap state, local data only.
void BM_HashMapSspprQuery(benchmark::State& state) {
  const auto& shard = *bench_shards(state.range(0)).shards[0];
  const double eps = 1e-5;
  for (auto _ : state) {
    SspprState s(NodeRef{3, 0}, SspprOptions{.alpha = 0.462,
                                             .epsilon = eps,
                                             .kernel = SspprKernel::kSparse});
    std::vector<NodeId> nodes;
    std::vector<ShardId> shards;
    for (;;) {
      s.pop(nodes, shards);
      if (nodes.empty()) break;
      s.push(shard.get_neighbor_infos(nodes), nodes, shards);
    }
    benchmark::DoNotOptimize(s.num_pushes());
  }
}
BENCHMARK(BM_HashMapSspprQuery)->Arg(20'000)->Arg(100'000)->Arg(400'000);

/// The same query with dense |V| state (tensor-baseline mechanism, minus
/// RPC): shows the O(|V|)-per-iteration scan cost.
void BM_DenseSspprQuery(benchmark::State& state) {
  const Graph& g = bench_graph(state.range(0));
  const auto& shard = *bench_shards(state.range(0)).shards[0];
  const double eps = 1e-5;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  for (auto _ : state) {
    std::vector<double> pi(n, 0.0), r(n, 0.0);
    r[3] = 1.0;
    std::vector<NodeId> active;
    for (;;) {
      active.clear();
      for (std::size_t v = 0; v < n; ++v) {
        if (r[v] > eps * g.weighted_degree(static_cast<NodeId>(v))) {
          active.push_back(static_cast<NodeId>(v));
        }
      }
      if (active.empty()) break;
      const auto infos = shard.get_neighbor_infos(active);
      for (std::size_t i = 0; i < active.size(); ++i) {
        const auto v = static_cast<std::size_t>(active[i]);
        const double rv = r[v];
        r[v] = 0;
        if (infos[i].degree() == 0) {
          pi[v] += rv;
          continue;
        }
        pi[v] += 0.462 * rv;
        const double m = (1 - 0.462) * rv / infos[i].weighted_degree;
        for (std::size_t k = 0; k < infos[i].degree(); ++k) {
          r[static_cast<std::size_t>(infos[i].nbr_local_ids[k])] +=
              infos[i].edge_weights[k] * m;
        }
      }
    }
    benchmark::DoNotOptimize(pi.data());
  }
}
BENCHMARK(BM_DenseSspprQuery)->Arg(20'000)->Arg(100'000)->Arg(400'000);

/// Serialization of a 256-node neighbor-info response, compressed CSR.
void BM_EncodeResponseCsr(benchmark::State& state) {
  const auto& shard = *bench_shards(20'000).shards[0];
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < 256; ++l) locals.push_back(l);
  for (auto _ : state) {
    ByteWriter w;
    shard.encode_neighbor_infos_csr(locals, w);
    ByteReader r(w.bytes());
    const NeighborBatch b = NeighborBatch::decode_csr(r);
    benchmark::DoNotOptimize(b.size());
  }
}
BENCHMARK(BM_EncodeResponseCsr);

/// Same response as a list of per-node tensors (the uncompressed format).
void BM_EncodeResponseTensorList(benchmark::State& state) {
  const auto& shard = *bench_shards(20'000).shards[0];
  std::vector<NodeId> locals;
  for (NodeId l = 0; l < 256; ++l) locals.push_back(l);
  for (auto _ : state) {
    ByteWriter w;
    shard.encode_neighbor_infos_tensor_list(locals, w);
    ByteReader r(w.bytes());
    const NeighborBatch b = NeighborBatch::decode_tensor_list(r);
    benchmark::DoNotOptimize(b.size());
  }
}
BENCHMARK(BM_EncodeResponseTensorList);

struct AddOp {
  std::uint64_t key;
  double delta;
};

std::vector<AddOp> make_ops(std::size_t n) {
  Rng rng(5);
  std::vector<AddOp> ops(n);
  for (auto& op : ops) {
    op.key = rng.next_u64(1 << 16) + 1;
    op.delta = rng.next_double();
  }
  return ops;
}

/// Locked per-op upsert.
void BM_ShardedMapLockedUpsert(benchmark::State& state) {
  const auto ops = make_ops(1 << 14);
  for (auto _ : state) {
    ShardedMap<double> map;
    for (const AddOp& op : ops) {
      map.upsert(op.key, [&](double& v) { v += op.delta; });
    }
    benchmark::DoNotOptimize(map.size());
  }
}
BENCHMARK(BM_ShardedMapLockedUpsert);

/// Lock-free submap-partitioned bulk apply (thread count from arg).
void BM_ShardedMapPartitionedApply(benchmark::State& state) {
  const auto ops = make_ops(1 << 14);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ShardedMap<double> map;
    map.apply_partitioned(std::span<const AddOp>(ops), threads,
                          [](double& v, const AddOp& op) { v += op.delta; });
    benchmark::DoNotOptimize(map.size());
  }
}
BENCHMARK(BM_ShardedMapPartitionedApply)->Arg(1)->Arg(2)->Arg(4);

/// Activated-set retrieval: drain a pre-stored key set (engine pop).
void BM_PopSetDrain(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SspprState s(NodeRef{0, 0}, SspprOptions{});
    state.ResumeTiming();
    std::vector<NodeId> nodes;
    std::vector<ShardId> shards;
    s.pop(nodes, shards);
    benchmark::DoNotOptimize(nodes.size());
  }
}
BENCHMARK(BM_PopSetDrain);

/// Activated-set retrieval: dense residual scan (tensor baseline pop).
void BM_PopDenseScan(benchmark::State& state) {
  const Graph& g = bench_graph(state.range(0));
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> r(n, 0.0);
  r[42] = 1.0;
  const auto& dw = g.weighted_degrees();
  for (auto _ : state) {
    std::vector<NodeId> active;
    for (std::size_t v = 0; v < n; ++v) {
      if (r[v] > 1e-6 * dw[v]) active.push_back(static_cast<NodeId>(v));
    }
    benchmark::DoNotOptimize(active.size());
  }
}
BENCHMARK(BM_PopDenseScan)->Arg(20'000)->Arg(400'000);

/// A 4-machine cluster on a 20k-node clustered graph (perfbench's shape)
/// whose shard 0 holds `segments` pending delta segments: 64-op batches
/// from mutation_stream are applied, never compacted, until that many
/// of them touched shard 0.
Cluster& mutated_cluster(std::int64_t segments) {
  static const Graph g = generate_clustered(20000, 20, 180000, 20000, 1.6,
                                            0x9e3779b97f4a7c15ULL + 11);
  static const PartitionAssignment assignment = partition_multilevel(g, 4);
  static std::map<std::int64_t, std::unique_ptr<Cluster>> clusters;
  auto& cluster = clusters[segments];
  if (cluster) return *cluster;
  ClusterOptions opts;
  opts.num_machines = 4;
  opts.network = no_network_cost();
  cluster = std::make_unique<Cluster>(g, assignment, opts);
  const auto stream = mutation_stream(
      g, static_cast<int>(2 * segments + 8), 64, 0.7, 7);
  std::int64_t applied = 0;
  for (const auto& batch : stream) {
    if (applied == segments) break;
    cluster->apply_edge_mutations(batch);
    for (const EdgeMutationOp& op : batch) {
      if (cluster->locate(op.u).shard == 0 ||
          cluster->locate(op.v).shard == 0) {
        ++applied;
        break;
      }
    }
  }
  GE_REQUIRE(applied == segments, "mutation stream too short");
  return *cluster;
}

/// One own-shard read of a mutated shard: pin a snapshot of shard 0 at
/// the newest version, then read 350 random core rows through
/// get_neighbor_infos (encode = 0, the fetch pipeline's own-shard path)
/// or CSR-encode 140 of them (encode = 1, the storage service's fetch
/// handler). `per_row` is the time per row read.
void BM_VersionedSnapshotRead(benchmark::State& state) {
  Cluster& cluster = mutated_cluster(state.range(0));
  const bool encode = state.range(1) != 0;
  const auto store = cluster.store(0);
  const NodeId core = cluster.shard(0).num_core_nodes();
  Rng rng(11);
  std::vector<NodeId> rows(encode ? 140 : 350);
  for (NodeId& l : rows) {
    l = static_cast<NodeId>(rng.next_u64(static_cast<std::uint64_t>(core)));
  }
  for (auto _ : state) {
    const auto snap = store->snapshot();
    if (encode) {
      ByteWriter w;
      snap->encode_neighbor_infos_csr(rows, w);
      benchmark::DoNotOptimize(w.size());
    } else {
      const auto infos = snap->get_neighbor_infos(rows);
      benchmark::DoNotOptimize(infos.data());
    }
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_VersionedSnapshotRead)
    ->ArgNames({"segments", "encode"})
    ->ArgsProduct({{0, 20, 40, 80}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ppr
