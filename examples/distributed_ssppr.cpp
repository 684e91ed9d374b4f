// The paper's Figure-4 SSPPR loop, written explicitly against the public
// storage + PPR-operator API (rather than through the packaged driver),
// followed by a batched-throughput measurement.
//
//   ./distributed_ssppr [--machines 4] [--queries 32] [--procs 2]
#include <cstdio>

#include "common/argparse.hpp"
#include "engine/throughput.hpp"
#include "graph/generators.hpp"

using namespace ppr;

/// Figure 4 (left panel), line by line: pop the activated set, mask it by
/// destination shard, fetch remote neighborhoods asynchronously while the
/// local portion is fetched and pushed, then push each response.
SspprState figure4_ssppr(const DistGraphStorage& g, NodeRef source,
                         double alpha, double epsilon) {
  SspprState m(source, SspprOptions{.alpha = alpha, .epsilon = epsilon});
  const int num_shards = g.num_shards();
  std::vector<NodeId> node_ids;
  std::vector<ShardId> shard_ids;
  // One graph version for the whole query: the own shard reads through a
  // snapshot pinned at it, remote fetches carry it on the wire.
  const auto snap =
      g.local_store().snapshot(g.version_tracker().published());
  const FetchOptions fetch{.graph_version = snap->version()};

  while (true) {
    m.pop(node_ids, shard_ids);
    if (node_ids.empty()) break;

    // mask_dict = {j: shard_ids == j for j in range(NUM_SHARDS)}
    std::vector<std::vector<NodeId>> mask(num_shards);
    for (std::size_t i = 0; i < node_ids.size(); ++i) {
      mask[shard_ids[i]].push_back(node_ids[i]);
    }

    // futs[j] = g.get_neighbor_infos(j, node_ids[mask]) for remote shards.
    std::vector<NeighborFetch> futs(num_shards);
    for (ShardId j = 0; j < num_shards; ++j) {
      if (j == g.shard_id() || mask[j].empty()) continue;
      futs[j] = g.get_neighbor_infos_async(j, mask[j], fetch);
    }

    // Local portion through shared memory, pushed while futures fly.
    if (!mask[g.shard_id()].empty()) {
      snap->reset_scratch();
      const auto infos = snap->get_neighbor_infos(mask[g.shard_id()]);
      const std::vector<ShardId> shards(mask[g.shard_id()].size(),
                                        g.shard_id());
      m.push(infos, mask[g.shard_id()], shards);
    }
    // infos = futs[j].wait(); m.push(infos, ...)
    for (ShardId j = 0; j < num_shards; ++j) {
      if (!futs[j].valid()) continue;
      const NeighborBatch infos = futs[j].wait();
      const std::vector<ShardId> shards(mask[j].size(), j);
      m.push(infos, mask[j], shards);
    }
  }
  return m;
}

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const int machines = static_cast<int>(args.get_int("machines", 4));
  const int queries = static_cast<int>(args.get_int("queries", 32));
  const int procs = static_cast<int>(args.get_int("procs", 2));

  const Graph graph = generate_rmat(20000, 400000, 0.5, 0.2, 0.2, 7);
  const PartitionAssignment assignment =
      partition_multilevel(graph, machines);
  ClusterOptions copts;
  copts.num_machines = machines;
  Cluster cluster(graph, assignment, copts);
  std::printf("cluster: %d machines, %d nodes, %lld edges\n", machines,
              graph.num_nodes(), static_cast<long long>(graph.num_edges()));

  // One query through the hand-written Figure-4 loop.
  const NodeRef source = cluster.locate(1);
  SspprState state =
      figure4_ssppr(cluster.storage(source.shard), source, 0.462, 1e-6);
  std::printf("figure-4 loop: %zu non-zero PPR entries, %zu pushes\n",
              state.ppr_entries().size(), state.num_pushes());

  // Batched throughput through the packaged harness.
  WorkloadOptions w;
  w.procs_per_machine = procs;
  w.queries_per_machine = queries;
  w.warmup_runs = 1;
  w.measured_runs = 3;
  const ThroughputResult r = measure_engine_throughput(cluster, w);
  std::printf(
      "throughput: %.1f queries/s (%llu queries in %.3fs, remote ratio "
      "%.1f%%)\n",
      r.queries_per_second, static_cast<unsigned long long>(r.total_queries),
      r.seconds_per_run, 100.0 * r.remote_ratio);
  return 0;
}
