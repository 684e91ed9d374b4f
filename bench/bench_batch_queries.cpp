// Multi-query batching sweep: throughput and remote traffic of the PPR
// Engine as the per-process query batch size grows. Each batch-size point
// gets a FRESH cluster (cold adjacency cache) so the points are
// comparable; within a point the cache warms up as the run proceeds.
//
// Expected shape: QPS grows with the batch size (one coalesced RPC per
// shard per lockstep round instead of one per query) and every remote
// counter — calls, fetched nodes, wire bytes — strictly shrinks.
//
// Flags: --nodes N --edges M --machines K --procs P --queries Q
//        --cache-rows R (0 disables the adjacency cache)
//        --eps E --batches 1,2,4,8,16
//        --codecs flat,varint (wire-codec ablation: each batch point runs
//        once per codec; identical results, different bytes on the wire)
//        --kernel sparse|dense --force-scalar (push-kernel ablation;
//        results are bit-identical across kernels)
#include "bench_common.hpp"

#include "graph/generators.hpp"

using namespace ppr;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  bench::ObsExport obs_export(args);
  const auto nodes = static_cast<NodeId>(args.get_int("nodes", 20000));
  const auto edges = static_cast<EdgeIndex>(args.get_int("edges", 100000));
  const int machines = static_cast<int>(args.get_int("machines", 4));
  const int procs = static_cast<int>(args.get_int("procs", 1));
  const int queries = static_cast<int>(args.get_int("queries", 16));
  const auto cache_rows =
      static_cast<std::size_t>(args.get_int("cache-rows", 1 << 16));
  const double eps = args.get_double("eps", 1e-5);
  bench::apply_rpc_cost_model(args);

  std::vector<int> batch_sizes;
  {
    std::stringstream ss(args.get_string("batches", "1,2,4,8,16"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) batch_sizes.push_back(std::stoi(item));
    }
  }
  std::vector<WireCodec> codecs;
  {
    std::stringstream ss(args.get_string("codecs", "flat"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item == "flat") codecs.push_back(WireCodec::kFlat);
      else if (item == "varint") codecs.push_back(WireCodec::kDeltaVarint);
      else if (!item.empty()) {
        std::fprintf(stderr, "unknown codec '%s' (want flat|varint)\n",
                     item.c_str());
        return 1;
      }
    }
  }

  const Graph g = generate_rmat(nodes, edges, 0.5, 0.2, 0.2, 99);
  const PartitionAssignment assignment = partition_multilevel(g, machines);

  bench::print_header("Multi-query batching: QPS and remote traffic vs "
                      "query_batch_size (fresh cluster per point)");
  std::printf("graph: rmat |V|=%lld |E|=%lld, %d machines x %d procs, "
              "%d queries/machine, eps=%g, cache_rows=%zu\n\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()), machines, procs,
              queries, eps, cache_rows);

  double base_qps = 0;
  for (const int b : batch_sizes) {
    for (const WireCodec codec : codecs) {
      Cluster cluster(g, assignment,
                      ClusterOptions{.num_machines = machines,
                                     .network = bench::bench_network(),
                                     .adjacency_cache_rows = cache_rows});
      WorkloadOptions w;
      w.procs_per_machine = procs;
      w.queries_per_machine = queries;
      w.query_batch_size = b;
      // One cold measured run so the traffic counters describe exactly the
      // work reported (reset_stats runs right before the measured pass).
      w.warmup_runs = 0;
      w.measured_runs = 1;
      w.ppr.alpha = 0.462;
      w.ppr.epsilon = eps;
      if (!bench::apply_kernel_options(args, w.ppr)) return 1;
      w.driver = DriverOptions::overlapped();
      w.driver.codec = codec;

      const ThroughputResult r = measure_engine_throughput(cluster, w);
      if (base_qps == 0) base_qps = r.queries_per_second;
      std::printf(
          "{\"batch_size\": %d, \"codec\": \"%s\", \"kernel\": \"%s\", "
          "\"simd\": \"%s\", \"qps\": %.2f, "
          "\"speedup_vs_1\": %.2f, "
          "\"seconds\": %.4f, \"total_pushes\": %zu, "
          "\"remote_calls\": %llu, \"remote_nodes\": %llu, "
          "\"remote_bytes\": %llu, \"adj_cache_hits\": %llu, "
          "\"adj_cache_misses\": %llu}\n",
          b, wire_codec_name(codec), kernel_name(w.ppr.kernel),
          simd::level_name(simd::active_level()), r.queries_per_second,
          r.queries_per_second / base_qps, r.seconds_per_run, r.total_pushes,
          static_cast<unsigned long long>(cluster.total_remote_calls()),
          static_cast<unsigned long long>(cluster.total_remote_nodes()),
          static_cast<unsigned long long>(cluster.total_remote_bytes()),
          static_cast<unsigned long long>(
              cluster.total_adjacency_cache_hits()),
          static_cast<unsigned long long>(
              cluster.total_adjacency_cache_misses()));
    }
  }
  return 0;
}
