// Figure 5(b): inter-SSPPR parallelization — scaling with the number of
// computing processes per machine on a 2-machine cluster.
//   strong scaling: 128 queries total, procs/machine in {1,2,4,8}
//   weak scaling:   128 queries per process
//
// Two modes:
//   default           the in-process simulated cluster (threads as
//                     computing processes, in-process transport);
//   --real-processes  fork 2 real graph_engine_node processes per point
//                     (localhost TCP mesh, --executors=procs) and drive
//                     them through a mesh-member ClusterClient. Same
//                     tables, same --metrics-json/--trace-json schema.
//
// Paper shape: 4.8-5.5x strong / 6.4-7.8x weak speedup at 8 processes on
// a 128-core box. NOTE: this container exposes a single CPU core, so
// speedup here comes only from overlapping RPC waits across processes;
// expect the same ordering (weak >= strong > 1 until the core saturates)
// with smaller factors.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>

#include "bench_common.hpp"
#include "cluster/client.hpp"
#include "cluster/config.hpp"

#ifndef GE_NODE_BIN
#define GE_NODE_BIN "graph_engine_node"
#endif

using namespace ppr;

namespace {

// A booted 2-node real cluster plus the client driving it.
struct RealCluster {
  std::vector<pid_t> pids;
  std::unique_ptr<cluster::ClusterClient> client;

  ~RealCluster() {
    try {
      if (client != nullptr) {
        client->shutdown_cluster();
        client->leave();
      }
    } catch (const std::exception& e) {
      // Never throw out of the destructor (we may already be unwinding);
      // the nodes still get SIGTERM'd below if the polite path failed.
      std::fprintf(stderr, "warning: cluster shutdown failed: %s\n",
                   e.what());
      for (const pid_t pid : pids) ::kill(pid, SIGTERM);
    }
    client.reset();
    for (const pid_t pid : pids) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "warning: node process %d exited abnormally\n",
                     static_cast<int>(pid));
      }
    }
  }
};

pid_t spawn_node(const std::string& node_bin, const std::string& config_path,
                 int node_id, int executors) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const std::string config_arg = "--config=" + config_path;
    const std::string node_arg = "--node=" + std::to_string(node_id);
    const std::string exec_arg = "--executors=" + std::to_string(executors);
    ::execl(node_bin.c_str(), "graph_engine_node", config_arg.c_str(),
            node_arg.c_str(), exec_arg.c_str(),
            static_cast<char*>(nullptr));
    std::perror("execl graph_engine_node");
    ::_exit(127);
  }
  return pid;
}

// Boots 2 storage nodes (executors each) + a mesh-member client; retries
// fresh ports on collision.
std::unique_ptr<RealCluster> boot_real_cluster(const std::string& node_bin,
                                               const std::string& name,
                                               double s, double eps,
                                               int executors) {
  // The forked nodes read both the config and the dataset cache by path,
  // so the cache dir must exist up front and the paths must not depend on
  // anyone's working directory.
  const std::string cache_dir = std::filesystem::absolute(
      default_cache_dir()).string();
  std::filesystem::create_directories(cache_dir);
  std::mt19937 rng(static_cast<unsigned>(::getpid()) + executors * 131u);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const int base = 22000 + static_cast<int>(rng() % 30000);
    std::string text;
    text += "cluster_name = fig5b\n";
    text += "dataset = " + name + "\n";
    text += "scale = " + std::to_string(s) + "\n";
    // Hash partition boots in O(n) on every node; the multilevel cache
    // would work too (atomic cache writes), this just keeps boots fast.
    text += "partition = hash\n";
    text += "cache_dir = " + cache_dir + "\n";
    text += "server_threads = 2\n";
    text += "query_threads = " + std::to_string(2 * executors) + "\n";
    text += "ppr_epsilon = " + std::to_string(eps) + "\n";
    text += "node 0 127.0.0.1 " + std::to_string(base) + " storage\n";
    text += "node 1 127.0.0.1 " + std::to_string(base + 1) + " storage\n";
    text += "node 2 127.0.0.1 " + std::to_string(base + 2) + " client\n";
    const std::string config_path = cache_dir + "/fig5b_cluster.conf";
    std::ofstream(config_path) << text;
    const ClusterConfig config =
        ClusterConfig::parse_string(text, config_path);

    auto real = std::make_unique<RealCluster>();
    for (int i = 0; i < 2; ++i) {
      real->pids.push_back(spawn_node(node_bin, config_path, i, executors));
    }
    try {
      TcpTransportOptions net;
      net.connect_timeout_s = 120.0;  // covers first-boot graph generation
      real->client =
          std::make_unique<cluster::ClusterClient>(config, 2, net);
      return real;
    } catch (const EngineError& e) {
      std::fprintf(stderr, "boot attempt %d failed: %s\n", attempt,
                   e.what());
      for (const pid_t pid : real->pids) ::kill(pid, SIGKILL);
      for (const pid_t pid : real->pids) ::waitpid(pid, nullptr, 0);
      real->pids.clear();
    }
  }
  throw RpcError("real cluster never booted (port collisions?)");
}

// Issues `total` SSPPR queries from `submitters` concurrent threads and
// returns the wall time of the whole batch.
double drive_queries(cluster::ClusterClient& client, int total,
                     int submitters, std::uint64_t seed) {
  std::vector<NodeId> sources(static_cast<std::size_t>(total));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> pick(0,
                                             client.num_graph_nodes() - 1);
  for (NodeId& src : sources) src = pick(rng);

  std::atomic<int> next{0};
  std::atomic<int> rejected{0};
  std::atomic<int> failed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&] {
      for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        try {
          const auto reply =
              client.ssppr(sources[static_cast<std::size_t>(i)]);
          if (reply.status != 0) rejected.fetch_add(1);
        } catch (const std::exception& e) {
          // A failed query must not take the whole benchmark down with
          // an uncaught exception on a submitter thread.
          if (failed.fetch_add(1) == 0) {
            std::fprintf(stderr, "warning: query failed: %s\n", e.what());
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  if (rejected.load() > 0 || failed.load() > 0) {
    std::fprintf(stderr, "warning: %d/%d queries rejected, %d failed\n",
                 rejected.load(), total, failed.load());
  }
  return dt.count();
}

struct RealPoint {
  double strong_seconds = 0;
  double weak_seconds = 0;
  int weak_total = 0;
};

int run_real_processes(const ArgParser& args) {
  const double s = bench::scale(args);
  const bool quick = args.get_bool("quick", false);
  const int machines = 2;
  const int strong_total =
      static_cast<int>(args.get_int("strong-queries", quick ? 32 : 128));
  const int weak_per_proc =
      static_cast<int>(args.get_int("weak-queries", quick ? 16 : 64));
  const double eps = args.get_double("eps", 1e-5);
  const std::string node_bin = args.get_string("node-bin", GE_NODE_BIN);

  for (const std::string& name : bench::dataset_names(args)) {
    std::vector<std::pair<int, RealPoint>> points;
    for (const int procs : {1, 2, 4, 8}) {
      auto real = boot_real_cluster(node_bin, name, s, eps, procs);
      RealPoint p;
      const int submitters = procs * machines;
      if (!quick) {  // warmup
        drive_queries(*real->client, strong_total / 2, submitters, 3);
      }
      p.strong_seconds =
          drive_queries(*real->client, strong_total, submitters, 7);
      p.weak_total = weak_per_proc * procs * machines;
      p.weak_seconds =
          drive_queries(*real->client, p.weak_total, submitters, 11);
      points.emplace_back(procs, p);
    }

    bench::print_header("Figure 5(b) strong scaling on " + name +
                        " [real processes] (" +
                        std::to_string(strong_total) + " queries total)");
    std::printf("%6s %12s %14s %10s\n", "procs", "time(s)", "throughput",
                "speedup");
    const double base_strong = points.front().second.strong_seconds;
    for (const auto& [procs, p] : points) {
      std::printf("%6d %12.3f %11.1f/s %9.2fx\n", procs, p.strong_seconds,
                  strong_total / p.strong_seconds,
                  base_strong / p.strong_seconds);
    }

    bench::print_header("Figure 5(b) weak scaling on " + name +
                        " [real processes] (" +
                        std::to_string(weak_per_proc) +
                        " queries per process)");
    std::printf("%6s %12s %14s %12s\n", "procs", "time(s)", "throughput",
                "efficiency");
    const double base_qps =
        points.front().second.weak_total /
        points.front().second.weak_seconds;
    for (const auto& [procs, p] : points) {
      const double qps = p.weak_total / p.weak_seconds;
      std::printf("%6d %12.3f %11.1f/s %11.1f%%\n", procs, p.weak_seconds,
                  qps, 100.0 * qps / (base_qps * procs));
    }
  }
  std::printf(
      "\nreal-process mode: 2 graph_engine_node processes over localhost "
      "TCP, --executors=procs each.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  bench::ObsExport obs_export(args);
  if (args.get_bool("real-processes", false)) {
    return run_real_processes(args);
  }
  const double s = bench::scale(args);
  const bool quick = args.get_bool("quick", false);
  const int machines = 2;
  const int strong_total =
      static_cast<int>(args.get_int("strong-queries", quick ? 32 : 128));
  const int weak_per_proc =
      static_cast<int>(args.get_int("weak-queries", quick ? 16 : 64));
  // See bench_fig5a_machines.cpp: eps normalized for the scaled graphs.
  const double eps = args.get_double("eps", 1e-5);

  bench::apply_rpc_cost_model(args);

  for (const std::string& name : bench::dataset_names(args)) {
    const Graph g = bench::dataset(name, s);
    auto cluster = bench::make_cluster(g, name, s, machines);

    bench::print_header("Figure 5(b) strong scaling on " + name + " (" +
                        std::to_string(strong_total) + " queries total)");
    std::printf("%6s %12s %14s %10s\n", "procs", "time(s)", "throughput",
                "speedup");
    double base_time = 0;
    for (const int procs : {1, 2, 4, 8}) {
      WorkloadOptions w;
      w.procs_per_machine = procs;
      w.queries_per_machine = strong_total / machines;
      w.warmup_runs = quick ? 0 : 1;
      w.measured_runs = quick ? 1 : 2;
      w.ppr.alpha = 0.462;
      w.ppr.epsilon = eps;
      const ThroughputResult r = measure_engine_throughput(*cluster, w);
      if (procs == 1) base_time = r.seconds_per_run;
      std::printf("%6d %12.3f %11.1f/s %9.2fx\n", procs, r.seconds_per_run,
                  r.queries_per_second, base_time / r.seconds_per_run);
    }

    bench::print_header("Figure 5(b) weak scaling on " + name + " (" +
                        std::to_string(weak_per_proc) +
                        " queries per process)");
    std::printf("%6s %12s %14s %12s\n", "procs", "time(s)", "throughput",
                "efficiency");
    double base_qps = 0;
    for (const int procs : {1, 2, 4, 8}) {
      WorkloadOptions w;
      w.procs_per_machine = procs;
      w.queries_per_machine = weak_per_proc * procs;
      w.warmup_runs = quick ? 0 : 1;
      w.measured_runs = quick ? 1 : 2;
      w.ppr.alpha = 0.462;
      w.ppr.epsilon = eps;
      const ThroughputResult r = measure_engine_throughput(*cluster, w);
      if (procs == 1) base_qps = r.queries_per_second;
      std::printf("%6d %12.3f %11.1f/s %11.1f%%\n", procs, r.seconds_per_run,
                  r.queries_per_second,
                  100.0 * r.queries_per_second / (base_qps * procs));
    }
  }
  std::printf(
      "\npaper: 4.8-5.5x strong / 6.4-7.8x weak speedup at 8 processes "
      "(128-core machine; this harness has %u hardware threads).\n",
      std::thread::hardware_concurrency());
  return 0;
}
