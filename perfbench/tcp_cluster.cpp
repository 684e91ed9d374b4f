// tcp_cluster — the deployed path: two graph_engine_node processes on
// localhost TCP plus this process in the config's client slot. Two
// closed-loop client threads call ClusterClient::ssppr. The only workload
// through rpc/tcp_transport, the cluster node and client, and query_wire.
//
// Closed-loop qps is clients / mean latency, so one host stall moves it;
// it is reported as the median over half-second slices of the window.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

#include "cluster/client.hpp"
#include "cluster/config.hpp"
#include "common/rng.hpp"
#include "graph/io.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using namespace ppr;

namespace {

constexpr int kStorageNodes = 2;
constexpr int kClientThreads = 2;
constexpr double kEpsilon = 1e-5;
constexpr double kSliceSeconds = 0.5;
constexpr double kWarmSeconds = 1.0;
constexpr double kClientHeadStart = 0.2;  // seconds
constexpr double kNodeStagger = 0.025;     // seconds, half the retry
constexpr std::size_t kCheckEvery = 53;  // answer-check sampling stride

/// The node processes of one boot. The destructor kills and reaps any
/// node still running, so no path out of the workload leaves one behind.
struct NodeProcesses {
  std::vector<pid_t> pids;
  std::vector<std::string> logs;

  NodeProcesses() = default;
  NodeProcesses(const NodeProcesses&) = delete;
  NodeProcesses& operator=(const NodeProcesses&) = delete;
  ~NodeProcesses() { kill_all(); }

  void kill_all() {
    for (const pid_t pid : pids) ::kill(pid, SIGKILL);
    for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
    pids.clear();
  }

  /// Wait up to `timeout_s` for every node to exit on its own; returns
  /// how many exited with a status other than 0 (killed ones included).
  int reap(double timeout_s) {
    int bad = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (const pid_t pid : pids) {
      int status = 0;
      pid_t done = 0;
      while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (done == 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        ++bad;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++bad;
      }
    }
    pids.clear();
    return bad;
  }

  void dump_logs() const {
    for (const std::string& path : logs) {
      std::ifstream in(path);
      std::string line;
      while (std::getline(in, line)) {
        std::fprintf(stderr, "  [%s] %s\n", path.c_str(), line.c_str());
      }
    }
  }
};

pid_t spawn_node(const std::string& bin, const std::string& config_path,
                 int node, const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const std::string config_arg = "--config=" + config_path;
  const std::string node_arg = "--node=" + std::to_string(node);
  std::vector<char*> argv = {const_cast<char*>("graph_engine_node"),
                             const_cast<char*>(config_arg.c_str()),
                             const_cast<char*>(node_arg.c_str()), nullptr};
  pid_t pid = 0;
  const int rc =
      ::posix_spawn(&pid, bin.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn " + bin);
  return pid;
}

struct Boot {
  ClusterConfig config;
  NodeProcesses nodes;
  std::unique_ptr<cluster::ClusterClient> client;
  double seconds = 0;  // spawn until the client passed the barrier
};

std::string config_text(const std::string& graph_path, int base_port) {
  std::string t;
  t += "cluster_name = perfbench\n";
  t += "graph = " + graph_path + "\n";
  t += "partition = hash\n";
  t += "server_threads = 1\nquery_threads = 2\nexecutors = 1\n";
  char eps[32];
  std::snprintf(eps, sizeof(eps), "%g", kEpsilon);
  t += std::string("ppr_epsilon = ") + eps + "\n";
  for (int i = 0; i < kStorageNodes; ++i) {
    t += "node " + std::to_string(i) + " 127.0.0.1 " +
         std::to_string(base_port + i) + " storage\n";
  }
  t += "node " + std::to_string(kStorageNodes) + " 127.0.0.1 " +
       std::to_string(base_port + kStorageNodes) + " client\n";
  return t;
}

/// Join as the client, then spawn the nodes; a port taken between choice
/// and bind fails the boot, so it is retried on fresh ports.
///
/// A node dials every peer as soon as it listens, and a dial to a peer not
/// yet listening retries only every 50 ms. Started together, the nodes hit
/// that retry once or twice at random, which made boot time bimodal. So
/// the client gets a head start (it listens before any node dials it) and
/// the nodes start half a retry interval apart: the first node's dial to
/// the second retries exactly once, and the second finds everyone up.
std::unique_ptr<Boot> boot_cluster(const RunOptions& opts,
                                   const std::string& graph_path,
                                   std::mt19937& ports) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    auto boot = std::make_unique<Boot>();
    // Below Linux's default ephemeral range (32768 and up): a port an
    // outgoing connection holds fails the node's bind, and the client
    // then waits out its connect timeout.
    const int base = 20000 + static_cast<int>(ports() % 12000);
    const std::string text = config_text(graph_path, base);
    const std::string config_path = opts.work_dir + "/cluster.conf";
    std::ofstream(config_path) << text;
    boot->config = ClusterConfig::parse_string(text, config_path);
    Clock::time_point ready{};
    std::exception_ptr client_error;
    std::thread joiner([&] {
      try {
        TcpTransportOptions net;
        net.connect_timeout_s = 10.0;
        net.connect_retry_ms = 1.0;
        boot->client = std::make_unique<cluster::ClusterClient>(
            boot->config, kStorageNodes, net);
        ready = Clock::now();
      } catch (...) {
        client_error = std::current_exception();
      }
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(kClientHeadStart));
    const auto t0 = Clock::now();
    try {
      for (int i = 0; i < kStorageNodes; ++i) {
        if (i > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(kNodeStagger));
        }
        boot->nodes.logs.push_back(opts.work_dir + "/node-" +
                                   std::to_string(i) + ".log");
        boot->nodes.pids.push_back(spawn_node(opts.node_bin, config_path, i,
                                              boot->nodes.logs.back()));
      }
    } catch (...) {
      joiner.join();
      throw;
    }
    joiner.join();
    if (client_error == nullptr) {
      boot->seconds = seconds_between(t0, ready);
      return boot;
    }
    try {
      std::rethrow_exception(client_error);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: cluster boot attempt %d failed: %s\n",
                   attempt, e.what());
      boot->nodes.dump_logs();
    }
  }
  throw std::runtime_error("the TCP cluster never booted");
}

/// Ask the nodes to stop and reap them; a node that exits non-zero (or
/// has to be killed) is a failed run.
void shutdown_cluster(Boot& boot, Report& report) {
  try {
    boot.client->shutdown_cluster();
    boot.client->leave();
  } catch (const std::exception& e) {
    report.failed(std::string("cluster shutdown: ") + e.what());
  }
  boot.client.reset();
  if (boot.nodes.reap(20.0) != 0) {
    boot.nodes.dump_logs();
    report.wrong("a node process exited non-zero");
  }
}

struct Call {
  Clock::time_point end{};
  double ms = 0;
};

struct ClientThreadResult {
  std::vector<Call> calls;
  std::size_t failed = 0;
  std::string error;
  std::vector<double> pushes;
  std::vector<std::pair<NodeId, std::vector<std::pair<NodeId, double>>>> checked;
};

/// kClientThreads closed-loop callers: each issues its next call as soon
/// as the previous one returns, until finish() (or destruction) stops
/// and joins them.
class ClosedLoop {
 public:
  ClosedLoop(cluster::ClusterClient& client, std::uint64_t seed,
             NodeId num_nodes, bool keep)
      : results_(kClientThreads) {
    for (int t = 0; t < kClientThreads; ++t) {
      threads_.emplace_back([this, &client, seed, num_nodes, keep, t] {
        run(client, Rng(seed * 31 + static_cast<std::uint64_t>(t)),
            num_nodes, keep, results_[static_cast<std::size_t>(t)]);
      });
    }
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;
  ~ClosedLoop() { finish(); }

  const std::vector<ClientThreadResult>& finish() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    return results_;
  }

 private:
  void run(cluster::ClusterClient& client, Rng rng, NodeId num_nodes,
           bool keep, ClientThreadResult& r) {
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto source = static_cast<NodeId>(
          rng.next_u64(static_cast<std::uint64_t>(num_nodes)));
      const auto t0 = Clock::now();
      try {
        cluster::SspprReply reply;
        {
          obs::ScopedSpan span("bench.ssppr");
          reply = client.ssppr(source);
        }
        const auto t1 = Clock::now();
        if (reply.status != 0) {
          ++r.failed;
          r.error = "query status " + std::to_string(reply.status);
          continue;
        }
        if (!keep) continue;
        r.calls.push_back({t1, ms_between(t0, t1)});
        r.pushes.push_back(static_cast<double>(reply.num_pushes));
        if (r.calls.size() % kCheckEvery == 1) {
          r.checked.emplace_back(source, std::move(reply.entries));
        }
      } catch (const std::exception& e) {
        ++r.failed;
        r.error = e.what();
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<ClientThreadResult> results_;
  std::vector<std::thread> threads_;
};

/// Node-side view of a window: registry exports of every node.
std::vector<RemoteRegistry> node_registries(cluster::ClusterClient& client) {
  std::vector<RemoteRegistry> out;
  for (int n = 0; n < kStorageNodes; ++n) {
    out.push_back(RemoteRegistry::parse(client.metrics_json(n)));
  }
  return out;
}

double nodes_cpu(const NodeProcesses& nodes) {
  double total = 0;
  for (const pid_t pid : nodes.pids) total += proc_cpu_seconds(pid).value_or(0.0);
  return total;
}

}  // namespace

void run_tcp_cluster(const RunOptions& opts, Report& report) {
  if (opts.node_bin.empty()) throw std::runtime_error("--node-bin is required");
  std::filesystem::create_directories(opts.work_dir);
  const Graph g = make_clustered_graph();
  const std::string graph_path = opts.work_dir + "/graph.pgrf";
  save_graph(g, graph_path);

  // Boot several times; set-up time is the median, the last boot serves.
  std::mt19937 ports(static_cast<unsigned>(::getpid()) ^
                     static_cast<unsigned>(opts.seed * 2654435761u));
  std::vector<double> boot_s;
  std::unique_ptr<Boot> boot;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (boot != nullptr) shutdown_cluster(*boot, report);
    boot = boot_cluster(opts, graph_path, ports);
    boot_s.push_back(boot->seconds);
  }
  cluster::ClusterClient& client = *boot->client;

  // Untimed warm-up.
  {
    ClosedLoop warm(client, ~opts.seed, g.num_nodes(), false);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmSeconds));
  }

  // Timed window in half-second slices; a traced run traces every other
  // slice (client-side spans only; node figures come from registries).
  if (opts.trace) start_tracing();
  obs::Tracer::global().set_enabled(false);
  const std::vector<RemoteRegistry> nodes_before = node_registries(client);
  RegistryWindow local;
  local.begin();
  const std::size_t num_slices = std::max<std::size_t>(
      2, static_cast<std::size_t>(opts.seconds / kSliceSeconds));
  std::vector<Clock::time_point> slice_start(num_slices + 1);
  std::vector<double> slice_node_cpu(num_slices + 1),
      slice_client_cpu(num_slices + 1), slice_steal(num_slices);
  HostSteal steal;
  ClosedLoop loop(client, opts.seed, g.num_nodes(), true);
  const auto w0 = Clock::now();
  for (std::size_t s = 0; s <= num_slices; ++s) {
    const auto at = w0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(kSliceSeconds * s));
    std::this_thread::sleep_until(at);
    slice_start[s] = Clock::now();
    slice_node_cpu[s] = nodes_cpu(boot->nodes);
    slice_client_cpu[s] = process_cpu_seconds();
    if (s > 0) slice_steal[s - 1] = steal.share_since_mark();
    steal.mark();
    obs::Tracer::global().set_enabled(opts.trace && s % 2 == 1 && s < num_slices);
  }
  const std::vector<ClientThreadResult>& results = loop.finish();
  obs::Tracer::global().set_enabled(false);
  local.end();
  const std::vector<RemoteRegistry> nodes_after = node_registries(client);
  double node_peak_mb = 0;
  for (const pid_t pid : boot->nodes.pids) {
    node_peak_mb += proc_peak_rss_mb(pid).value_or(0.0);
  }
  const double client_peak_mb = proc_peak_rss_mb(::getpid()).value_or(peak_rss_mb());

  // Per-slice throughput, latency and CPU; slice s covers
  // [slice_start[s], slice_start[s+1]) and odd slices are the traced ones.
  const auto traced_slice = [&](std::size_t s) { return opts.trace && s % 2 == 1; };
  WindowSamples samples;
  samples.units.resize(num_slices);
  std::vector<double> pushes;
  std::size_t calls = 0, failed = 0;
  std::string error;
  const auto slice_of = [&](Clock::time_point t) -> std::optional<std::size_t> {
    if (t < slice_start[0] || t >= slice_start[num_slices]) return std::nullopt;
    const auto it = std::upper_bound(slice_start.begin(), slice_start.end(), t);
    return static_cast<std::size_t>(it - slice_start.begin()) - 1;
  };
  for (const ClientThreadResult& r : results) {
    failed += r.failed;
    if (!r.error.empty()) error = r.error;
    pushes.insert(pushes.end(), r.pushes.begin(), r.pushes.end());
    for (const Call& c : r.calls) {
      const auto s = slice_of(c.end);
      if (!s) continue;
      ++calls;
      samples.units[*s].latency_ms.push_back(c.ms);
    }
  }
  double window_cpu_nodes = 0, window_cpu_client = 0;
  for (std::size_t s = 0; s < num_slices; ++s) {
    const double node_cpu = slice_node_cpu[s + 1] - slice_node_cpu[s];
    const double client_cpu = slice_client_cpu[s + 1] - slice_client_cpu[s];
    window_cpu_nodes += node_cpu;
    window_cpu_client += client_cpu;
    Unit& u = samples.units[s];
    u.traced = traced_slice(s);
    u.queries = static_cast<double>(u.latency_ms.size());
    u.seconds = seconds_between(slice_start[s], slice_start[s + 1]);
    u.cpu_s = node_cpu + client_cpu;
    u.steal = slice_steal[s];
  }
  report.attempted(calls + failed);
  if (failed != 0) report.failed("ClusterClient::ssppr: " + error, failed);

  // Registry deltas over every process of the mesh: both nodes' exports
  // plus this client's own registry.
  const CounterLookup mesh_counter = [&](const std::string& name)
      -> std::optional<double> {
    std::optional<double> total = local.counter(name);
    for (int n = 0; n < kStorageNodes; ++n) {
      const auto after = nodes_after[static_cast<std::size_t>(n)].counter(name);
      if (!after) continue;
      const double before =
          nodes_before[static_cast<std::size_t>(n)].counter(name).value_or(0.0);
      total = total.value_or(0.0) + (*after - before);
    }
    return total;
  };
  const auto node_hist = [&](const std::string& family, bool sum)
      -> std::optional<double> {
    std::optional<double> total;
    for (int n = 0; n < kStorageNodes; ++n) {
      const RemoteRegistry& a = nodes_after[static_cast<std::size_t>(n)];
      const RemoteRegistry& b = nodes_before[static_cast<std::size_t>(n)];
      const auto after = sum ? a.histogram_sum_us(family) : a.histogram_count(family);
      if (!after) continue;
      const auto before = sum ? b.histogram_sum_us(family) : b.histogram_count(family);
      total = total.value_or(0.0) + (*after - before.value_or(0.0));
    }
    return total;
  };

  // Answer check (untimed): sampled answers must equal an in-process
  // Cluster built from the same graph file and hash partition, bit for bit.
  {
    const Graph ref_graph = load_graph(graph_path);
    ClusterOptions co;
    co.num_machines = kStorageNodes;
    co.network = no_network_cost();
    Cluster reference(ref_graph, load_cluster_partition(boot->config, ref_graph),
                      co);
    SspprOptions ppr;
    ppr.alpha = boot->config.ppr_alpha;
    ppr.epsilon = boot->config.ppr_epsilon;
    for (const ClientThreadResult& r : results) {
      for (const auto& [source, entries] : r.checked) {
        report.attempted();
        const NodeRef ref = reference.locate(source);
        std::vector<std::pair<NodeId, double>> want;
        for (const auto& [node, value] :
             single_query_entries(reference.storage(ref.shard), ref, ppr)) {
          want.emplace_back(reference.mapping().to_global(node), value);
        }
        std::sort(want.begin(), want.end());
        bool same = want.size() == entries.size();
        for (std::size_t i = 0; same && i < want.size(); ++i) {
          same = want[i].first == entries[i].first &&
                 std::bit_cast<std::uint64_t>(want[i].second) ==
                     std::bit_cast<std::uint64_t>(entries[i].second);
        }
        if (!same) report.wrong("TCP answer differs from the in-process cluster");
      }
    }
  }
  shutdown_cluster(*boot, report);

  const double q = std::max<double>(1, static_cast<double>(calls));
  report.note("calls", static_cast<double>(calls));
  report_window(report, samples);
  if (!opts.trace) {
    report.set("setup_s", median(boot_s));
    report.set("peak_rss_mb", node_peak_mb + client_peak_mb);
    return;
  }
  report.set("cluster.boot_s", median(boot_s));
  report.set("cluster.node_cpu_ms_per_query", 1e3 * window_cpu_nodes / q);
  report.set("cluster.client_cpu_ms_per_query", 1e3 * window_cpu_client / q);
  report.set("ppr.pushes_per_query", mean(pushes));
  const auto batches = mesh_counter("serve.batches");
  const auto batched = mesh_counter("serve.batched_queries");
  if (batches && batched) {
    report.set("serve.batch_size_mean", *batched / std::max(1.0, *batches));
  } else {
    report.missing("serve.batch_size_mean", "serve.batched_queries");
  }
  for (const auto& [metric, family] :
       {std::pair<std::string, std::string>{"serve.queue_wait_mean_ms",
                                            "serve.queue_wait_us"},
        {"serve.execute_mean_ms", "serve.execute_us"}}) {
    const auto sum = node_hist(family, true);
    const auto count = node_hist(family, false);
    if (sum && count) {
      report.set(metric, *sum / 1e3 / std::max(1.0, *count));
    } else {
      report.missing(metric, family);
    }
  }
  const auto rounds = mesh_counter("engine.ssppr.batch_rounds");
  const auto ssppr_batches = mesh_counter("engine.ssppr.batches");
  if (rounds && ssppr_batches) {
    report.set("engine.rounds_per_batch", *rounds / std::max(1.0, *ssppr_batches));
  } else {
    report.missing("engine.rounds_per_batch", "engine.ssppr.batch_rounds");
  }
  report_storage_layers(report, mesh_counter, q, /*cache_on=*/false);
  const auto frames = mesh_counter("rpc.tcp.frames_sent");
  const auto bytes = mesh_counter("rpc.tcp.bytes_sent");
  if (frames) {
    report.set("rpc.tcp_frames_per_query", *frames / q);
  } else {
    report.missing("rpc.tcp_frames_per_query", "rpc.tcp.frames_sent");
  }
  if (bytes) {
    report.set("rpc.tcp_bytes_per_query", *bytes / q);
  } else {
    report.missing("rpc.tcp_bytes_per_query", "rpc.tcp.bytes_sent");
  }
  double traced_calls = 0;
  for (const Unit& u : samples.units) {
    if (u.traced) traced_calls += u.queries;
  }
  report_trace(report, traced_calls);
}

}  // namespace perfbench
