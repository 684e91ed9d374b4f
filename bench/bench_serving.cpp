// Online serving load generator: drives the SSPPR QueryService with a
// closed-loop (fixed client concurrency) and an open-loop (seeded Poisson
// arrivals) workload, sweeping offered QPS x micro-batching knobs, and
// emits one JSON line per point with goodput, rejection/timeout rates,
// and p50/p95/p99 latency (queue-wait / execute / end-to-end).
//
// The headline comparison is max_batch_size=1 (classic one-query-at-a-
// time serving) vs work-conserving micro-batching (max_batch_size >= 8):
// at saturation the batched scheduler coalesces each round's remote
// fetches across the batch, so goodput should beat batch-1 serving by
// >= 1.5x on the default 4-shard synthetic workload; at light load an
// idle executor takes each query at once, so batching should cost
// (almost) no latency against batch-1 serving.
//
// Flags: --nodes N --edges M --machines K --cache-rows R --eps E
//        --qps 250,500,...     open-loop offered-load sweep
//        --batches 1,16        max_batch_size sweep
//        --delay-us D          max_batch_delay (hold cap while every
//                              executor is busy) per batch point
//        --queue Q             admission-queue bound per machine
//        --deadline-us T       per-query deadline (0 = none)
//        --queries N           arrivals per open-loop point
//        --clients C           closed-loop concurrency
//        --max-seconds S       wall-clock cap per point
//        --mode open|closed|both
//        --seed S              arrival-schedule seed
//        --kernel sparse|dense --force-scalar   push-kernel ablation
//        --smoke               tiny graph, 2-point sweep, 2s cap
#include "bench_common.hpp"

#include <atomic>
#include <thread>

#include "graph/generators.hpp"
#include "serve/arrivals.hpp"
#include "serve/service.hpp"

using namespace ppr;
using serve::QueryService;
using serve::ServeOptions;
using serve::ServiceStatsSnapshot;

namespace {

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

void print_point(const char* mode, double offered_qps,
                 const ServeOptions& o, const ServiceStatsSnapshot& s,
                 double elapsed_seconds) {
  const double goodput =
      elapsed_seconds > 0 ? static_cast<double>(s.completed) / elapsed_seconds
                          : 0.0;
  const double denom = s.submitted > 0 ? static_cast<double>(s.submitted) : 1;
  std::printf(
      "{\"mode\": \"%s\", \"offered_qps\": %.0f, \"max_batch_size\": %zu, "
      "\"max_batch_delay_us\": %.0f, \"submitted\": %llu, "
      "\"completed\": %llu, \"rejected\": %llu, \"timed_out\": %llu, "
      "\"goodput_qps\": %.1f, \"reject_rate\": %.3f, "
      "\"timeout_rate\": %.3f, \"mean_batch\": %.2f, "
      "\"queue_wait_p50_ms\": %.3f, \"queue_wait_p95_ms\": %.3f, "
      "\"execute_p50_ms\": %.3f, \"execute_p95_ms\": %.3f, "
      "\"e2e_p50_ms\": %.3f, \"e2e_p95_ms\": %.3f, \"e2e_p99_ms\": %.3f, "
      "\"batch_form_p95_ms\": %.3f, \"states_created\": %llu}\n",
      mode, offered_qps, o.max_batch_size, o.max_batch_delay_us,
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.timed_out), goodput,
      static_cast<double>(s.rejected) / denom,
      static_cast<double>(s.timed_out) / denom, s.mean_batch_size(),
      s.queue_wait_us.percentile(0.5) / 1e3,
      s.queue_wait_us.percentile(0.95) / 1e3,
      s.execute_us.percentile(0.5) / 1e3,
      s.execute_us.percentile(0.95) / 1e3, s.e2e_us.percentile(0.5) / 1e3,
      s.e2e_us.percentile(0.95) / 1e3, s.e2e_us.percentile(0.99) / 1e3,
      s.batch_form_us.percentile(0.95) / 1e3,
      static_cast<unsigned long long>(s.states_created));
}

/// Open loop: replay a seeded Poisson schedule; late arrivals are
/// submitted immediately (the generator never waits for completions, so
/// offered load is independent of service speed).
void run_open_loop(Cluster& cluster, const ServeOptions& o,
                   double offered_qps,
                   const serve::ArrivalSchedule& schedule,
                   double max_seconds) {
  QueryService service(cluster, o);
  WallTimer wall;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const double target = schedule.at_seconds[i];
    if (wall.seconds() > max_seconds) break;
    const double ahead = target - wall.seconds();
    if (ahead > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
    }
    (void)service.submit(schedule.sources[i]);
  }
  service.drain();
  print_point("open", offered_qps, o, service.stats(), wall.seconds());
}

/// Closed loop: `clients` threads, each submitting its next query as soon
/// as the previous one resolves — a self-throttling workload whose
/// concurrency (not rate) is fixed.
void run_closed_loop(Cluster& cluster, const ServeOptions& o, int clients,
                     std::size_t total_queries, double max_seconds,
                     std::uint64_t seed) {
  QueryService service(cluster, o);
  std::atomic<long long> remaining{static_cast<long long>(total_queries)};
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed ^ (static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ULL));
      while (remaining.fetch_sub(1, std::memory_order_relaxed) > 0) {
        if (wall.seconds() > max_seconds) break;
        const auto src = static_cast<NodeId>(rng.next_u64(
            static_cast<std::uint64_t>(cluster.num_nodes())));
        (void)service.submit(src).wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  service.drain();
  print_point("closed", 0.0, o, service.stats(), wall.seconds());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  bench::ObsExport obs_export(args);
  const bool smoke = args.has("smoke");
  const auto nodes =
      static_cast<NodeId>(args.get_int("nodes", smoke ? 4000 : 20000));
  const auto edges =
      static_cast<EdgeIndex>(args.get_int("edges", smoke ? 16000 : 100000));
  const int machines = static_cast<int>(args.get_int("machines", 4));
  // Default adjacency cache ~10% of |V|: on the paper's billion-edge
  // graphs the cache covers a small fraction of the graph, so remote
  // fetches persist at steady state. A cache that swallows the whole
  // scaled-down graph would erase the very traffic batching coalesces.
  const auto cache_rows =
      static_cast<std::size_t>(args.get_int("cache-rows", 2048));
  const double eps = args.get_double("eps", 1e-5);
  const double delay_us = args.get_double("delay-us", 2000);
  const auto max_queue =
      static_cast<std::size_t>(args.get_int("queue", 512));
  const double deadline_us = args.get_double("deadline-us", 0);
  const auto queries = static_cast<std::size_t>(
      args.get_int("queries", smoke ? 300 : 2000));
  const int clients = static_cast<int>(args.get_int("clients", 32));
  const double max_seconds =
      args.get_double("max-seconds", smoke ? 2.0 : 15.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string mode = args.get_string("mode", "both");
  bench::apply_rpc_cost_model(args);
  SspprOptions ppr;
  ppr.alpha = 0.462;
  ppr.epsilon = eps;
  if (!bench::apply_kernel_options(args, ppr)) return 1;

  const std::vector<int> batch_sizes =
      parse_int_list(args.get_string("batches", "1,16"));
  const std::vector<int> qps_points = parse_int_list(
      args.get_string("qps", smoke ? "500,4000" : "250,500,1000,2000,4000"));

  const Graph g = generate_rmat(nodes, edges, 0.5, 0.2, 0.2, 99);
  const PartitionAssignment assignment = partition_multilevel(g, machines);

  bench::print_header(
      "Online SSPPR serving: goodput and latency SLOs vs offered load "
      "and micro-batching knobs");
  std::printf("graph: rmat |V|=%lld |E|=%lld, %d machines, queue=%zu, "
              "delay=%gus, deadline=%gus, eps=%g, cache_rows=%zu, "
              "kernel=%s\n\n",
              static_cast<long long>(g.num_nodes()),
              static_cast<long long>(g.num_edges()), machines, max_queue,
              delay_us, deadline_us, eps, cache_rows,
              kernel_name(ppr.kernel));

  for (const int b : batch_sizes) {
    // Fresh cluster per batch point: comparable cold adjacency caches.
    Cluster cluster(g, assignment,
                    ClusterOptions{.num_machines = machines,
                                   .network = bench::bench_network(),
                                   .adjacency_cache_rows = cache_rows});
    ServeOptions o;
    o.max_queue = max_queue;
    o.max_batch_size = static_cast<std::size_t>(b);
    o.max_batch_delay_us = delay_us;
    o.default_deadline_us = deadline_us;
    o.collect_entries = false;  // pure scheduling/SLO measurement
    o.ppr = ppr;
    o.driver = DriverOptions::overlapped();

    if (mode == "closed" || mode == "both") {
      run_closed_loop(cluster, o, clients, queries, max_seconds, seed);
    }
    if (mode == "open" || mode == "both") {
      for (const int qps : qps_points) {
        const serve::ArrivalSchedule schedule = serve::make_poisson_schedule(
            static_cast<double>(qps), queries, g.num_nodes(), seed);
        run_open_loop(cluster, o, static_cast<double>(qps), schedule,
                      max_seconds);
      }
    }
  }
  return 0;
}
