// serve_open — online serving under an open loop. One generator thread
// submits seeded Poisson arrivals to serve::QueryService at a fixed rate
// well below the knee; each query's latency runs from its due time (so a
// generator stall counts against the queries it delays) to completion.
//
// The serve batching window and the remote-fetch path (the storage
// cascade behind a 10%-of-|V| adjacency cache plus the halo cache, and
// the in-process transport with its 100 us network model) dominate; the
// push kernel is a small share and there are no writes.
#include <thread>

#include "serve/arrivals.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ppr;

namespace {

constexpr int kMachines = 4;
constexpr double kRateQps = 300.0;
constexpr double kEpsilon = 1e-5;
constexpr std::size_t kCacheRows = 2000;  // ~10% of |V|
constexpr std::size_t kCheckEvery = 97;   // answer-check sampling stride
constexpr double kWarmSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;  // CPU sampling unit

/// One window of the open loop and what it measured.
struct OpenLoop {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::string error;
  double goodput = 0;  // ok / (start to last completion)
  std::vector<double> lateness_ms, queue_ms, execute_ms, batch_size,
      batch_share_ms, pushes;
  /// One unit per slice of arrivals; a query's latency lands in the unit
  /// it was due in.
  std::vector<Unit> slices;
  /// Sampled answers for the check: (source, entries).
  std::vector<std::pair<NodeId, PprEntries>> checked;
};

/// Arrivals for one window: a seeded Poisson schedule rescaled so its
/// last arrival falls exactly at `seconds`, which keeps every window the
/// same length (the arrival count is fixed at rate x seconds).
serve::ArrivalSchedule make_schedule(double seconds, NodeId nodes,
                                     std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(kRateQps * seconds);
  serve::ArrivalSchedule s = serve::make_poisson_schedule(
      kRateQps, std::max<std::size_t>(1, n), nodes, seed);
  const double scale = seconds / s.at_seconds.back();
  for (double& t : s.at_seconds) t *= scale;
  return s;
}

OpenLoop run_open_loop(serve::QueryService& service,
                       const serve::ArrivalSchedule& schedule) {
  struct Pending {
    NodeId source = 0;
    double lateness_ms = 0;
    Clock::time_point submitted{};
    std::size_t slice = 0;
    serve::QueryFuture future;
  };
  OpenLoop r;
  std::vector<Pending> pending;
  pending.reserve(schedule.size());
  const auto start = Clock::now();
  auto slice_start = start;
  double slice_cpu = process_cpu_seconds();
  HostSteal steal;
  Unit slice;
  const auto close_slice = [&] {
    const double cpu = process_cpu_seconds();
    slice.seconds = seconds_between(slice_start, Clock::now());
    slice.cpu_s = cpu - slice_cpu;
    slice.steal = steal.share_since_mark();
    r.slices.push_back(std::move(slice));
    slice = Unit{};
    slice_start = Clock::now();
    slice_cpu = cpu;
    steal.mark();
  };
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule.at_seconds[i]));
    std::this_thread::sleep_until(due);
    if (seconds_between(slice_start, due) >= kSliceSeconds) close_slice();
    Pending p;
    p.source = schedule.sources[i];
    p.submitted = Clock::now();
    p.lateness_ms = ms_between(due, p.submitted);
    p.slice = r.slices.size();
    {
      obs::ScopedSpan span("bench.submit");
      p.future = service.submit(p.source);
    }
    pending.push_back(std::move(p));
    ++slice.queries;
  }
  close_slice();
  service.drain();

  Clock::time_point last_done = start;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    Pending& p = pending[i];
    ++r.attempted;
    r.lateness_ms.push_back(p.lateness_ms);
    try {
      serve::QueryResult q = p.future.wait();
      if (q.status != serve::QueryStatus::kOk) {
        ++r.failed;
        r.error = serve::query_status_name(q.status);
        continue;
      }
      ++r.ok;
      r.slices[p.slice].latency_ms.push_back(p.lateness_ms + q.e2e_us / 1e3);
      r.queue_ms.push_back(q.queue_wait_us / 1e3);
      r.execute_ms.push_back(q.execute_us / 1e3);
      r.batch_size.push_back(static_cast<double>(q.batch_size));
      r.batch_share_ms.push_back(
          q.execute_us / 1e3 /
          static_cast<double>(std::max<std::size_t>(1, q.batch_size)));
      r.pushes.push_back(static_cast<double>(q.num_pushes));
      last_done = std::max(
          last_done, p.submitted + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double, std::micro>(
                                           q.e2e_us)));
      if (i % kCheckEvery == 0) r.checked.emplace_back(p.source, std::move(q.ppr));
    } catch (const std::exception& e) {
      ++r.failed;
      r.error = e.what();
    }
  }
  r.goodput = static_cast<double>(r.ok) / seconds_between(start, last_done);
  return r;
}

}  // namespace

void run_serve_open(const RunOptions& opts, Report& report) {
  const Graph g = make_clustered_graph();
  ClusterOptions co;
  co.num_machines = kMachines;
  co.cache_halo_adjacency = true;
  co.adjacency_cache_rows = kCacheRows;
  InProcCluster c = build_inproc_cluster(g, co);
  Cluster& cluster = *c.cluster;

  serve::ServeOptions so;
  so.max_batch_size = 16;
  so.max_batch_delay_us = 2000;
  so.ppr.epsilon = kEpsilon;
  serve::QueryService service(cluster, so);

  // Untimed warm-up at the same rate: fills the adjacency cache and the
  // schedulers' state pools.
  (void)run_open_loop(service,
                      make_schedule(kWarmSeconds, g.num_nodes(), ~opts.seed));

  // A traced run splits the budget into an untraced half and a traced
  // half on a fresh schedule; queries are in flight across any instant,
  // so tracing cannot alternate at a finer grain.
  const double half = opts.trace ? opts.seconds / 2 : opts.seconds;
  RegistryWindow window;
  window.begin();
  std::vector<OpenLoop> loops;
  loops.push_back(
      run_open_loop(service, make_schedule(half, g.num_nodes(), opts.seed)));
  if (opts.trace) {
    start_tracing();
    loops.push_back(run_open_loop(
        service, make_schedule(half, g.num_nodes(), opts.seed ^ 0x7ace)));
    obs::Tracer::global().set_enabled(false);
  }
  window.end();

  WindowSamples samples;
  for (std::size_t traced = 0; traced < loops.size(); ++traced) {
    for (Unit u : loops[traced].slices) {
      u.traced = traced == 1;
      samples.units.push_back(std::move(u));
    }
    // Throughput is goodput over the whole window: a median over slices
    // would only add the Poisson count noise of each slice.
    samples.goodput[traced] = loops[traced].goodput;
  }

  // Answer check (untimed): sampled served answers must equal the same
  // query run alone through run_ssppr_batch, bit for bit.
  for (const OpenLoop& l : loops) {
    report.attempted(l.attempted);
    if (l.failed != 0) report.failed("query: " + l.error, l.failed);
    for (const auto& [source, entries] : l.checked) {
      const NodeRef ref = cluster.locate(source);
      if (!same_entries(entries,
                        single_query_entries(cluster.storage(ref.shard), ref,
                                             so.ppr, so.driver))) {
        report.wrong("served answer differs from the single-query run");
      }
    }
  }

  report.note("queries", static_cast<double>(loops[0].attempted));
  report.note("serve.generator_lag_p99_ms",
              percentile(loops[0].lateness_ms, 0.99));
  report.note("serve.generator_lag_max_ms",
              percentile(loops[0].lateness_ms, 1.0));
  report_setup(report, c);
  report_window(report, samples);
  if (!opts.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  // Per-layer figures pool both halves: tracing changes timing, not work.
  const auto pooled = [&](std::vector<double> OpenLoop::*field) {
    std::vector<double> v;
    for (const OpenLoop& l : loops) {
      v.insert(v.end(), (l.*field).begin(), (l.*field).end());
    }
    return v;
  };
  const double queries = static_cast<double>(loops[0].ok + loops[1].ok);
  report.set("serve.queue_wait_p50_ms", median(pooled(&OpenLoop::queue_ms)));
  report.set("serve.execute_p50_ms", median(pooled(&OpenLoop::execute_ms)));
  report.set("serve.queue_wait_mean_ms", mean(pooled(&OpenLoop::queue_ms)));
  report.set("serve.execute_mean_ms", mean(pooled(&OpenLoop::execute_ms)));
  report.set("serve.batch_size_mean", mean(pooled(&OpenLoop::batch_size)));
  report.set("serve.generator_lag_p99_ms",
             percentile(pooled(&OpenLoop::lateness_ms), 0.99));
  report.set("serve.generator_lag_max_ms",
             percentile(pooled(&OpenLoop::lateness_ms), 1.0));
  report.set("engine.batch_call_ms_per_query",
             mean(pooled(&OpenLoop::batch_share_ms)));
  report.set("ppr.pushes_per_query", mean(pooled(&OpenLoop::pushes)));
  const auto rounds = window.counter("engine.ssppr.batch_rounds");
  const auto batches = window.counter("engine.ssppr.batches");
  if (rounds && batches) {
    report.set("engine.rounds_per_batch", *rounds / std::max(1.0, *batches));
  } else {
    report.missing("engine.rounds_per_batch", "engine.ssppr.batch_rounds");
  }
  report_storage_layers(
      report, [&](const std::string& n) { return window.counter(n); },
      queries);
  report_trace(report, static_cast<double>(loops[1].ok));
}

}  // namespace perfbench
