// ingest_mixed — writes beside reads, on serve_open's graph and cluster
// configuration. One driver thread runs a fixed interleave: a 64-op
// mutation batch through Cluster::apply_edge_mutations, then four read
// batches of four queries each through run_ssppr_batch (round-robin over
// machines, reading the newest published version); every 20 writes one
// shard is compacted. The schedule runs until --seconds is spent, but
// never for fewer than kCountedWrites writes: the counts are taken over
// those, and interleaving from one thread makes them repeat exactly at a
// given seed.
//
// Exercises versioned storage (delta merge on pinned reads, cache version
// invalidation, halo rerouting, compaction) and the Cluster mutation
// coordinator, which the other workloads leave idle.
#include <algorithm>
#include <set>

#include "engine/ssppr_batch.hpp"
#include "engine/state_pool.hpp"
#include "graph/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ppr;

namespace {

constexpr int kMachines = 4;
constexpr double kEpsilon = 1e-5;
constexpr std::size_t kCacheRows = 2000;  // ~10% of |V|, as serve_open
constexpr int kOpsPerWrite = 64;
constexpr double kInsertFraction = 0.7;
constexpr int kReadsPerWrite = 4;
constexpr std::size_t kQueriesPerRead = 4;
constexpr int kWritesPerCompaction = 20;
/// Cycles per measuring unit (0.2-0.4 s on a 4-vCPU host).
constexpr int kCyclesPerUnit = 8;
/// The prefix of the schedule every run completes and takes its counts
/// over: 20 units, with 8 compactions.
constexpr int kCountedWrites = 20 * kCyclesPerUnit;
/// Upper bound on the write rate, sizing the pre-drawn stream: about
/// twice the rate a 4-vCPU host reaches.
constexpr double kMaxWritesPerSecond = 100;
constexpr std::size_t kSourcesPerMachine = 256;
constexpr std::size_t kWarmReads = 64;

/// The seeded mutation stream, minus any delete of an edge its own batch
/// inserted: the store applies a batch's deletes before its inserts, so
/// such a delete names an edge that does not exist yet. Dropping it only
/// leaves the store holding a superset of the stream's live edges, so
/// every later delete still finds its edge.
std::vector<std::vector<EdgeMutationOp>> valid_stream(const Graph& g,
                                                      int batches,
                                                      std::uint64_t seed) {
  auto stream =
      mutation_stream(g, batches, kOpsPerWrite, kInsertFraction, seed);
  for (auto& batch : stream) {
    std::set<std::pair<NodeId, NodeId>> inserted;
    std::erase_if(batch, [&](const EdgeMutationOp& op) {
      const auto key = std::minmax(op.u, op.v);
      if (op.insert) {
        inserted.insert(key);
        return false;
      }
      return inserted.count(key) != 0;
    });
  }
  return stream;
}

}  // namespace

void run_ingest_mixed(const RunOptions& opts, Report& report) {
  const Graph g = make_clustered_graph();
  ClusterOptions co;
  co.num_machines = kMachines;
  co.cache_halo_adjacency = true;
  co.adjacency_cache_rows = kCacheRows;
  InProcCluster c = build_inproc_cluster(g, co);
  Cluster& cluster = *c.cluster;

  const int max_writes =
      kCyclesPerUnit *
      std::max(kCountedWrites / kCyclesPerUnit,
               static_cast<int>(kMaxWritesPerSecond * opts.seconds) /
                   kCyclesPerUnit);
  const auto stream = valid_stream(g, max_writes, opts.seed);
  SspprOptions ppr;
  ppr.epsilon = kEpsilon;
  SspprStatePool pool(ppr);
  std::vector<std::vector<NodeRef>> sources(kMachines);
  const auto globals = sources_per_machine(cluster, kSourcesPerMachine, opts.seed);
  for (int m = 0; m < kMachines; ++m) {
    for (const NodeId v : globals[static_cast<std::size_t>(m)]) {
      sources[static_cast<std::size_t>(m)].push_back(cluster.locate(v));
    }
  }

  std::size_t next_read = 0;  // read batches issued
  std::size_t pushes = 0, rounds = 0, read_batches = 0;
  // One read batch: kQueriesPerRead sources of one machine, round-robin.
  // Returns its wall time, ms.
  const auto read_batch = [&]() -> double {
    const auto m = static_cast<std::size_t>(next_read % kMachines);
    const std::size_t offset =
        (next_read / kMachines * kQueriesPerRead) % kSourcesPerMachine;
    ++next_read;
    const std::span<const NodeRef> batch(sources[m].data() + offset,
                                         kQueriesPerRead);
    SspprStatePool::Lease lease = pool.acquire(batch);
    const auto t0 = Clock::now();
    BatchRunStats s;
    {
      obs::ScopedSpan span("bench.run_ssppr_batch");
      s = run_ssppr_batch(cluster.storage(static_cast<int>(m)), lease.states());
    }
    const double ms = ms_between(t0, Clock::now());
    pushes += s.num_pushes;
    rounds += s.num_iterations;
    ++read_batches;
    return ms;
  };

  // Untimed warm-up at version 0: the first read batches of the schedule.
  for (std::size_t i = 0; i < kWarmReads; ++i) (void)read_batch();
  next_read = 0;
  pushes = rounds = read_batches = 0;

  // The schedule, measured in units of kCyclesPerUnit cycles (one write
  // and its reads). A traced run traces every other unit, so the overhead
  // compares units of the same run. Counts cover the first kCountedWrites
  // writes; times cover the whole window.
  if (opts.trace) start_tracing();
  WindowSamples samples;
  std::vector<double> write_ms, compaction_ms;
  std::size_t read_queries = 0, counted_queries = 0;
  std::size_t counted_pushes = 0, counted_rounds = 0, counted_batches = 0;
  double traced_queries = 0, read_ms_sum = 0;
  RegistryWindow counted;
  counted.begin();
  int writes = 0;
  const auto w0 = Clock::now();
  for (int unit_start = 0;
       unit_start < max_writes &&
       (unit_start < kCountedWrites ||
        seconds_between(w0, Clock::now()) < opts.seconds);
       unit_start += kCyclesPerUnit) {
    const bool traced = opts.trace && (unit_start / kCyclesPerUnit) % 2 == 1;
    obs::Tracer::global().set_enabled(traced);
    const HostSteal steal;
    const double cpu0 = process_cpu_seconds();
    const auto unit0 = Clock::now();
    Unit unit;
    unit.traced = traced;
    std::size_t unit_queries = 0;
    for (int w = unit_start; w < unit_start + kCyclesPerUnit; ++w) {
      ++writes;
      report.attempted();
      try {
        const auto t0 = Clock::now();
        {
          obs::ScopedSpan span("bench.apply_edge_mutations");
          cluster.apply_edge_mutations(stream[static_cast<std::size_t>(w)]);
        }
        write_ms.push_back(ms_between(t0, Clock::now()));
      } catch (const std::exception& e) {
        report.failed(std::string("write: ") + e.what());
      }
      for (int r = 0; r < kReadsPerWrite; ++r) {
        report.attempted(kQueriesPerRead);
        try {
          const double ms = read_batch();
          unit.latency_ms.push_back(ms);
          read_ms_sum += ms;
          unit_queries += kQueriesPerRead;
        } catch (const std::exception& e) {
          report.failed(std::string("read batch: ") + e.what(),
                        kQueriesPerRead);
        }
      }
      if ((w + 1) % kWritesPerCompaction != 0) continue;
      report.attempted();
      try {
        const auto t0 = Clock::now();
        {
          obs::ScopedSpan span("bench.compact_shard");
          cluster.compact_shard(static_cast<ShardId>(
              ((w + 1) / kWritesPerCompaction - 1) % kMachines));
        }
        compaction_ms.push_back(ms_between(t0, Clock::now()));
      } catch (const std::exception& e) {
        report.failed(std::string("compaction: ") + e.what());
      }
    }
    unit.queries = static_cast<double>(unit_queries);
    unit.seconds = seconds_between(unit0, Clock::now());
    unit.cpu_s = process_cpu_seconds() - cpu0;
    unit.steal = steal.share_since_mark();
    samples.units.push_back(std::move(unit));
    obs::Tracer::global().set_enabled(false);
    read_queries += unit_queries;
    if (traced) traced_queries += static_cast<double>(unit_queries);
    if (writes == kCountedWrites) {
      counted.end();
      counted_queries = read_queries;
      counted_pushes = pushes;
      counted_rounds = rounds;
      counted_batches = read_batches;
    }
  }

  // Answer check (untimed): a sample at the final version must read the
  // same, bit for bit, before and after every shard is compacted.
  std::vector<std::pair<NodeRef, PprEntries>> before;
  for (int m = 0; m < kMachines; ++m) {
    for (std::size_t i = 0; i < 2; ++i) {
      const NodeRef src = sources[static_cast<std::size_t>(m)][i * 7];
      before.emplace_back(src, single_query_entries(cluster.storage(m), src, ppr));
    }
  }
  cluster.compact_all();
  for (const auto& [src, entries] : before) {
    report.attempted();
    if (!same_entries(entries,
                      single_query_entries(cluster.storage(src.shard), src, ppr))) {
      report.wrong("answer at the final version changed across compact_all()");
    }
  }

  const double q = std::max<double>(1, static_cast<double>(counted_queries));
  report.note("writes", static_cast<double>(writes));
  report.note("read_queries", static_cast<double>(read_queries));
  report.note("graph_version", static_cast<double>(cluster.graph_version()));
  report.note("counted.ppr.pushes", static_cast<double>(counted_pushes));
  report.note("counted.engine.rounds", static_cast<double>(counted_rounds));
  if (const auto rpcs = counted.counter("pipeline.rpcs_issued")) {
    report.note("counted.storage.rpcs", *rpcs);
  }
  report.note("storage.mutation_p50_ms", median(write_ms));
  report_setup(report, c);
  report_window(report, samples);
  if (!opts.trace) {
    report.set("peak_rss_mb", peak_rss_mb());
    return;
  }
  report.set("engine.rounds_per_batch",
             static_cast<double>(counted_rounds) /
                 std::max<double>(1, static_cast<double>(counted_batches)));
  report.set("engine.batch_call_ms_per_query",
             read_ms_sum / std::max<double>(1, static_cast<double>(read_queries)));
  report.set("ppr.pushes_per_query", static_cast<double>(counted_pushes) / q);
  report_storage_layers(
      report, [&](const std::string& n) { return counted.counter(n); }, q);
  if (const auto inv = counted.counter("cache.version_invalidations")) {
    report.set("storage.version_invalidations_per_write",
               *inv / kCountedWrites);
  } else {
    report.missing("storage.version_invalidations_per_write",
                   "cache.version_invalidations");
  }
  if (const auto delta = counted.gauge_sum("storage.delta_edges")) {
    report.set("storage.delta_edges_end", *delta);
  } else {
    report.missing("storage.delta_edges_end", "storage.delta_edges");
  }
  report.set("storage.compaction_ms", median(compaction_ms));
  report.set("storage.mutation_p50_ms", median(write_ms));
  report_trace(report, traced_queries);
}

}  // namespace perfbench
