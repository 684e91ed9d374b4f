#include "engine/throughput.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "engine/ssppr_batch.hpp"
#include "engine/state_pool.hpp"
#include "ppr/power_iteration.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

namespace {

/// Per-machine query sources: random core nodes of the machine's own
/// shard (the owner-compute rule assigns each query to the machine that
/// hosts its source).
std::vector<std::vector<NodeId>> make_query_sets(Cluster& cluster,
                                                 int queries_per_machine,
                                                 std::uint64_t seed) {
  std::vector<std::vector<NodeId>> sets(
      static_cast<std::size_t>(cluster.num_machines()));
  for (int m = 0; m < cluster.num_machines(); ++m) {
    Rng rng(seed ^ (static_cast<std::uint64_t>(m) * 0x9e3779b97f4a7c15ULL));
    const NodeId num_core = cluster.shard(m).num_core_nodes();
    GE_REQUIRE(num_core > 0, "machine owns no core nodes");
    auto& set = sets[static_cast<std::size_t>(m)];
    set.reserve(static_cast<std::size_t>(queries_per_machine));
    for (int q = 0; q < queries_per_machine; ++q) {
      set.push_back(static_cast<NodeId>(
          rng.next_u64(static_cast<std::uint64_t>(num_core))));
    }
  }
  return sets;
}

/// Running sum of every `pipeline.phase_us` series, in µs.
std::array<std::uint64_t, kNumPhases> phase_sums_us() {
  std::array<std::uint64_t, kNumPhases> sums{};
  for (int ph = 0; ph < kNumPhases; ++ph) {
    sums[static_cast<std::size_t>(ph)] =
        pipeline_phase_histogram(static_cast<Phase>(ph)).snapshot().sum;
  }
  return sums;
}

/// A query executor runs one machine-process's share of the query set —
/// it receives the whole share at once so batched executors can chunk it.
template <typename RunQueries>
ThroughputResult measure(Cluster& cluster, const WorkloadOptions& options,
                         RunQueries&& run_queries) {
  GE_REQUIRE(options.procs_per_machine >= 1, "need at least one process");
  GE_REQUIRE(options.queries_per_machine >= 1, "need at least one query");
  const int machines = cluster.num_machines();
  const int procs = options.procs_per_machine;
  const auto query_sets =
      make_query_sets(cluster, options.queries_per_machine, options.seed);

  ThroughputResult res;
  res.total_queries = static_cast<std::uint64_t>(machines) *
                      static_cast<std::uint64_t>(options.queries_per_machine);

  const int total_runs = options.warmup_runs + options.measured_runs;
  double sum_seconds = 0;
  std::array<std::uint64_t, kNumPhases> phases_before{};
  std::size_t sum_pushes = 0;

  for (int run = 0; run < total_runs; ++run) {
    const bool measured = run >= options.warmup_runs;
    if (run == options.warmup_runs) phases_before = phase_sums_us();
    cluster.reset_stats();
    std::atomic<std::size_t> pushes{0};

    WallTimer wall;
    // One thread per computing process across all machines; wall time
    // includes the final join (the synchronization the paper counts).
    parallel_for_threads(
        static_cast<std::size_t>(machines) * static_cast<std::size_t>(procs),
        static_cast<std::size_t>(machines) * static_cast<std::size_t>(procs),
        [&](std::size_t slot) {
          const int m = static_cast<int>(slot) / procs;
          const int p = static_cast<int>(slot) % procs;
          const auto& queries = query_sets[static_cast<std::size_t>(m)];
          // Strided assignment of this machine's queries to its processes.
          std::vector<NodeId> share;
          for (std::size_t q = static_cast<std::size_t>(p);
               q < queries.size(); q += static_cast<std::size_t>(procs)) {
            share.push_back(queries[q]);
          }
          pushes.fetch_add(run_queries(m, share), std::memory_order_relaxed);
        });
    const double seconds = wall.seconds();

    if (measured) {
      sum_seconds += seconds;
      sum_pushes += pushes.load();
      res.remote_ratio = cluster.remote_ratio();
    }
  }

  const double runs = options.measured_runs;
  res.seconds_per_run = sum_seconds / runs;
  res.queries_per_second =
      static_cast<double>(res.total_queries) / res.seconds_per_run;
  const auto phases_after = phase_sums_us();
  for (std::size_t ph = 0; ph < res.phase_seconds.size(); ++ph) {
    res.phase_seconds[ph] =
        static_cast<double>(phases_after[ph] - phases_before[ph]) * 1e-6 /
        runs;
  }
  res.total_pushes = static_cast<std::size_t>(
      static_cast<double>(sum_pushes) / runs);
  return res;
}

}  // namespace

ThroughputResult measure_engine_throughput(Cluster& cluster,
                                           const WorkloadOptions& options) {
  GE_REQUIRE(options.query_batch_size >= 1,
             "query_batch_size must be >= 1");
  const auto bsz = static_cast<std::size_t>(options.query_batch_size);
  return measure(
      cluster, options,
      [&](int machine, std::span<const NodeId> sources) -> std::size_t {
        const auto shard = static_cast<ShardId>(machine);
        std::size_t num_pushes = 0;
        if (bsz == 1) {
          // One state per process, reset per query: a dense state's arrays
          // are allocated once, not once per query.
          std::optional<SspprState> state;
          for (const NodeId source_local : sources) {
            const NodeRef source{source_local, shard};
            if (state) {
              state->reset(source);
            } else {
              state.emplace(source, options.ppr);
            }
            num_pushes +=
                run_ssppr(cluster.storage(machine), *state, options.driver)
                    .num_pushes;
          }
          return num_pushes;
        }
        // Lockstep batches of up to `bsz` queries sharing one state pool;
        // leased blocks keep their submap capacity and dense arrays across
        // chunks (the same pool class serves the online QueryService).
        SspprStatePool pool(options.ppr);
        std::vector<NodeRef> refs;
        refs.reserve(bsz);
        for (std::size_t lo = 0; lo < sources.size(); lo += bsz) {
          const std::size_t b = std::min(bsz, sources.size() - lo);
          refs.clear();
          for (std::size_t i = 0; i < b; ++i) {
            refs.push_back(NodeRef{sources[lo + i], shard});
          }
          SspprStatePool::Lease lease = pool.acquire(refs);
          num_pushes += run_ssppr_batch(cluster.storage(machine),
                                        lease.states(), options.driver)
                            .num_pushes;
        }
        return num_pushes;
      });
}

ThroughputResult measure_tensor_throughput(Cluster& cluster,
                                           const WorkloadOptions& options) {
  TensorPushOptions topts;
  topts.alpha = options.ppr.alpha;
  topts.epsilon = options.ppr.epsilon;
  topts.compress = options.driver.compress;
  topts.overlap = options.driver.overlap;
  return measure(cluster, options,
                 [&](int machine,
                     std::span<const NodeId> sources) -> std::size_t {
                   std::size_t num_pushes = 0;
                   for (const NodeId source_local : sources) {
                     const NodeId global =
                         cluster.shard(machine).core_global_id(source_local);
                     const TensorPushResult r =
                         tensor_forward_push(cluster.storage(machine),
                                             cluster.tensor_ctx(), global,
                                             topts);
                     num_pushes += r.num_pushes;
                   }
                   return num_pushes;
                 });
}

double measure_power_iteration_qps(const Graph& g, double alpha,
                                   double tolerance, int num_queries,
                                   std::uint64_t seed) {
  GE_REQUIRE(num_queries >= 1, "need at least one query");
  const CsrMatrix pt = build_transition_matrix(g);
  Rng rng(seed);
  WallTimer wall;
  for (int q = 0; q < num_queries; ++q) {
    const auto source = static_cast<NodeId>(
        rng.next_u64(static_cast<std::uint64_t>(g.num_nodes())));
    const PowerIterationResult r =
        power_iteration(g, pt, source, alpha, tolerance);
    GE_CHECK(r.num_iterations > 0, "power iteration did not run");
  }
  return num_queries / wall.seconds();
}

}  // namespace ppr
