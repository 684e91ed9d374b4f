// Throughput harness (§2.1.2): processes a batch of SSPPR queries per
// machine with P computing processes each, measures wall time including
// synchronization, and reports queries/second across all machines.
// Phase times are the process-wide `pipeline.phase_us` sums read before
// the first measured run and after the last, so run one measurement at a
// time.
#pragma once

#include <array>

#include "common/timer.hpp"
#include "engine/cluster.hpp"
#include "engine/ssppr_driver.hpp"

namespace ppr {

struct WorkloadOptions {
  int procs_per_machine = 1;
  /// Total queries assigned to each machine (split across its processes).
  int queries_per_machine = 32;
  /// Queries each computing process advances in lockstep through
  /// run_ssppr_batch so their remote fetches coalesce; 1 keeps the old
  /// one-query-at-a-time run_ssppr path (engine harness only).
  int query_batch_size = 1;
  int warmup_runs = 1;
  int measured_runs = 3;
  std::uint64_t seed = 7;
  SspprOptions ppr{};
  DriverOptions driver{};
};

struct ThroughputResult {
  double queries_per_second = 0;
  double seconds_per_run = 0;   // mean over measured runs
  std::uint64_t total_queries = 0;
  /// Per-phase time summed over all computing processes (mean over
  /// measured runs), from the `pipeline.phase_us` series; index with
  /// static_cast<int>(Phase).
  std::array<double, kNumPhases> phase_seconds{};
  double remote_ratio = 0;
  std::size_t total_pushes = 0;  // mean over runs
};

/// SSPPR throughput of the hashmap-based PPR Engine.
ThroughputResult measure_engine_throughput(Cluster& cluster,
                                           const WorkloadOptions& options);

/// SSPPR throughput of the tensor-based distributed Forward Push baseline
/// (same storage layer, dense-tensor PPR state).
ThroughputResult measure_tensor_throughput(Cluster& cluster,
                                           const WorkloadOptions& options);

/// Single-machine Power Iteration throughput ("DGL SpMM"); the paper
/// multiplies the single-machine rate by the machine count as an ideal
/// upper bound. Returns queries/second on one machine.
double measure_power_iteration_qps(const Graph& g, double alpha,
                                   double tolerance, int num_queries,
                                   std::uint64_t seed);

}  // namespace ppr
