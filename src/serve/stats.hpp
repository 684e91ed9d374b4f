// SLO metrics for the online SSPPR query service.
//
// One ServiceStats instance is shared by every per-machine scheduler of a
// QueryService: counters are relaxed atomics, latency distributions are
// lock-free log-bucketed histograms (common/histogram.hpp), so the serving
// hot path never takes a lock to record a sample. snapshot() produces a
// plain-value view with the p50/p95/p99 latencies the load generator and
// tests report.
//
// Latency stages per query (all microseconds):
//   queue_wait — submit() accept to the start of the query's batch
//                execution (includes any wait in the executor pool's
//                pending slots behind a busy executor);
//   execute    — wall time of the run_ssppr_batch call that served the
//                query (shared by every query of the batch);
//   e2e        — submit() accept to future completion.
// Per batch: batch_form — dispatch minus the OLDEST member's enqueue time
// (how long the scheduler held the batch open; ~0 while an executor is
// idle, bounded by max_batch_delay otherwise).
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "obs/metrics.hpp"

namespace ppr::serve {

struct ServiceStatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t completed = 0;  // status OK
  std::uint64_t batches = 0;
  std::uint64_t batched_queries = 0;  // executed queries, for mean size
  std::uint64_t states_created = 0;   // lifetime SspprState constructions

  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_queries) /
                              static_cast<double>(batches);
  }

  HistogramSnapshot queue_wait_us;
  HistogramSnapshot batch_form_us;
  HistogramSnapshot execute_us;
  HistogramSnapshot e2e_us;
};

/// Counters and histograms are registry instruments attached under
/// `serve.*` for the instance's lifetime, so a metrics export carries the
/// serving SLO distributions without going through snapshot().
class ServiceStats {
 public:
  ServiceStats();

  void on_submitted() { submitted_.add(1); }
  void on_admitted() { admitted_.add(1); }
  void on_rejected() { rejected_.add(1); }
  void on_timed_out() { timed_out_.add(1); }
  void on_completed(double queue_wait_us, double execute_us, double e2e_us) {
    completed_.add(1);
    queue_wait_us_.record(queue_wait_us);
    execute_us_.record(execute_us);
    e2e_us_.record(e2e_us);
  }
  void on_batch(std::size_t num_queries, double form_us) {
    batches_.add(1);
    batched_queries_.add(num_queries);
    batch_form_us_.record(form_us);
  }

  /// `states_created` comes from the service's pools at snapshot time.
  ServiceStatsSnapshot snapshot(std::uint64_t states_created = 0) const;

  void reset();

 private:
  obs::Counter submitted_;
  obs::Counter admitted_;
  obs::Counter rejected_;
  obs::Counter timed_out_;
  obs::Counter completed_;
  obs::Counter batches_;
  obs::Counter batched_queries_;
  obs::Histogram queue_wait_us_;
  obs::Histogram batch_form_us_;
  obs::Histogram execute_us_;
  obs::Histogram e2e_us_;
  std::vector<obs::Registration> regs_;
};

}  // namespace ppr::serve
