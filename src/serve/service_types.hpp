// Shared types of the online SSPPR query service: per-query status and
// result, the typed future surfaced to callers (the RPC layer's
// Future<T>/Promise<T> machinery instantiated with QueryResult), and the
// service knobs.
#pragma once

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "engine/ssppr_driver.hpp"
#include "obs/trace.hpp"
#include "rpc/future.hpp"
#include "storage/shard.hpp"

namespace ppr::serve {

enum class QueryStatus {
  kOk = 0,        // executed; `ppr` holds the result
  kRejected = 1,  // admission queue full — never entered the service
  kTimedOut = 2,  // deadline expired before execution; never executed
};

inline const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk:
      return "OK";
    case QueryStatus::kRejected:
      return "REJECTED";
    case QueryStatus::kTimedOut:
      return "TIMED_OUT";
  }
  return "?";
}

struct QueryResult {
  QueryStatus status = QueryStatus::kRejected;
  NodeRef source{};
  /// Non-zero PPR estimates; empty unless status == kOk (and when the
  /// service runs with collect_entries = false).
  std::vector<std::pair<NodeRef, double>> ppr;
  std::size_t num_pushes = 0;
  /// Size of the micro-batch this query executed in (0 if never executed).
  std::size_t batch_size = 0;
  double queue_wait_us = 0;  // admission to its batch's execution start
  double execute_us = 0;     // wall time of the serving run_ssppr_batch
  double e2e_us = 0;         // admission to future completion
};

using QueryFuture = Future<QueryResult>;
using QueryPromise = Promise<QueryResult>;

/// A query admitted into a machine's queue, awaiting dispatch.
struct PendingQuery {
  NodeRef source{};
  QueryPromise promise;
  std::chrono::steady_clock::time_point enqueue_time{};
  /// time_point::max() = no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Trace context minted at submit() when tracing is enabled: trace.
  /// span_id is the query's preallocated root span ("serve.query"),
  /// recorded retroactively once the query resolves. Inactive (zero) when
  /// tracing is off.
  obs::TraceContext trace{};
  /// Graph version this query reads (DESIGN.md §15). Admission resolves
  /// kVersionLatest to the newest PUBLISHED version (0 before any
  /// mutation), so a query's view is fixed the moment it is admitted —
  /// mutations landing while it waits in the queue do not leak into its
  /// result. A batch executes at the max pin of its members (still one
  /// coherent snapshot, and never older than any member's admission
  /// version).
  std::uint64_t pinned_version = kVersionLatest;
};

struct ServeOptions {
  /// Admission-queue bound per machine; a submit() beyond it is REJECTED
  /// immediately (explicit backpressure, never an unbounded block).
  std::size_t max_queue = 256;
  /// Most queries one batch takes. An idle executor gets up to this many
  /// queued queries at once.
  std::size_t max_batch_size = 16;
  /// Cap on how long a partial batch is held open for co-riders, counted
  /// from its oldest query. The dispatcher holds only while every executor
  /// of the machine is busy; it dispatches once `max_batch_size` queries
  /// accumulated, this much time passed, or an executor frees up,
  /// whichever comes first.
  double max_batch_delay_us = 2000;
  /// Default per-query deadline measured from submit(); 0 = none. A query
  /// whose deadline passes before its batch dispatches resolves TIMED_OUT
  /// without executing.
  double default_deadline_us = 0;
  /// Batch-execution threads per machine. While fewer than this many
  /// batches are in flight, an executor is idle and queued queries
  /// dispatch at once.
  int executors_per_machine = 1;
  /// Batches allowed to queue behind busy executors before the dispatcher
  /// holds off forming more (ThreadPool::try_submit bound).
  std::size_t max_pending_batches = 2;
  /// Start with dispatchers paused (tests use this to stage deterministic
  /// queue states); resume() starts serving.
  bool start_paused = false;
  /// Copy each query's PPR entries into its QueryResult. Off = callers
  /// only get status + latency metadata (pure SLO benchmarking).
  bool collect_entries = true;
  SspprOptions ppr{};
  /// Batch-driver switches; its graph_version is ignored — every batch
  /// runs at the max admission pin of its members.
  DriverOptions driver{};
};

}  // namespace ppr::serve
