// Per-machine admission queue + work-conserving micro-batching scheduler.
//
// Each machine of the cluster gets one MachineScheduler (owner-compute
// rule: a query runs on the machine owning its source). Lifecycle of a
// query inside the scheduler:
//
//   submit ─▶ [bounded admission queue] ─▶ dispatcher thread forms a
//   micro-batch ─▶ executor pool runs run_ssppr_batch over pooled states
//   ─▶ per-query futures complete.
//
// * Admission is non-blocking with explicit backpressure: when the queue
//   already holds `max_queue` queries, try_enqueue refuses and the caller
//   resolves the future as REJECTED — the service never blocks a client
//   on a saturated machine.
// * The dispatcher is work-conserving: while an executor of the machine
//   is idle, it gets up to `max_batch_size` queued queries at once. Only
//   while every executor is busy does the dispatcher hold a partial
//   batch open for co-riders, until `max_batch_size` queries have
//   accumulated OR `max_batch_delay_us` has elapsed since the OLDEST
//   enqueued query — and a batch that finishes wakes it, so the freed
//   executor is refilled from the queue at once. Light load therefore
//   gets batch-1 latency, saturation full batches (throughput, since
//   run_ssppr_batch coalesces the batch's remote fetches per shard per
//   round).
// * Deadlines: every wake-up sweeps queued queries whose deadline passed
//   and resolves them TIMED_OUT without executing them (their would-be
//   states go unallocated, so an expired query costs nothing downstream).
//   The dispatcher's sleep is capped by the earliest queued deadline, so
//   a timeout fires on time even with no further arrivals.
// * Execution runs on a bounded ThreadPool via try_submit: when
//   `max_pending_batches` batches are already queued behind the
//   executors, the dispatcher waits for a slot instead of growing the
//   executor queue — backpressure then propagates to the admission queue
//   and from there to submit() rejections.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/thread_pool.hpp"
#include "engine/state_pool.hpp"
#include "serve/service_types.hpp"
#include "serve/stats.hpp"
#include "storage/dist_storage.hpp"

namespace ppr::serve {

class MachineScheduler {
 public:
  MachineScheduler(const DistGraphStorage& storage, const ServeOptions& options,
                   ServiceStats& stats);
  ~MachineScheduler();

  MachineScheduler(const MachineScheduler&) = delete;
  MachineScheduler& operator=(const MachineScheduler&) = delete;

  /// Non-blocking admission. Returns false (queue full or shutting down)
  /// without touching `q`; the caller rejects the query. On success the
  /// scheduler takes ownership of `q` and will resolve its promise.
  bool try_enqueue(PendingQuery&& q);

  /// Suspend batch formation. Per-query deadlines still fire while
  /// paused: the dispatcher keeps sweeping expired queries and resolving
  /// them TIMED_OUT, it just dispatches no batches until resume().
  void pause();
  void resume();

  /// Block until the admission queue is empty and no batch is executing.
  /// Precondition: not paused (a paused scheduler never drains).
  void drain();

  std::size_t states_created() const { return pool_.states_created(); }

 private:
  using Clock = std::chrono::steady_clock;

  void dispatcher_loop();
  /// Resolve every queued query whose deadline has passed (caller holds
  /// `mutex_`); promises complete outside the lock via the returned list.
  void sweep_expired_locked(std::vector<PendingQuery>& expired);
  void execute_batch(std::vector<PendingQuery> batch);
  void finish_batch();

  const DistGraphStorage& storage_;
  const ServeOptions& options_;
  ServiceStats& stats_;
  SspprStatePool pool_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // dispatcher wake-ups
  std::condition_variable idle_cv_;   // drain() / executor-slot waits
  std::deque<PendingQuery> queue_;
  int inflight_batches_ = 0;
  bool paused_ = false;
  bool stop_ = false;

  // Declared after every member its queued batches touch: ~ThreadPool
  // runs still-queued batches, and execute_batch/finish_batch use pool_,
  // stats_, mutex_ and idle_cv_ — so executors_ must be destroyed first,
  // while those are still alive.
  ThreadPool executors_;

  std::thread dispatcher_;
};

}  // namespace ppr::serve
