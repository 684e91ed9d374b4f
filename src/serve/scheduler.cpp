#include "serve/scheduler.hpp"

#include <algorithm>
#include <optional>

#include "common/timer.hpp"
#include "engine/ssppr_batch.hpp"
#include "obs/trace.hpp"

namespace ppr::serve {

namespace {

double micros_between(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Retroactive root span of a resolved query (enqueue -> resolution).
/// Inert for untraced queries.
void record_query_span(const PendingQuery& q,
                       std::chrono::steady_clock::time_point end) {
  if (!q.trace.active()) return;
  obs::Tracer::global().record_span("serve.query", q.trace.trace_id,
                                    q.trace.span_id, 0, q.enqueue_time, end);
}

}  // namespace

MachineScheduler::MachineScheduler(const DistGraphStorage& storage,
                                   const ServeOptions& options,
                                   ServiceStats& stats)
    : storage_(storage),
      options_(options),
      stats_(stats),
      pool_(options.ppr),
      paused_(options.start_paused),
      executors_(static_cast<std::size_t>(
                     std::max(1, options.executors_per_machine)),
                 std::max<std::size_t>(1, options.max_pending_batches)) {
  GE_REQUIRE(options.max_queue >= 1, "max_queue must be >= 1");
  GE_REQUIRE(options.max_batch_size >= 1, "max_batch_size must be >= 1");
  GE_REQUIRE(options.max_batch_delay_us >= 0,
             "max_batch_delay_us must be >= 0");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

MachineScheduler::~MachineScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    paused_ = false;  // a paused scheduler still flushes on shutdown
  }
  work_cv_.notify_all();
  dispatcher_.join();
  // ~ThreadPool runs any batches still queued, completing their promises.
}

bool MachineScheduler::try_enqueue(PendingQuery&& q) {
  // Pin at admission: a kVersionLatest query resolves to the newest
  // published graph version here, NOT at dispatch — see PendingQuery.
  q.pinned_version = storage_.resolve_pin(q.pinned_version);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= options_.max_queue) return false;
    queue_.push_back(std::move(q));
  }
  work_cv_.notify_one();
  return true;
}

void MachineScheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void MachineScheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void MachineScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && inflight_batches_ == 0;
  });
}

void MachineScheduler::sweep_expired_locked(
    std::vector<PendingQuery>& expired) {
  const auto now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MachineScheduler::dispatcher_loop() {
  const auto delay = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(options_.max_batch_delay_us));
  const auto executors = static_cast<int>(executors_.size());
  for (;;) {
    std::vector<PendingQuery> expired;
    std::vector<PendingQuery> batch;
    Clock::time_point oldest{};
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Idle / paused wait. While paused with queries still queued, the
      // wait is capped at the earliest per-query deadline so timeouts
      // fire on time even though batch formation is suspended.
      for (;;) {
        if (stop_ || (!paused_ && !queue_.empty())) break;
        sweep_expired_locked(expired);
        if (!expired.empty()) break;
        if (queue_.empty()) {
          work_cv_.wait(lock);
        } else {
          auto wake = queue_.front().deadline;
          for (const PendingQuery& q : queue_) {
            wake = std::min(wake, q.deadline);
          }
          work_cv_.wait_until(lock, wake);
        }
      }
      if (stop_ && queue_.empty()) break;
      if (!stop_) {
        sweep_expired_locked(expired);
        // Work-conserving hold: wait for co-riders only while every
        // executor is busy, and then never past the oldest query's
        // batch-delay deadline nor past the earliest per-query deadline.
        // finish_batch wakes this wait, so a freed executor takes the
        // queue at once.
        while (!stop_ && !paused_ && !queue_.empty() &&
               queue_.size() < options_.max_batch_size &&
               inflight_batches_ >= executors) {
          auto wake = queue_.front().enqueue_time + delay;
          for (const PendingQuery& q : queue_) {
            wake = std::min(wake, q.deadline);
          }
          if (Clock::now() >= wake) break;
          work_cv_.wait_until(lock, wake);
          sweep_expired_locked(expired);
        }
        if (paused_ && !stop_) {
          // Timeouts resolved below; batch formation resumes on resume().
          lock.unlock();
          for (PendingQuery& q : expired) {
            stats_.on_timed_out();
            QueryResult r;
            r.status = QueryStatus::kTimedOut;
            r.source = q.source;
            r.e2e_us = micros_between(q.enqueue_time, Clock::now());
            record_query_span(q, Clock::now());
            q.promise.set_value(std::move(r));
          }
          continue;
        }
      }
      // Form the batch (shutdown flushes everything left, ignoring the
      // delay knob so no promise is abandoned).
      const std::size_t take =
          stop_ ? queue_.size()
                : std::min(queue_.size(), options_.max_batch_size);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (!batch.empty()) {
        oldest = batch.front().enqueue_time;
        for (const PendingQuery& q : batch) {
          oldest = std::min(oldest, q.enqueue_time);
        }
        ++inflight_batches_;
      }
      if (queue_.empty()) idle_cv_.notify_all();
    }

    for (PendingQuery& q : expired) {
      stats_.on_timed_out();
      QueryResult r;
      r.status = QueryStatus::kTimedOut;
      r.source = q.source;
      r.e2e_us = micros_between(q.enqueue_time, Clock::now());
      record_query_span(q, Clock::now());
      q.promise.set_value(std::move(r));
    }
    if (batch.empty()) continue;

    stats_.on_batch(batch.size(), micros_between(oldest, Clock::now()));
    auto job = [this, b = std::move(batch)]() mutable {
      execute_batch(std::move(b));
    };
    // Bounded handoff to the executors: when max_pending_batches batches
    // are already waiting, hold the batch here until a slot frees up —
    // the admission queue keeps absorbing (and eventually rejecting)
    // arrivals in the meantime. try_submit leaves `job` untouched on a
    // reject, so moving it is safe across retries.
    for (;;) {
      if (executors_.try_submit(std::move(job))) break;
      std::unique_lock<std::mutex> lock(mutex_);
      idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
        return executors_.queued() < executors_.max_queued();
      });
    }
  }
}

void MachineScheduler::execute_batch(std::vector<PendingQuery> batch) {
  // A query's queue wait ends here, when an executor starts its batch —
  // not at the hand-off, so time spent in the executor pool's pending
  // slots behind a busy executor is counted too.
  const auto start = Clock::now();
  std::vector<NodeRef> sources;
  sources.reserve(batch.size());
  for (const PendingQuery& q : batch) sources.push_back(q.source);

  // Per-query queue-wait spans, recorded retroactively now that the wait
  // is over. Each parents onto its query's root span.
  for (const PendingQuery& q : batch) {
    if (!q.trace.active()) continue;
    obs::Tracer::global().record_span("serve.queue_wait", q.trace.trace_id,
                                      obs::next_span_id(), q.trace.span_id,
                                      q.enqueue_time, start);
  }
  // The batch executes once for all members; its span lives in the first
  // traced member's trace (nested under that query's root span), and every
  // pipeline round / RPC issued inside inherits it.
  obs::TraceContext batch_owner{};
  for (const PendingQuery& q : batch) {
    if (q.trace.active()) {
      batch_owner = q.trace;
      break;
    }
  }

  // The batch runs at the max pin of its members (all concrete since
  // admission): one coherent snapshot, never older than any member's
  // admission version.
  DriverOptions driver = options_.driver;
  driver.graph_version = 0;
  for (const PendingQuery& q : batch) {
    driver.graph_version = std::max(driver.graph_version, q.pinned_version);
  }

  QueryResult error_result;
  std::string error;
  std::vector<QueryResult> results(batch.size());
  try {
    SspprStatePool::Lease lease = pool_.acquire(sources);
    const std::span<SspprState> states = lease.states();
    WallTimer wall;
    {
      obs::TraceBinding bind(batch_owner);
      std::optional<obs::ScopedSpan> span;
      if (batch_owner.active()) span.emplace("serve.batch");
      run_ssppr_batch(storage_, states, driver);
    }
    const double execute_us = wall.micros();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      QueryResult& r = results[i];
      r.status = QueryStatus::kOk;
      r.source = batch[i].source;
      if (options_.collect_entries) r.ppr = states[i].ppr_entries();
      r.num_pushes = states[i].num_pushes();
      r.batch_size = batch.size();
      r.queue_wait_us = micros_between(batch[i].enqueue_time, start);
      r.execute_us = execute_us;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  const auto done = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!error.empty()) {
      batch[i].promise.set_error(error);
      continue;
    }
    QueryResult& r = results[i];
    r.e2e_us = micros_between(batch[i].enqueue_time, done);
    stats_.on_completed(r.queue_wait_us, r.execute_us, r.e2e_us);
    record_query_span(batch[i], done);
    batch[i].promise.set_value(std::move(r));
  }
  finish_batch();
}

void MachineScheduler::finish_batch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_batches_;
  }
  idle_cv_.notify_all();
  work_cv_.notify_one();  // a freed executor takes the queue at once
}

}  // namespace ppr::serve
