#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "serve/arrivals.hpp"
#include "serve/service.hpp"

namespace ppr {
namespace {

using serve::ArrivalSchedule;
using serve::QueryFuture;
using serve::QueryResult;
using serve::QueryService;
using serve::QueryStatus;
using serve::ServeOptions;

constexpr double kAlpha = 0.462;
using Clock = std::chrono::steady_clock;

using Entries = std::vector<std::pair<NodeRef, double>>;

Entries sorted_entries(Entries e) {
  std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.first.key() < b.first.key();
  });
  return e;
}

class ServingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = generate_rmat(800, 4000, 0.5, 0.2, 0.2, 99);
    assignment_ = partition_multilevel(graph_, 4);
    cluster_ = std::make_unique<Cluster>(
        graph_, assignment_,
        ClusterOptions{.num_machines = 4, .network = no_network_cost()});
  }

  ServeOptions base_options() const {
    ServeOptions o;
    o.ppr = SspprOptions{.alpha = kAlpha, .epsilon = 1e-6};
    return o;
  }

  /// The fixture's graph and partition behind a slow network: every
  /// cross-machine message takes kSlowMessageUs, so a batch that fetches
  /// remotely runs for tens of ms — far longer than submitting a few
  /// queries takes.
  std::unique_ptr<Cluster> slow_cluster() const {
    return std::make_unique<Cluster>(
        graph_, assignment_,
        ClusterOptions{.num_machines = 4,
                       .network = NetworkModel{kSlowMessageUs, 0.0}});
  }

  /// Wait (bounded) until the service has dispatched `n` batches.
  static void wait_for_batches(const QueryService& service, std::uint64_t n) {
    const auto give_up = Clock::now() + std::chrono::seconds(2);
    while (service.stats().batches < n && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    EXPECT_GE(service.stats().batches, n) << "batch not dispatched in 2 s";
  }

  static constexpr double kSlowMessageUs = 1000;

  Graph graph_;
  PartitionAssignment assignment_;
  std::unique_ptr<Cluster> cluster_;
};

// (a) Results served through the queue/scheduler/batch pipeline are
// bit-identical to direct run_ssppr for the same sources and options.
TEST_F(ServingFixture, ResultsBitIdenticalToDirectRun) {
  ServeOptions o = base_options();
  o.max_batch_size = 4;
  o.max_batch_delay_us = 500;
  QueryService service(*cluster_, o);

  std::vector<NodeId> sources;
  for (NodeId g = 0; g < 16; ++g) {
    sources.push_back((g * 37 + 5) % graph_.num_nodes());
  }
  std::vector<QueryFuture> futures;
  for (const NodeId g : sources) futures.push_back(service.submit(g));

  for (std::size_t i = 0; i < sources.size(); ++i) {
    QueryResult r = futures[i].wait();
    ASSERT_EQ(r.status, QueryStatus::kOk) << "query " << i;
    const NodeRef src = cluster_->locate(sources[i]);
    EXPECT_EQ(r.source, src);
    const SspprState ref =
        compute_ssppr(cluster_->storage(src.shard), src, o.ppr, o.driver);
    const Entries want = sorted_entries(ref.ppr_entries());
    const Entries got = sorted_entries(r.ppr);
    ASSERT_EQ(got.size(), want.size()) << "query " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].first.key(), want[k].first.key());
      ASSERT_EQ(got[k].second, want[k].second);  // bit-identical doubles
    }
    EXPECT_EQ(r.num_pushes, ref.num_pushes());
    EXPECT_GE(r.batch_size, 1u);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, sources.size());
  EXPECT_EQ(stats.completed, sources.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.e2e_us.count, sources.size());
  EXPECT_GT(stats.e2e_us.percentile(0.99), 0.0);
}

// (b) A full admission queue rejects with status instead of blocking.
TEST_F(ServingFixture, FullQueueRejectsWithStatus) {
  ServeOptions o = base_options();
  o.max_queue = 4;
  o.start_paused = true;  // stage the queue deterministically
  QueryService service(*cluster_, o);

  // All sources on machine 0 so they hit the same bounded queue.
  const auto shard0 = static_cast<ShardId>(0);
  const NodeId core = cluster_->shard(0).num_core_nodes();
  std::vector<QueryFuture> futures;
  for (NodeId i = 0; i < 7; ++i) {
    futures.push_back(service.submit(NodeRef{i % core, shard0}));
  }
  // First 4 admitted (pending), last 3 rejected (already resolved).
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(futures[i].ready()) << i;
  for (int i = 4; i < 7; ++i) {
    ASSERT_TRUE(futures[i].ready()) << i;
    EXPECT_EQ(futures[i].wait().status, QueryStatus::kRejected);
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 7u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected, 3u);

  service.resume();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].wait().status, QueryStatus::kOk);
  }
  stats = service.stats();
  EXPECT_EQ(stats.completed, 4u);
}

// (c) An expired deadline resolves TIMED_OUT without executing, and the
// pooled states are recycled (a timed-out query allocates none at all).
TEST_F(ServingFixture, ExpiredDeadlineTimesOutAndRecyclesState) {
  ServeOptions o = base_options();
  o.start_paused = true;
  o.max_batch_size = 8;
  QueryService service(*cluster_, o);

  const auto shard0 = static_cast<ShardId>(0);
  QueryFuture doomed =
      service.submit(NodeRef{0, shard0}, /*deadline_us=*/100);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();
  const QueryResult r = doomed.wait();
  EXPECT_EQ(r.status, QueryStatus::kTimedOut);
  EXPECT_TRUE(r.ppr.empty());
  auto stats = service.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.states_created, 0u)
      << "a timed-out query must not consume a pooled state";

  // The service keeps serving afterwards and the pool warms up normally.
  QueryFuture ok = service.submit(NodeRef{1, shard0});
  EXPECT_EQ(ok.wait().status, QueryStatus::kOk);
  stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.states_created, 1u);
}

// (d) A partial batch never waits for max_batch_size: with no further
// arrivals it goes out at once to an idle executor, or after
// max_batch_delay (or when the executor frees up) while it is busy.
TEST_F(ServingFixture, PartialBatchDispatchesAfterDelay) {
  ServeOptions o = base_options();
  o.max_batch_size = 64;           // never reached
  o.max_batch_delay_us = 3000;     // 3ms
  QueryService service(*cluster_, o);

  const auto shard2 = static_cast<ShardId>(2);
  const NodeId core = cluster_->shard(2).num_core_nodes();
  std::vector<QueryFuture> futures;
  for (NodeId i = 0; i < 3; ++i) {
    futures.push_back(service.submit(NodeRef{i % core, shard2}));
  }
  for (auto& f : futures) {
    const QueryResult r = f.wait();  // blocks until the delay fires
    EXPECT_EQ(r.status, QueryStatus::kOk);
    EXPECT_LE(r.batch_size, 3u);
    EXPECT_GE(r.batch_size, 1u);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, 3u);
  EXPECT_GT(stats.batch_form_us.count, 0u);
}

// (e) Work-conserving dispatch: a query reaching an idle machine runs at
// once and alone — the batch-delay hold applies only while every
// executor is busy.
TEST_F(ServingFixture, IdleExecutorTakesQueryAtOnce) {
  ServeOptions o = base_options();
  o.max_batch_size = 64;        // never reached
  o.max_batch_delay_us = 5e6;   // a 5 s hold, were the executor busy
  QueryService service(*cluster_, o);

  const QueryResult r =
      service.submit(NodeRef{0, static_cast<ShardId>(1)}).wait();
  ASSERT_EQ(r.status, QueryStatus::kOk);
  EXPECT_EQ(r.batch_size, 1u);
  EXPECT_LT(r.queue_wait_us, 0.1 * o.max_batch_delay_us)
      << "an idle executor must not wait out the hold";
}

// (f) While the only executor is busy, arrivals are held as co-riders,
// and the moment it frees up it takes all of them as one batch: q1 runs
// alone, q2-q5 (submitted while q1 executes) run together.
TEST_F(ServingFixture, FreedExecutorTakesWholeQueue) {
  const auto slow = slow_cluster();
  ServeOptions o = base_options();
  o.max_batch_size = 64;        // never reached
  o.max_batch_delay_us = 5e6;   // outlasts q1's execution by far
  o.executors_per_machine = 1;
  QueryService service(*slow, o);

  const auto shard = static_cast<ShardId>(0);
  QueryFuture q1 = service.submit(NodeRef{0, shard});
  wait_for_batches(service, 1);
  std::vector<QueryFuture> rest;
  for (NodeId i = 1; i <= 4; ++i) {
    rest.push_back(service.submit(NodeRef{i, shard}));
  }
  const QueryResult r1 = q1.wait();
  ASSERT_EQ(r1.status, QueryStatus::kOk);
  EXPECT_EQ(r1.batch_size, 1u);
  for (auto& f : rest) {
    const QueryResult r = f.wait();
    ASSERT_EQ(r.status, QueryStatus::kOk);
    EXPECT_EQ(r.batch_size, 4u);
  }
  EXPECT_EQ(service.stats().batches, 2u);
}

// (g) A query's queue wait runs until its batch starts executing. With
// no hold (max_batch_delay_us = 0), q2 is handed to the executor pool at
// once but waits in its pending slot while q1 executes; that wait counts
// as queue wait, so the three stages never overlap and never leave
// time unaccounted before execution.
TEST_F(ServingFixture, QueueWaitEndsWhenExecutionStarts) {
  const auto slow = slow_cluster();
  ServeOptions o = base_options();
  o.max_batch_delay_us = 0;
  o.executors_per_machine = 1;
  QueryService service(*slow, o);

  const auto shard = static_cast<ShardId>(0);
  const auto t1 = Clock::now();
  QueryFuture f1 = service.submit(NodeRef{0, shard});
  wait_for_batches(service, 1);
  QueryFuture f2 = service.submit(NodeRef{1, shard});
  const auto t2 = Clock::now();
  const QueryResult r1 = f1.wait();
  const QueryResult r2 = f2.wait();
  ASSERT_EQ(r1.status, QueryStatus::kOk);
  ASSERT_EQ(r2.status, QueryStatus::kOk);
  EXPECT_EQ(r1.batch_size, 1u);
  EXPECT_EQ(r2.batch_size, 1u);
  EXPECT_EQ(service.stats().batches, 2u);

  // q2 was admitted before t2 and could not start before q1 completed,
  // at or after t1 + q1's e2e: its wait covers the rest of q1's run.
  const double q1_left_us =
      r1.e2e_us -
      std::chrono::duration<double, std::micro>(t2 - t1).count();
  EXPECT_GT(r1.execute_us, 10'000.0) << "q1 must run for tens of ms";
  EXPECT_GE(r2.queue_wait_us + 1.0, q1_left_us)
      << "q2's wait behind the busy executor is queue wait";
  for (const QueryResult& r : {r1, r2}) {
    EXPECT_LE(r.queue_wait_us + r.execute_us, r.e2e_us);
  }
}

// Steady-state serving performs zero per-query SspprState allocations:
// after the first full-size batch, every batch reuses reset() states.
TEST_F(ServingFixture, SteadyStateServingAllocatesNoStates) {
  ServeOptions o = base_options();
  o.max_batch_size = 8;
  o.max_queue = 64;
  o.start_paused = true;
  QueryService service(*cluster_, o);

  const auto shard1 = static_cast<ShardId>(1);
  const NodeId core = cluster_->shard(1).num_core_nodes();
  const auto run_wave = [&](NodeId salt) {
    std::vector<QueryFuture> futures;
    for (NodeId i = 0; i < 8; ++i) {
      futures.push_back(
          service.submit(NodeRef{(i * 13 + salt) % core, shard1}));
    }
    service.resume();
    for (auto& f : futures) EXPECT_EQ(f.wait().status, QueryStatus::kOk);
    service.drain();
    service.pause();
  };

  run_wave(0);  // warm-up: one batch of 8 states gets constructed
  const auto warm = service.stats().states_created;
  EXPECT_EQ(warm, 8u);
  for (NodeId wave = 1; wave <= 3; ++wave) run_wave(wave);
  EXPECT_EQ(service.stats().states_created, warm)
      << "steady-state batches must reuse pooled states";
  EXPECT_EQ(service.stats().completed, 32u);
}

// Seeded Poisson schedules are bit-identical across runs, and so is the
// admission/rejection sequence they induce against a staged queue.
TEST_F(ServingFixture, SeededArrivalsAndAdmissionAreDeterministic) {
  const ArrivalSchedule a =
      serve::make_poisson_schedule(500.0, 64, graph_.num_nodes(), 7);
  const ArrivalSchedule b =
      serve::make_poisson_schedule(500.0, 64, graph_.num_nodes(), 7);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at_seconds[i], b.at_seconds[i]) << i;  // bitwise doubles
    ASSERT_EQ(a.sources[i], b.sources[i]) << i;
  }
  ASSERT_TRUE(std::is_sorted(a.at_seconds.begin(), a.at_seconds.end()));
  const ArrivalSchedule c =
      serve::make_poisson_schedule(500.0, 64, graph_.num_nodes(), 8);
  EXPECT_NE(c.at_seconds, a.at_seconds);

  // Replaying the schedule as a burst against a paused service yields the
  // same admission/rejection sequence both times (per-machine queues fill
  // in schedule order).
  const auto statuses_of = [&] {
    ServeOptions o = base_options();
    o.max_queue = 8;
    o.start_paused = true;
    QueryService service(*cluster_, o);
    std::vector<bool> admitted;
    std::vector<QueryFuture> futures;
    for (std::size_t i = 0; i < a.size(); ++i) {
      QueryFuture f = service.submit(a.sources[i]);
      admitted.push_back(!f.ready());  // rejected futures resolve at once
      futures.push_back(std::move(f));
    }
    service.resume();
    for (auto& f : futures) f.wait();
    return admitted;
  };
  const std::vector<bool> first = statuses_of();
  const std::vector<bool> second = statuses_of();
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::find(first.begin(), first.end(), false) != first.end())
      << "the burst must overflow at least one 8-deep machine queue";
}

// Destroying a service with admitted-but-undispatched queries flushes
// them: every future resolves.
TEST_F(ServingFixture, ShutdownFlushesPendingQueries) {
  std::vector<QueryFuture> futures;
  {
    ServeOptions o = base_options();
    o.start_paused = true;
    QueryService service(*cluster_, o);
    for (NodeId g = 0; g < 8; ++g) {
      futures.push_back(service.submit((g * 11 + 1) % graph_.num_nodes()));
    }
  }  // destructor flushes while still paused
  for (auto& f : futures) {
    EXPECT_EQ(f.wait().status, QueryStatus::kOk);
  }
}

// Admission pins a concrete version even before the first mutation: a
// query admitted at version 0 reads version 0, however many mutations
// land while it waits in the queue.
TEST_F(ServingFixture, AdmissionBeforeFirstMutationPinsVersionZero) {
  ServeOptions o = base_options();
  o.start_paused = true;
  QueryService service(*cluster_, o);
  const NodeId source = 5;
  QueryFuture future = service.submit(source);

  // A heavy new edge at the source changes its answer at version 1.
  const NodeId far = (source + graph_.num_nodes() / 2) % graph_.num_nodes();
  const EdgeMutationOp op{.u = source, .v = far, .weight = 50.0f};
  ASSERT_EQ(cluster_->apply_edge_mutations(std::span(&op, 1)), 1u);
  service.resume();
  const QueryResult r = future.wait();
  ASSERT_EQ(r.status, QueryStatus::kOk);

  const NodeRef src = cluster_->locate(source);
  DriverOptions at0 = o.driver;
  at0.graph_version = 0;
  const Entries want = sorted_entries(
      compute_ssppr(cluster_->storage(src.shard), src, o.ppr, at0)
          .ppr_entries());
  const Entries got = sorted_entries(r.ppr);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].first.key(), want[k].first.key());
    ASSERT_EQ(got[k].second, want[k].second);  // bit-identical doubles
  }
  // The check has teeth: the newest version answers differently.
  const Entries now = sorted_entries(
      compute_ssppr(cluster_->storage(src.shard), src, o.ppr, o.driver)
          .ppr_entries());
  EXPECT_NE(now, want);
}

// A served query's spans form the chain the trace viewer shows: a
// serve.query root, its queue wait and the executing batch as children,
// the batch's per-round fetches below that, and the storage servers'
// rpc.server.* spans sharing the same trace id (shipped in the frame
// header).
TEST_F(ServingFixture, TracedQuerySpansNestAcrossClientAndServer) {
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);

  ServeOptions o = base_options();
  o.max_batch_size = 4;
  o.max_batch_delay_us = 500;
  {
    QueryService service(*cluster_, o);
    std::vector<QueryFuture> futures;
    for (NodeId g = 0; g < 8; ++g) {
      futures.push_back(service.submit((g * 53 + 11) % graph_.num_nodes()));
    }
    for (auto& f : futures) {
      ASSERT_EQ(f.wait().status, QueryStatus::kOk);
    }
  }
  obs::Tracer::global().set_enabled(false);
  const std::vector<obs::SpanRecord> spans = obs::Tracer::global().spans();
  obs::Tracer::global().clear();

  const auto find_span = [&spans](const std::string& name,
                                  std::uint64_t trace_id,
                                  std::uint64_t parent_id)
      -> const obs::SpanRecord* {
    for (const obs::SpanRecord& s : spans) {
      if (s.name != name) continue;
      if (trace_id != 0 && s.trace_id != trace_id) continue;
      if (parent_id != 0 && s.parent_id != parent_id) continue;
      return &s;
    }
    return nullptr;
  };

  // Anchor on a batch whose rounds actually crossed the wire — a batch
  // of queries local to one shard can resolve entirely from core + halo
  // rows and issue no RPCs at all.
  const obs::SpanRecord* batch = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (s.name.rfind("rpc.server.", 0) != 0) continue;
    if (const obs::SpanRecord* b = find_span("serve.batch", s.trace_id, 0)) {
      batch = b;
      break;
    }
  }
  ASSERT_NE(batch, nullptr)
      << "at least one batch must fetch remotely under its trace";
  const std::uint64_t trace = batch->trace_id;
  const obs::SpanRecord* root = find_span("serve.query", trace, 0);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u) << "serve.query is its trace's root";
  EXPECT_EQ(batch->parent_id, root->span_id);

  const obs::SpanRecord* wait =
      find_span("serve.queue_wait", trace, root->span_id);
  ASSERT_NE(wait, nullptr) << "queue wait must hang off the query root";
  EXPECT_LE(wait->start_ns, batch->start_ns)
      << "the wait precedes the batch on the shared timeline";

  const obs::SpanRecord* round =
      find_span("ssppr.batch_round", trace, batch->span_id);
  ASSERT_NE(round, nullptr) << "rounds nest under the batch";
  const obs::SpanRecord* fetch =
      find_span("pipeline.execute", trace, round->span_id);
  ASSERT_NE(fetch, nullptr) << "the round's fetch nests under it";
}

}  // namespace
}  // namespace ppr
