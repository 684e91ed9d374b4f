#include "engine/ssppr_batch.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

namespace {

/// Per-query buffers of the lockstep loop, allocated once per
/// run_ssppr_batch call and recycled every round (capacity kept, so a
/// warm round allocates nothing here). The cross-query union, cache
/// splits, and RPCs all live in the shared FetchPipeline; this keeps each
/// query's popped frontier, its per-shard group positions, and the
/// gather buffers of its push calls (per query, so the OpenMP fan-out
/// never shares one).
struct BatchScratch {
  BatchScratch(std::size_t num_queries, std::size_t num_shards)
      : node_ids(num_queries),
        shard_ids(num_queries),
        groups(num_queries,
               std::vector<std::vector<std::size_t>>(num_shards)),
        infos(num_queries),
        loc(num_queries),
        shv(num_queries) {}

  void begin_round(std::size_t num_queries) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      for (auto& g : groups[q]) g.clear();
    }
  }

  // Per query: this round's popped frontier and, per shard, the positions
  // (into node_ids[q]) of the frontier nodes living on that shard.
  std::vector<std::vector<NodeId>> node_ids;
  std::vector<std::vector<ShardId>> shard_ids;
  std::vector<std::vector<std::vector<std::size_t>>> groups;
  // Per query: the rows, local ids and shard ids of one push call.
  std::vector<std::vector<VertexProp>> infos;
  std::vector<std::vector<NodeId>> loc;
  std::vector<std::vector<ShardId>> shv;
};

}  // namespace

BatchRunStats run_ssppr_batch(const DistGraphStorage& storage,
                              std::span<SspprState> states,
                              const DriverOptions& options) {
  GE_REQUIRE(options.batch,
             "run_ssppr_batch is batched; the Single ablation runs through "
             "run_ssppr");
  const std::size_t nq = states.size();
  const auto ns = static_cast<std::size_t>(storage.num_shards());
  const ShardId self = storage.shard_id();

  BatchRunStats stats;
  stats.num_queries = nq;
  if (nq == 0) return stats;
  // Each state learns the cluster's layout from the storage it runs on;
  // a dense state moves into its flat arrays on its first run.
  const std::span<const NodeId> topology =
      storage.version_tracker().core_rows();
  for (SspprState& s : states) {
    GE_REQUIRE(s.source().shard == self,
               "owner-compute rule: every source must live on this shard");
    s.bind_topology(topology);
  }

  BatchScratch scratch(nq, ns);
  // One admission pin for the whole batch: every query of the lockstep
  // run reads the same graph version (DESIGN.md §15).
  FetchPipeline pipeline(storage, options.graph_version);
  const FetchPipeline::Plan plan{options.compress, options.overlap,
                                 options.codec};
  const auto self_idx = static_cast<std::size_t>(self);

  // One push call of query q: the rows of its shard-`j` group whose halo
  // provenance matches `halo_filter` (-1 takes the whole group), in
  // frontier order.
  const auto push_rows = [&](std::size_t q, std::size_t j,
                              int halo_filter) {
    auto& infos = scratch.infos[q];
    auto& loc = scratch.loc[q];
    auto& shv = scratch.shv[q];
    infos.clear();
    loc.clear();
    shv.clear();
    const auto shard = static_cast<ShardId>(j);
    for (const std::size_t i : scratch.groups[q][j]) {
      const NodeId local = scratch.node_ids[q][i];
      const std::uint32_t row = pipeline.row_of(shard, local);
      if (halo_filter >= 0) {
        const bool is_halo = pipeline.source(shard, row) == RowSource::kHalo;
        if (static_cast<int>(is_halo) != halo_filter) continue;
      }
      infos.push_back(pipeline.row(shard, row));
      loc.push_back(local);
      shv.push_back(shard);
    }
    if (!loc.empty()) states[q].push(infos, loc, shv);
  };
  // The per-query push-call order is own shard, then the halo hits of
  // each remote shard ascending, then the rest of each remote shard
  // ascending — the same for every cache configuration, which is what
  // keeps results bit-identical to independent runs. The first two
  // stages only read rows resolved before the RPCs return, so they ride
  // in the pipeline's overlap hook.
  const auto push_resident = [&](std::size_t q) {
    push_rows(q, self_idx, -1);
    for (std::size_t j = 0; j < ns; ++j) {
      if (j != self_idx) push_rows(q, j, 1);
    }
  };
  const auto push_fetched = [&](std::size_t q) {
    for (std::size_t j = 0; j < ns; ++j) {
      if (j != self_idx) push_rows(q, j, 0);
    }
  };
  // States are disjoint, so the fan-out over queries may run in parallel.
  const int qt =
      std::max(1, std::min(options.query_threads, static_cast<int>(nq)));
  const auto push_all = [&](const auto& push_query) {
    if (qt > 1) {
#ifdef _OPENMP
#pragma omp parallel for num_threads(qt) schedule(dynamic)
      for (std::int64_t q = 0; q < static_cast<std::int64_t>(nq); ++q) {
        push_query(static_cast<std::size_t>(q));
      }
      return;
#endif
    }
    for (std::size_t q = 0; q < nq; ++q) push_query(q);
  };
  double push_us = 0;  // this round's two fan-outs
  const auto fan_out = [&](const auto& push_query) {
    WallTimer wall;
    push_all(push_query);
    push_us += wall.micros();
  };

  for (;;) {
    // --- Pop every query's frontier; stop once all are exhausted. ------
    bool any_active = false;
    {
      WallTimer wall;
      for (std::size_t q = 0; q < nq; ++q) {
        states[q].pop(scratch.node_ids[q], scratch.shard_ids[q]);
        if (!scratch.node_ids[q].empty()) any_active = true;
      }
      pipeline_phase_histogram(Phase::kPop).record(wall.micros());
    }
    if (!any_active) break;
    ++stats.num_iterations;
    obs::ScopedSpan round_span("ssppr.batch_round");
    if (round_span.active()) {
      // mode=dense / mode=sparse when the whole batch agrees, mode=mixed
      // when it holds states of both kernels.
      bool any_dense = false;
      bool any_sparse = false;
      for (const SspprState& s : states) {
        (s.dense_active() ? any_dense : any_sparse) = true;
      }
      round_span.annotate(any_dense && any_sparse
                              ? "mode=mixed"
                              : (any_dense ? "mode=dense" : "mode=sparse"));
    }
    scratch.begin_round(nq);
    pipeline.begin_round();

    // --- Cross-query dedup: every wanted vertex joins its shard's union
    // once, however many queries requested it.
    for (std::size_t q = 0; q < nq; ++q) {
      const auto& nids = scratch.node_ids[q];
      const auto& sids = scratch.shard_ids[q];
      for (std::size_t i = 0; i < nids.size(); ++i) {
        scratch.groups[q][static_cast<std::size_t>(sids[i])].push_back(i);
        pipeline.add(sids[i], nids[i]);
      }
    }

    // --- One pipeline round resolves the whole union: halo/adjacency
    // splits, at most one RPC per remote shard, and the own-shard and
    // halo pushes while responses are in flight; the fetched rows push
    // once they arrived.
    push_us = 0;
    pipeline.execute(plan, [&] { fan_out(push_resident); });
    fan_out(push_fetched);
    pipeline_phase_histogram(Phase::kPush).record(push_us);
  }

  for (const SspprState& s : states) stats.num_pushes += s.num_pushes();
  static auto& batches =
      obs::MetricRegistry::global().counter("engine.ssppr.batches");
  static auto& rounds =
      obs::MetricRegistry::global().counter("engine.ssppr.batch_rounds");
  batches.add(1);
  rounds.add(stats.num_iterations);
  return stats;
}

}  // namespace ppr
