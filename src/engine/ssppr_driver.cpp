#include "engine/ssppr_driver.hpp"

#include "engine/ssppr_batch.hpp"
#include "obs/trace.hpp"

namespace ppr {

namespace {

/// Unbatched baseline ("Single"): one fetch and one push per activated
/// vertex, sequentially — the direct port of Algorithm 1 onto distributed
/// storage that §3.2.3 starts from, kept as the Table-3 ablation.
void run_iteration_single(const DistGraphStorage& g, SspprState& state,
                          std::span<const NodeId> node_ids,
                          std::span<const ShardId> shard_ids,
                          PhaseTimers& t, const ShardSnapshot& snap) {
  snap.reset_scratch();
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    const NodeId one_node[] = {node_ids[i]};
    const ShardId one_shard[] = {shard_ids[i]};
    if (shard_ids[i] == g.shard_id()) {
      std::vector<VertexProp> infos;
      {
        ScopedPhase phase(t, Phase::kLocalFetch);
        infos = snap.get_neighbor_infos(one_node);
        g.stats().local_nodes.fetch_add(1, std::memory_order_relaxed);
      }
      ScopedPhase phase(t, Phase::kPush);
      state.push(infos, one_node, one_shard);
    } else {
      NeighborBatch batch;
      {
        ScopedPhase phase(t, Phase::kRemoteFetch);
        batch = g.get_neighbor_info_single_async(shard_ids[i], node_ids[i],
                                                 snap.version())
                    .wait();
      }
      ScopedPhase phase(t, Phase::kPush);
      state.push(batch, one_node, one_shard);
    }
  }
}

}  // namespace

SspprRunStats run_ssppr(const DistGraphStorage& storage, SspprState& state,
                        const DriverOptions& options, PhaseTimers* timers) {
  SspprRunStats stats;
  obs::ScopedSpan query_span("ssppr.query");
  if (options.batch) {
    stats.num_iterations =
        run_ssppr_batch(storage, std::span<SspprState>(&state, 1), options,
                        timers)
            .num_iterations;
  } else {
    PhaseTimers local_timers;
    PhaseTimers& t = timers != nullptr ? *timers : local_timers;
    // Admission pin (DESIGN.md §15): resolved ONCE — every iteration of
    // this query reads the same graph version while mutations land.
    const auto snap = storage.local_store().snapshot(
        storage.resolve_pin(options.graph_version));
    std::vector<NodeId> node_ids;
    std::vector<ShardId> shard_ids;
    for (;;) {
      {
        ScopedPhase phase(t, Phase::kPop);
        state.pop(node_ids, shard_ids);
      }
      if (node_ids.empty()) break;
      ++stats.num_iterations;
      obs::ScopedSpan round_span("ssppr.round");
      round_span.annotate(std::string("mode=") + state.kernel_mode_name());
      run_iteration_single(storage, state, node_ids, shard_ids, t, *snap);
    }
  }
  stats.num_pushes = state.num_pushes();
  // Registry mirrors of this run's totals (process-wide across queries).
  static auto& queries =
      obs::MetricRegistry::global().counter("engine.ssppr.queries");
  static auto& iterations =
      obs::MetricRegistry::global().counter("engine.ssppr.iterations");
  static auto& pushes =
      obs::MetricRegistry::global().counter("engine.ssppr.pushes");
  queries.add(1);
  iterations.add(stats.num_iterations);
  pushes.add(stats.num_pushes);
  return stats;
}

SspprState compute_ssppr(const DistGraphStorage& storage, NodeRef source,
                         const SspprOptions& ppr_options,
                         const DriverOptions& driver_options,
                         PhaseTimers* timers) {
  GE_REQUIRE(source.shard == storage.shard_id(),
             "owner-compute rule: source must live on this shard");
  SspprState state(source, ppr_options);
  run_ssppr(storage, state, driver_options, timers);
  return state;
}

}  // namespace ppr
