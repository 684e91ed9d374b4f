#include "engine/ssppr_driver.hpp"

#include <array>

#include "engine/ssppr_batch.hpp"
#include "obs/trace.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

namespace {

/// Unbatched baseline ("Single"): one fetch and one push per activated
/// vertex, sequentially — the direct port of Algorithm 1 onto distributed
/// storage that §3.2.3 starts from, kept as the Table-3 ablation. Each
/// phase's per-vertex times are summed over the round and recorded once:
/// the histogram keeps integer µs, so a sub-µs own-shard fetch recorded
/// alone would round to 0.
void run_iteration_single(const DistGraphStorage& g, SspprState& state,
                          std::span<const NodeId> node_ids,
                          std::span<const ShardId> shard_ids,
                          const ShardSnapshot& snap) {
  snap.reset_scratch();
  // lap() charges the time since the previous lap to `phase`.
  std::array<double, kNumPhases> phase_us{};
  WallTimer wall;
  const auto lap = [&](Phase phase) {
    phase_us[static_cast<std::size_t>(phase)] += wall.micros();
    wall.reset();
  };
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    const NodeId one_node[] = {node_ids[i]};
    const ShardId one_shard[] = {shard_ids[i]};
    if (shard_ids[i] == g.shard_id()) {
      const std::vector<VertexProp> infos = snap.get_neighbor_infos(one_node);
      g.stats().local_nodes.fetch_add(1, std::memory_order_relaxed);
      lap(Phase::kLocalFetch);
      state.push(infos, one_node, one_shard);
    } else {
      const NeighborBatch batch =
          g.get_neighbor_info_single_async(shard_ids[i], node_ids[i],
                                           snap.version())
              .wait();
      lap(Phase::kRemoteFetch);
      state.push(batch, one_node, one_shard);
    }
    lap(Phase::kPush);
  }
  for (const Phase phase :
       {Phase::kLocalFetch, Phase::kRemoteFetch, Phase::kPush}) {
    pipeline_phase_histogram(phase).record(
        phase_us[static_cast<std::size_t>(phase)]);
  }
}

}  // namespace

SspprRunStats run_ssppr(const DistGraphStorage& storage, SspprState& state,
                        const DriverOptions& options) {
  SspprRunStats stats;
  obs::ScopedSpan query_span("ssppr.query");
  if (options.batch) {
    stats.num_iterations =
        run_ssppr_batch(storage, std::span<SspprState>(&state, 1), options)
            .num_iterations;
  } else {
    // Admission pin (DESIGN.md §15): resolved ONCE — every iteration of
    // this query reads the same graph version while mutations land.
    const auto snap = storage.local_store().snapshot(
        storage.resolve_pin(options.graph_version));
    state.bind_topology(storage.version_tracker().core_rows());
    std::vector<NodeId> node_ids;
    std::vector<ShardId> shard_ids;
    for (;;) {
      WallTimer wall;
      state.pop(node_ids, shard_ids);
      pipeline_phase_histogram(Phase::kPop).record(wall.micros());
      if (node_ids.empty()) break;
      ++stats.num_iterations;
      obs::ScopedSpan round_span("ssppr.round");
      round_span.annotate(std::string("mode=") + state.kernel_mode_name());
      run_iteration_single(storage, state, node_ids, shard_ids, *snap);
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
                         const DriverOptions& driver_options) {
  GE_REQUIRE(source.shard == storage.shard_id(),
             "owner-compute rule: source must live on this shard");
  SspprState state(source, ppr_options);
  run_ssppr(storage, state, driver_options);
  return state;
}

}  // namespace ppr
