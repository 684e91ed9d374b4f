#include "storage/fetch_pipeline.hpp"

#include "obs/trace.hpp"

namespace ppr {

obs::Histogram& pipeline_phase_histogram(Phase phase) {
  // Magic-static init keeps concurrent first calls race-free.
  static const auto make = [](Phase ph) {
    return &obs::MetricRegistry::global().histogram(
        "pipeline.phase_us", {{"phase", phase_name(ph)}});
  };
  static obs::Histogram* const hists[] = {
      make(Phase::kPop), make(Phase::kLocalFetch), make(Phase::kRemoteFetch),
      make(Phase::kPush)};
  return *hists[static_cast<int>(phase)];
}

FetchPipeline::FetchPipeline(const DistGraphStorage& storage,
                             std::uint64_t graph_version)
    : storage_(storage),
      pin_(storage.resolve_pin(graph_version)),
      // Freeze the self-shard now: every round reads the same snapshot no
      // matter how many mutations land while the pipeline runs.
      snapshot_(storage.local_store().snapshot(pin_)) {
  const auto ns = static_cast<std::size_t>(storage.num_shards());
  union_locals_.resize(ns);
  union_index_.resize(ns);
  resolved_.resize(ns);
  sources_.resize(ns);
  arenas_.resize(ns);
  halo_splits_.resize(ns);
  adj_splits_.resize(ns);
  fetch_locals_.resize(ns);
  fetch_rows_.resize(ns);
  fetches_.resize(ns);
  batches_.resize(ns);
}

void FetchPipeline::begin_round() {
  // Merged-row views handed out last round pointed into the snapshot's
  // scratch arena; recycle it with the rest of the round scratch.
  snapshot_->reset_scratch();
  for (std::size_t j = 0; j < union_locals_.size(); ++j) {
    union_locals_[j].clear();
    union_index_[j].clear();
    resolved_[j].clear();
    sources_[j].clear();
    arenas_[j].clear();
    fetch_locals_[j].clear();
    fetch_rows_[j].clear();
    // A stale fetch would be waited on twice when a later round skips
    // this shard; Future::wait() consumes its payload.
    fetches_[j] = NeighborFetch();
  }
}

std::uint32_t FetchPipeline::add(ShardId shard, NodeId local) {
  const auto j = static_cast<std::size_t>(shard);
  auto& index = union_index_[j];
  const auto key = static_cast<std::uint64_t>(local);
  if (const std::uint32_t* row = index.find(key); row != nullptr) {
    return *row;
  }
  const auto row = static_cast<std::uint32_t>(union_locals_[j].size());
  index[key] = row;
  union_locals_[j].push_back(local);
  return row;
}

std::uint32_t FetchPipeline::row_of(ShardId shard, NodeId local) const {
  const std::uint32_t* row =
      union_index_[static_cast<std::size_t>(shard)].find(
          static_cast<std::uint64_t>(local));
  GE_CHECK(row != nullptr, "row_of on a pair never add()ed this round");
  return *row;
}

std::span<const NodeId> FetchPipeline::requested(ShardId shard) const {
  return union_locals_[static_cast<std::size_t>(shard)];
}

std::size_t FetchPipeline::num_rows(ShardId shard) const {
  return union_locals_[static_cast<std::size_t>(shard)].size();
}

void FetchPipeline::resolve_remote_shard(std::size_t j, const Plan& plan) {
  const auto& uni = union_locals_[j];
  resolved_[j].assign(uni.size(), VertexProp{});
  sources_[j].assign(uni.size(), RowSource::kRemote);

  // Rows still unresolved after the halo split, as union rows. Halo rows
  // are version-0 copies: a row first mutated at or before the pin
  // misses the split and reads through the adjacency cache or the
  // owner's snapshot instead. Which rows hit depends on the pin alone,
  // so the halo-first push group does too.
  std::span<const NodeId> pending_locals = uni;
  const std::vector<std::size_t>* pending_rows = nullptr;  // identity
  if (storage_.halo_cache_enabled()) {
    auto& hs = halo_splits_[j];
    hs = storage_.split_by_halo_cache(static_cast<ShardId>(j), uni, pin_);
    for (std::size_t h = 0; h < hs.hit_indices.size(); ++h) {
      resolved_[j][hs.hit_indices[h]] = hs.hit_props[h];
      sources_[j][hs.hit_indices[h]] = RowSource::kHalo;
    }
    stats_.rows_halo += hs.hit_indices.size();
    pending_locals = hs.miss_locals;
    pending_rows = &hs.miss_indices;
  }
  const auto pending_row = [&](std::size_t p) {
    return static_cast<std::uint32_t>(
        pending_rows != nullptr ? (*pending_rows)[p] : p);
  };

  auto& as = adj_splits_[j];
  as = storage_.split_by_adjacency_cache(static_cast<ShardId>(j),
                                         pending_locals, arenas_[j], pin_);
  // All of this shard's arena appends happened inside that one lookup,
  // so the views handed out below stay stable for the round.
  for (std::size_t h = 0; h < as.hit_indices.size(); ++h) {
    const std::uint32_t row = pending_row(as.hit_indices[h]);
    resolved_[j][row] = arenas_[j].row(as.hit_rows[h]);
    sources_[j][row] = RowSource::kCache;
  }
  stats_.rows_cached += as.hit_indices.size();
  for (std::size_t m = 0; m < as.miss_locals.size(); ++m) {
    fetch_locals_[j].push_back(as.miss_locals[m]);
    fetch_rows_[j].push_back(pending_row(as.miss_indices[m]));
  }

  if (!fetch_locals_[j].empty()) {
    FetchOptions options = plan.fetch_options();
    options.graph_version = pin_;
    fetches_[j] = storage_.get_neighbor_infos_async(
        static_cast<ShardId>(j), fetch_locals_[j], options);
    stats_.rows_wire += fetch_locals_[j].size();
    ++stats_.rpcs_issued;
  }
}

void FetchPipeline::execute(const Plan& plan,
                            const std::function<void()>& local_work) {
  const auto ns = union_locals_.size();
  const auto self = static_cast<std::size_t>(storage_.shard_id());
  ++stats_.rounds;
  // One span per resolution round; the RPCs issued below inherit it as
  // their parent, so server-side decode lands under this round's fetch.
  obs::ScopedSpan span("pipeline.execute");

  double remote_us = 0;

  // --- Split by residency and issue at most one RPC per remote shard. ---
  {
    WallTimer wall;
    for (std::size_t j = 0; j < ns; ++j) {
      stats_.rows_requested += union_locals_[j].size();
      if (j == self || union_locals_[j].empty()) continue;
      resolve_remote_shard(j, plan);
    }
    remote_us += wall.micros();
  }

  const auto wait_all = [&] {
    WallTimer wall;
    for (std::size_t j = 0; j < ns; ++j) {
      // Decode into the round-recycled batch so steady-state rounds reuse
      // its vectors' capacity instead of allocating fresh arrays.
      if (fetches_[j].valid()) fetches_[j].wait_into(batches_[j]);
    }
    remote_us += wall.micros();
  };
  // No-overlap mode waits before any local work, so the remote-fetch
  // phase is fully exposed in the breakdown (the Table-3 contrast).
  if (!plan.overlap) wait_all();

  // --- Resolve the self-shard union through shared memory. --------------
  if (!union_locals_[self].empty()) {
    WallTimer wall;
    // The pinned snapshot serves (clean rows are zero-copy base views).
    resolved_[self] = snapshot_->get_neighbor_infos(union_locals_[self]);
    storage_.stats().local_nodes.fetch_add(union_locals_[self].size(),
                                           std::memory_order_relaxed);
    sources_[self].assign(resolved_[self].size(), RowSource::kLocal);
    stats_.rows_local += resolved_[self].size();
    pipeline_phase_histogram(Phase::kLocalFetch).record(wall.micros());
  }

  // --- Overlap hook: caller's local work runs while responses fly. ------
  if (local_work) local_work();

  if (plan.overlap) wait_all();

  // --- Fan responses into their union rows; feed the adjacency cache. ---
  for (std::size_t j = 0; j < ns; ++j) {
    if (fetch_locals_[j].empty()) continue;
    // The peer's frame is well formed but may answer a different number
    // of rows than were asked for; the fan-in below indexes it per row.
    GE_REQUIRE(batches_[j].size() == fetch_locals_[j].size(),
               "storage reply row count differs from the request");
    // Weightless rows (need_weights off) carry zero-filled float arrays;
    // caching them would poison weight-consuming queries.
    if (batches_[j].has_weights()) {
      storage_.insert_adjacency_rows(static_cast<ShardId>(j),
                                     fetch_locals_[j], batches_[j], pin_);
    }
    for (std::size_t m = 0; m < fetch_rows_[j].size(); ++m) {
      resolved_[j][fetch_rows_[j][m]] = batches_[j][m];
    }
  }
  pipeline_phase_histogram(Phase::kRemoteFetch).record(remote_us);
}

}  // namespace ppr
