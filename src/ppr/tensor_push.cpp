#include "ppr/tensor_push.hpp"

#include <array>

#include "storage/fetch_pipeline.hpp"

namespace ppr {

TensorPushContext::TensorPushContext(const GlobalMapping& mapping,
                                     NodeId num_nodes,
                                     std::vector<float> dense_weighted_degrees)
    : dense_dw_(std::move(dense_weighted_degrees)),
      dw_(static_cast<std::size_t>(num_nodes)),
      shard_of_(static_cast<std::size_t>(num_nodes)),
      local_of_(static_cast<std::size_t>(num_nodes)) {
  GE_REQUIRE(dense_dw_.size() == static_cast<std::size_t>(num_nodes),
             "weighted degree table size mismatch");
  for (NodeId v = 0; v < num_nodes; ++v) {
    const NodeRef ref = mapping.to_ref(v);
    dw_[static_cast<std::size_t>(v)] =
        static_cast<double>(dense_dw_[static_cast<std::size_t>(v)]);
    shard_of_[static_cast<std::size_t>(v)] = ref.shard;
    local_of_[static_cast<std::size_t>(v)] = ref.local;
  }
  global_of_.reserve(static_cast<std::size_t>(mapping.num_shards()));
  for (int s = 0; s < mapping.num_shards(); ++s) {
    const auto globals = mapping.core_globals(s);
    global_of_.push_back(IntTensor::from_vector(
        std::vector<NodeId>(globals.begin(), globals.end())));
  }
}

namespace {

/// Materialize one shard group's decoded response as tensors (in the real
/// system these arrive as tensors from the RPC layer; rebuilding them here
/// models the concatenation the Python layer performs).
struct GroupTensors {
  IntTensor counts;         // per-source degree
  DoubleTensor src_dw;      // per-source weighted degree
  IntTensor edge_locals;    // flattened neighbor local ids
  IntTensor edge_shards;    // flattened neighbor shard ids
  DoubleTensor edge_weights;
};

template <typename Batch>
GroupTensors batch_to_tensors(const Batch& batch, std::size_t batch_size) {
  // Equivalent to ~5 torch ops (two stacks + three concatenations).
  for (int op = 0; op < 5; ++op) ops::detail::pay_dispatch();
  GroupTensors t;
  t.counts = IntTensor(batch_size);
  t.src_dw = DoubleTensor(batch_size);
  std::size_t total = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    const VertexProp vp = batch[i];
    t.counts[i] = static_cast<std::int32_t>(vp.degree());
    t.src_dw[i] = vp.weighted_degree;
    total += vp.degree();
  }
  t.edge_locals = IntTensor(total);
  t.edge_shards = IntTensor(total);
  t.edge_weights = DoubleTensor(total);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < batch_size; ++i) {
    const VertexProp vp = batch[i];
    for (std::size_t k = 0; k < vp.degree(); ++k) {
      t.edge_locals[pos] = vp.nbr_local_ids[k];
      t.edge_shards[pos] = vp.nbr_shard_ids[k];
      t.edge_weights[pos] = vp.edge_weights[k];
      ++pos;
    }
  }
  return t;
}

}  // namespace

TensorPushResult tensor_forward_push(const DistGraphStorage& storage,
                                     const TensorPushContext& ctx,
                                     NodeId source_global,
                                     const TensorPushOptions& options) {
  GE_REQUIRE(source_global >= 0 && source_global < ctx.num_nodes(),
             "source out of range");
  const auto n = static_cast<std::size_t>(ctx.num_nodes());
  const int num_shards = storage.num_shards();

  TensorPushResult res;
  DoubleTensor p(n);
  DoubleTensor r(n);
  r[static_cast<std::size_t>(source_global)] = 1.0;
  // threshold = eps * d_w, one O(|V|) kernel amortized over the query.
  const DoubleTensor threshold = ops::mul(ctx.dw_tensor(), options.epsilon);

  for (;;) {
    // Activated-node retrieval: r > eps*d_w elementwise + nonzero — two
    // full dense kernels, each allocating. This is the step whose cost is
    // proportional to |V| (the tensor baseline's structural overhead).
    WallTimer wall;
    const LongTensor active = ops::nonzero(ops::greater(r, threshold));
    pipeline_phase_histogram(Phase::kPop).record(wall.micros());
    if (active.empty()) break;
    ++res.num_iterations;
    res.num_pushes += active.size();

    // mask_dict: per-shard masks + masked id selections (Figure 4); not a
    // reported phase, so left untimed.
    std::vector<LongTensor> globals_by_shard(
        static_cast<std::size_t>(num_shards));
    std::vector<IntTensor> locals_by_shard(
        static_cast<std::size_t>(num_shards));
    {
      const IntTensor act_shards =
          ops::index_select(ctx.shard_of_tensor(), active);
      const IntTensor act_locals =
          ops::index_select(ctx.local_of_tensor(), active);
      for (ShardId j = 0; j < num_shards; ++j) {
        const BoolTensor mj = ops::equal(act_shards, j);
        globals_by_shard[static_cast<std::size_t>(j)] =
            ops::masked_select(active, mj);
        locals_by_shard[static_cast<std::size_t>(j)] =
            ops::masked_select(act_locals, mj);
      }
    }

    // This iteration's time per phase, recorded once at its end: lap()
    // charges the time since the previous lap to `phase`.
    std::array<double, kNumPhases> phase_us{};
    const auto lap = [&](Phase phase) {
      phase_us[static_cast<std::size_t>(phase)] += wall.micros();
      wall.reset();
    };

    // Issue all remote fetches asynchronously.
    wall.reset();
    std::vector<NeighborFetch> fetches(static_cast<std::size_t>(num_shards));
    for (ShardId j = 0; j < num_shards; ++j) {
      const auto& locals = locals_by_shard[static_cast<std::size_t>(j)];
      if (j == storage.shard_id() || locals.empty()) continue;
      fetches[static_cast<std::size_t>(j)] = storage.get_neighbor_infos_async(
          j, locals.span(), FetchOptions{.compress = options.compress});
    }
    std::vector<NeighborBatch> batches(static_cast<std::size_t>(num_shards));
    if (!options.overlap) {
      // Wait for every response before local work so the breakdown
      // attributes time unambiguously (Fig. 6 protocol).
      for (ShardId j = 0; j < num_shards; ++j) {
        if (fetches[static_cast<std::size_t>(j)].valid()) {
          batches[static_cast<std::size_t>(j)] =
              fetches[static_cast<std::size_t>(j)].wait();
        }
      }
    }
    lap(Phase::kRemoteFetch);

    // Local fetch through the serialize/decode path: the tensor baseline
    // receives its local neighbor info wrapped in tensors, which is what
    // makes its Local Fetch expensive in Fig. 6.
    NeighborBatch local_batch;
    const auto& own_locals =
        locals_by_shard[static_cast<std::size_t>(storage.shard_id())];
    if (!own_locals.empty()) {
      local_batch = storage.get_neighbor_infos_local_serialized(
          own_locals.span(), FetchOptions{.compress = options.compress});
    }
    lap(Phase::kLocalFetch);

    // Push one shard group with pure tensor kernels.
    const auto push_group = [&](const LongTensor& globals,
                                const GroupTensors& g) {
      const DoubleTensor rv = ops::index_select(r, globals);
      ops::index_fill(r, globals, 0.0);

      const BoolTensor dangling = ops::equal(g.counts, 0);
      // π update: dangling nodes absorb all mass, others α·r.
      const DoubleTensor p_add =
          ops::where(dangling, rv, ops::mul(rv, options.alpha));
      ops::scatter_add(p, globals, p_add);

      if (g.edge_locals.empty()) return;
      // m = (1-α)·r / d_w per source (0 for dangling), expanded per edge.
      const DoubleTensor zeros(rv.size());
      const DoubleTensor m = ops::where(
          dangling, zeros,
          ops::div(ops::mul(rv, 1.0 - options.alpha), g.src_dw));
      const DoubleTensor m_per_edge = ops::repeat_interleave(m, g.counts);
      // Neighbor <local, shard> -> global via the per-shard id tables.
      ops::detail::pay_dispatch();  // per-shard-table gather op
      LongTensor edge_globals(g.edge_locals.size());
      for (std::size_t e = 0; e < g.edge_locals.size(); ++e) {
        edge_globals[e] = ctx.globals_of_shard(g.edge_shards[e])
            [static_cast<std::size_t>(g.edge_locals[e])];
      }
      const DoubleTensor edge_vals = ops::mul(m_per_edge, g.edge_weights);
      ops::scatter_add(r, edge_globals, edge_vals);
    };

    if (!own_locals.empty()) {
      const GroupTensors g = batch_to_tensors(local_batch, local_batch.size());
      lap(Phase::kLocalFetch);
      push_group(
          globals_by_shard[static_cast<std::size_t>(storage.shard_id())], g);
      lap(Phase::kPush);
    }
    for (ShardId j = 0; j < num_shards; ++j) {
      const auto& locals = locals_by_shard[static_cast<std::size_t>(j)];
      if (j == storage.shard_id() || locals.empty()) continue;
      if (options.overlap) {
        batches[static_cast<std::size_t>(j)] =
            fetches[static_cast<std::size_t>(j)].wait();
      }
      const GroupTensors g =
          batch_to_tensors(batches[static_cast<std::size_t>(j)],
                           batches[static_cast<std::size_t>(j)].size());
      lap(Phase::kRemoteFetch);
      push_group(globals_by_shard[static_cast<std::size_t>(j)], g);
      lap(Phase::kPush);
    }
    for (const Phase phase :
         {Phase::kLocalFetch, Phase::kRemoteFetch, Phase::kPush}) {
      pipeline_phase_histogram(phase).record(
          phase_us[static_cast<std::size_t>(phase)]);
    }
  }
  res.ppr = p.take();
  return res;
}

}  // namespace ppr
