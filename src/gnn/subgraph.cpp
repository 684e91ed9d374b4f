#include "gnn/subgraph.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr::gnn {

FeatureStoreService::FeatureStoreService(RpcEndpoint& endpoint,
                                         Matrix features)
    : features_(std::move(features)) {
  endpoint.register_service(
      kFeatureServiceName,
      [this](const std::string& method,
             std::span<const std::uint8_t> payload) {
        return handle(method, payload);
      });
}

std::vector<std::uint8_t> FeatureStoreService::handle(
    const std::string& method, std::span<const std::uint8_t> payload) {
  GE_REQUIRE(method == "get_features", "unknown feature method: " + method);
  ByteReader r(payload);
  const auto locals = r.read_vec<NodeId>();
  ByteWriter w;
  w.write<std::uint64_t>(locals.size());
  w.write<std::uint64_t>(features_.cols());
  for (const NodeId l : locals) {
    GE_REQUIRE(l >= 0 && static_cast<std::size_t>(l) < features_.rows(),
               "feature row out of range");
    w.write_bytes(features_.row(static_cast<std::size_t>(l)),
                  features_.cols() * sizeof(float));
  }
  return w.take();
}

DistFeatureStore::DistFeatureStore(RpcEndpoint& endpoint,
                                   std::vector<RemoteRef> rrefs,
                                   ShardId shard_id,
                                   const Matrix* local_features)
    : rrefs_(std::move(rrefs)),
      shard_id_(shard_id),
      local_features_(local_features) {
  (void)endpoint;
  GE_REQUIRE(local_features_ != nullptr, "null local features");
}

Matrix DistFeatureStore::fetch(std::span<const NodeRef> refs) const {
  const std::size_t dim = feature_dim();
  Matrix out(refs.size(), dim);
  // Group requests by shard; local rows copy directly.
  std::vector<std::vector<std::size_t>> by_shard(rrefs_.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    by_shard[static_cast<std::size_t>(refs[i].shard)].push_back(i);
  }
  std::vector<RpcFuture> futures(rrefs_.size());
  for (std::size_t s = 0; s < rrefs_.size(); ++s) {
    if (by_shard[s].empty() || static_cast<ShardId>(s) == shard_id_) continue;
    ByteWriter w;
    std::vector<NodeId> locals;
    locals.reserve(by_shard[s].size());
    for (const std::size_t i : by_shard[s]) locals.push_back(refs[i].local);
    w.write_vec(locals);
    futures[s] = rrefs_[s].async_call("get_features", w.take());
  }
  // Local slice while remote fetches are in flight.
  for (const std::size_t i :
       by_shard[static_cast<std::size_t>(shard_id_)]) {
    std::copy_n(
        local_features_->row(static_cast<std::size_t>(refs[i].local)), dim,
        out.row(i));
  }
  for (std::size_t s = 0; s < rrefs_.size(); ++s) {
    if (by_shard[s].empty() || static_cast<ShardId>(s) == shard_id_) continue;
    const auto payload = futures[s].wait();
    ByteReader r(payload);
    const auto n = r.read<std::uint64_t>();
    const auto d = r.read<std::uint64_t>();
    GE_CHECK(n == by_shard[s].size() && d == dim,
             "feature response shape mismatch");
    for (const std::size_t i : by_shard[s]) {
      for (std::size_t j = 0; j < dim; ++j) {
        out.at(i, j) = r.read<float>();
      }
    }
  }
  return out;
}

std::vector<NodeRef> topk_ppr_nodes(const SspprState& state, std::size_t k) {
  auto entries = state.ppr_entries();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second
                                : a.first.key() < b.first.key();
  });
  std::vector<NodeRef> out;
  out.reserve(std::min(k, entries.size()) + 1);
  out.push_back(state.source());
  for (const auto& [ref, value] : entries) {
    if (out.size() > k) break;
    if (ref == state.source()) continue;
    out.push_back(ref);
  }
  return out;
}

SubgraphBatch convert_batch(const DistGraphStorage& storage,
                            const DistFeatureStore& features,
                            const GlobalMapping& mapping,
                            std::span<const SspprState> ppr_states,
                            std::size_t k,
                            std::span<const std::int32_t> labels) {
  SubgraphBatch batch;
  // Union of top-K node sets; remember each root's subgraph index.
  std::unordered_map<std::uint64_t, std::int32_t> index_of;
  for (const SspprState& state : ppr_states) {
    for (const NodeRef ref : topk_ppr_nodes(state, k)) {
      if (index_of.emplace(ref.key(),
                           static_cast<std::int32_t>(batch.nodes.size()))
              .second) {
        batch.nodes.push_back(ref);
      }
    }
  }
  for (const SspprState& state : ppr_states) {
    batch.ego_idx.push_back(index_of.at(state.source().key()));
    batch.y.push_back(
        labels[static_cast<std::size_t>(mapping.to_global(state.source()))]);
  }

  // Fetch every selected node's neighborhood in one pipeline round: one
  // pin for the whole batch, own-shard rows through its snapshot, remote
  // rows over the caches and at most one RPC per shard.
  FetchPipeline pipeline(storage);
  for (const NodeRef ref : batch.nodes) pipeline.add(ref.shard, ref.local);

  // Induce edges: keep (v,u) when both endpoints are selected.
  std::vector<std::vector<std::pair<std::int32_t, float>>> adj_rows(
      batch.nodes.size());
  const auto add_edges = [&](std::size_t row) {
    const NodeRef v = batch.nodes[row];
    const VertexProp vp =
        pipeline.row(v.shard, pipeline.row_of(v.shard, v.local));
    for (std::size_t e = 0; e < vp.degree(); ++e) {
      const NodeRef u{vp.nbr_local_ids[e], vp.nbr_shard_ids[e]};
      const auto it = index_of.find(u.key());
      if (it != index_of.end()) {
        adj_rows[row].emplace_back(it->second, vp.edge_weights[e]);
      }
    }
  };
  // Own-shard rows induce while remote rows are in flight.
  const ShardId self = storage.shard_id();
  pipeline.execute({}, [&] {
    for (std::size_t i = 0; i < batch.nodes.size(); ++i) {
      if (batch.nodes[i].shard == self) add_edges(i);
    }
  });
  for (std::size_t i = 0; i < batch.nodes.size(); ++i) {
    if (batch.nodes[i].shard != self) add_edges(i);
  }

  batch.indptr.assign(batch.nodes.size() + 1, 0);
  for (std::size_t i = 0; i < adj_rows.size(); ++i) {
    batch.indptr[i + 1] =
        batch.indptr[i] + static_cast<EdgeIndex>(adj_rows[i].size());
  }
  batch.adj.reserve(static_cast<std::size_t>(batch.indptr.back()));
  batch.edge_weights.reserve(batch.adj.capacity());
  for (const auto& row : adj_rows) {
    for (const auto& [col, wgt] : row) {
      batch.adj.push_back(col);
      batch.edge_weights.push_back(wgt);
    }
  }

  batch.x = features.fetch(batch.nodes);
  return batch;
}

Matrix make_synthetic_features(NodeId num_nodes, std::size_t dim,
                               int num_classes, std::uint64_t seed) {
  GE_REQUIRE(num_classes >= 2, "need at least two classes");
  // Class prototypes, then per-node prototype + noise: nodes of the same
  // class cluster in feature space, so a linear/GNN model can learn it.
  Matrix prototypes = Matrix::randn(static_cast<std::size_t>(num_classes),
                                    dim, 1.0f, seed ^ 0xfeedULL);
  Matrix x(static_cast<std::size_t>(num_nodes), dim);
  for (NodeId v = 0; v < num_nodes; ++v) {
    Rng rng(seed + static_cast<std::uint64_t>(v));
    const int c = static_cast<int>(
        rng.next_u64(static_cast<std::uint64_t>(num_classes)));
    for (std::size_t j = 0; j < dim; ++j) {
      x.at(static_cast<std::size_t>(v), j) =
          prototypes.at(static_cast<std::size_t>(c), j) +
          0.5f * (rng.next_float(-1.0f, 1.0f));
    }
  }
  return x;
}

std::vector<std::int32_t> make_synthetic_labels(NodeId num_nodes,
                                                int num_classes,
                                                std::uint64_t seed) {
  std::vector<std::int32_t> y(static_cast<std::size_t>(num_nodes));
  for (NodeId v = 0; v < num_nodes; ++v) {
    Rng rng(seed + static_cast<std::uint64_t>(v));
    y[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(
        rng.next_u64(static_cast<std::uint64_t>(num_classes)));
  }
  return y;
}

}  // namespace ppr::gnn
