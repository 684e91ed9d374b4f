// ShaDow-style mini-batch construction (§4.5): each batch root gets a
// localized subgraph induced from the nodes with the top-K PPR values,
// with features sliced from a cross-machine feature store.
#pragma once

#include <vector>

#include "gnn/matrix.hpp"
#include "ppr/ssppr_state.hpp"
#include "rpc/endpoint.hpp"
#include "storage/dist_storage.hpp"

namespace ppr::gnn {

inline constexpr const char* kFeatureServiceName = "features";

/// Server side of the cross-machine feature store: features of this
/// machine's core nodes, served over RPC by local id.
class FeatureStoreService {
 public:
  FeatureStoreService(RpcEndpoint& endpoint, Matrix features);

  const Matrix& features() const { return features_; }

 private:
  std::vector<std::uint8_t> handle(const std::string& method,
                                   std::span<const std::uint8_t> payload);
  Matrix features_;
};

/// Client side: slices feature rows for arbitrary NodeRefs, fetching
/// remote rows through RPC and local rows from shared memory.
class DistFeatureStore {
 public:
  DistFeatureStore(RpcEndpoint& endpoint, std::vector<RemoteRef> rrefs,
                   ShardId shard_id, const Matrix* local_features);

  std::size_t feature_dim() const { return local_features_->cols(); }

  /// Returns a |refs| x dim matrix with row i = features of refs[i].
  Matrix fetch(std::span<const NodeRef> refs) const;

 private:
  std::vector<RemoteRef> rrefs_;
  ShardId shard_id_;
  const Matrix* local_features_;
};

/// A PyG-Data-like induced subgraph for one mini-batch.
struct SubgraphBatch {
  std::vector<NodeRef> nodes;       // subgraph index -> node reference
  std::vector<EdgeIndex> indptr;    // CSR over subgraph indices
  std::vector<std::int32_t> adj;
  std::vector<float> edge_weights;
  Matrix x;                          // node features
  std::vector<std::int32_t> ego_idx;  // rows of the batch roots
  std::vector<std::int32_t> y;       // labels of the batch roots

  std::size_t num_nodes() const { return nodes.size(); }
  std::size_t num_edges() const { return adj.size(); }
};

/// Select the top-K nodes by PPR value from `state` (the source node is
/// always included first).
std::vector<NodeRef> topk_ppr_nodes(const SspprState& state, std::size_t k);

/// The paper's convert_batch: induce the subgraph over the union of the
/// batch roots' top-K PPR node sets, slice features, attach labels.
/// Adjacency reads one pinned graph version (the newest published).
/// `labels[i]` must be the label of original global node i.
SubgraphBatch convert_batch(const DistGraphStorage& storage,
                            const DistFeatureStore& features,
                            const GlobalMapping& mapping,
                            std::span<const SspprState> ppr_states,
                            std::size_t k,
                            std::span<const std::int32_t> labels);

/// Deterministic synthetic node features (hash-seeded Gaussian mixture of
/// `num_classes` clusters) and matching labels — a learnable stand-in for
/// the OGB features the paper strips anyway.
Matrix make_synthetic_features(NodeId num_nodes, std::size_t dim,
                               int num_classes, std::uint64_t seed);
std::vector<std::int32_t> make_synthetic_labels(NodeId num_nodes,
                                                int num_classes,
                                                std::uint64_t seed);

}  // namespace ppr::gnn
