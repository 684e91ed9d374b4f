// "PyTorch Tensor" baseline: distributed parallel Forward Push built only
// from whole-tensor operations over dense |V|-length state (§4.2).
//
// Faithful to the paper's baseline in both semantics and cost model:
// per-query state is a pair of dense |V| tensors (π, r); every step of the
// iteration is a whole-tensor kernel that allocates its output (greater /
// nonzero / masked_select / index_select / where / repeat_interleave /
// scatter_add), so activated-node retrieval and bookkeeping cost O(|V|)
// per iteration regardless of how few nodes are active — the structural
// overhead Table 2 quantifies. Neighbor fetches reuse the same
// Distributed Graph Storage as the engine, with local fetches going
// through the serialize/deserialize (tensor-wrapping) path, exactly as
// the paper describes for the tensor baseline.
#pragma once

#include <memory>
#include <vector>

#include "storage/dist_storage.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace ppr {

struct TensorPushOptions {
  double alpha = 0.462;
  double epsilon = 1e-6;
  bool compress = true;  // CSR-compressed remote responses
  bool overlap = false;  // overlap local ops with in-flight remote calls
};

struct TensorPushResult {
  std::vector<double> ppr;  // dense, indexed by global node id
  std::size_t num_iterations = 0;
  std::size_t num_pushes = 0;
};

/// Per-graph context shared by all tensor-baseline queries: dense lookup
/// tables as tensors (weighted degree, global→shard, global→local,
/// shard→globals).
class TensorPushContext {
 public:
  TensorPushContext(const GlobalMapping& mapping, NodeId num_nodes,
                    std::vector<float> dense_weighted_degrees);

  NodeId num_nodes() const {
    return static_cast<NodeId>(dw_.size());
  }
  const DoubleTensor& dw_tensor() const { return dw_; }
  const IntTensor& shard_of_tensor() const { return shard_of_; }
  const IntTensor& local_of_tensor() const { return local_of_; }
  const IntTensor& globals_of_shard(ShardId s) const {
    return global_of_[static_cast<std::size_t>(s)];
  }

  // Scalar accessors (tests, conversions).
  const std::vector<float>& dense_dw() const { return dense_dw_; }
  ShardId shard_of(NodeId global) const {
    return shard_of_[static_cast<std::size_t>(global)];
  }
  NodeId local_of(NodeId global) const {
    return local_of_[static_cast<std::size_t>(global)];
  }
  NodeId global_of(ShardId shard, NodeId local) const {
    return global_of_[static_cast<std::size_t>(shard)]
                     [static_cast<std::size_t>(local)];
  }

 private:
  std::vector<float> dense_dw_;
  DoubleTensor dw_;
  IntTensor shard_of_;
  IntTensor local_of_;
  std::vector<IntTensor> global_of_;
};

/// Run one whole-graph SSPPR query with the tensor baseline. Each
/// iteration records the Fig.-6 breakdown once into the registry's
/// `pipeline.phase_us` (pop = activated scan, local_fetch, remote_fetch,
/// push = dense update); the per-shard mask construction is left untimed.
TensorPushResult tensor_forward_push(const DistGraphStorage& storage,
                                     const TensorPushContext& ctx,
                                     NodeId source_global,
                                     const TensorPushOptions& options);

}  // namespace ppr
