// SSPPR query state and the two PPR operators exposed by the engine
// (§3.3): pop (drain the activated vertex set) and push (apply residual
// propagation for a batch of sources given their neighbor info).
//
// The state keeps π (PPR estimates) and r (residuals, which also carry
// activated-set membership) in one of two representations, fixed for the
// state's whole life by SspprOptions::kernel:
//
//   * dense (the default) — flat double arrays indexed by
//     shard_base[shard] + local, a frontier bitmap, and a touched bitmap
//     marking every slot a push ever wrote. No hashing, no probing, and
//     the inner loop vectorizes (common/simd.hpp). reset() and the entry
//     scans walk the touched slots: O(touched + |V|/64), not O(|V|).
//   * sparse — the paper's sharded parallel hash maps keyed by packed
//     <local id, shard id> NodeRefs, kept as the hash-map ablation, as the
//     reference the equality matrices compare against, and for graphs too
//     large for per-state arrays.
//
// The arrays need the cluster's shard sizes. Every SSPPR driver binds
// them (bind_topology) from the storage it runs on before the first pop,
// and a dense state moves into the arrays there, seed included, and stays
// in them across reset(). A state no driver binds keeps the maps. Both
// representations apply the same IEEE operations in the same (i, k) scan
// order and append activations in the same order, and the move into the
// arrays copies values without arithmetic, so results are bit-identical
// across kernels (DESIGN.md §14).
//
// Batched pushes above a size threshold run multi-threaded with the
// lock-free submap-partitioning scheme (each OpenMP thread exclusively
// owns keys with submap_index(key) % num_threads == tid). The dense kernel
// uses the same ownership function, so per-thread activation lists — and
// therefore the merged activation order — match the sparse kernel exactly.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "concurrent/sharded_map.hpp"
#include "rpc/buffer_pool.hpp"
#include "storage/shard.hpp"

namespace ppr {

/// Representation of a state's π and r (fixed for the state's life).
enum class SspprKernel : std::uint8_t {
  kSparse = 0,  // the sharded hash maps, bound or not (the paper's kernel)
  kDense = 1,   // flat arrays once a topology is bound
};

const char* kernel_name(SspprKernel k);

struct SspprOptions {
  double alpha = 0.462;      // teleport probability (paper's default)
  double epsilon = 1e-6;     // residual threshold
  int num_threads = 1;       // max threads for the push operator
  /// Use multi-threaded push only when the batch has at least this many
  /// source nodes (the paper's "simple strategy" for the OpenMP switch).
  std::size_t parallel_threshold = 64;
  int submap_bits = 6;       // 2^bits submaps per hash map
  /// Push-loop representation (see SspprKernel).
  SspprKernel kernel = SspprKernel::kDense;
};

/// Per-node residual entry. in_frontier doubles as activated-set
/// membership so frontier insertion is one submap access.
struct Residual {
  double r = 0;
  bool in_frontier = false;
};

class SspprState {
 public:
  /// Start a query from `source` (which must be a core node of the shard
  /// that owns the query, per the owner-compute rule).
  SspprState(NodeRef source, SspprOptions options);

  /// Recycle this state for a fresh query from `source`: clears π, r, and
  /// the activated set but keeps every submap's allocated capacity and the
  /// dense arrays (zeroing only their touched slots), so a pooled state
  /// serves many queries without reallocating.
  void reset(NodeRef source);

  NodeRef source() const { return source_; }
  const SspprOptions& options() const { return options_; }

  /// Bind the cluster's core-node count per shard (indexed by shard id).
  /// A kDense state moves into the flat arrays here — π, r and frontier as
  /// they stand, values copied bitwise — and stays there for the rest of
  /// its life; a kSparse state keeps the maps. Idempotent for the same
  /// topology; rebinding a dense state to a different one is rejected.
  /// Legal between push calls, never during one.
  void bind_topology(std::span<const NodeId> shard_core_counts);

  /// True once the flat arrays hold the state.
  bool dense_active() const { return dense_; }
  const char* kernel_mode_name() const { return dense_ ? "dense" : "sparse"; }

  /// PPR Op 1 — pop: return the current activated vertex set and clear it.
  /// Every returned node MUST be fed to push() before the next pop.
  void pop(std::vector<NodeId>& node_ids, std::vector<ShardId>& shard_ids);

  /// PPR Op 2 — push: apply one forward-push step to each source node
  /// `(node_ids[i], shard_ids[i])` whose neighborhood is `infos[i]`.
  /// Newly activated nodes (r > ε·d_w, not already queued) join the set.
  void push(std::span<const VertexProp> infos,
            std::span<const NodeId> node_ids,
            std::span<const ShardId> shard_ids);

  /// Overload for decoded remote responses: rows are read straight out of
  /// the batch's CSR arrays (no per-push materialization of a VertexProp
  /// vector — the core push is templated on a row accessor).
  void push(const NeighborBatch& batch, std::span<const NodeId> node_ids,
            std::span<const ShardId> shard_ids);

  bool frontier_empty() const { return activated_.empty(); }
  std::size_t frontier_size() const { return activated_.size(); }

  /// Total push operations applied (for the work-count ablations).
  std::size_t num_pushes() const { return num_pushes_; }

  /// Non-zero PPR estimates accumulated so far (ascending key order in
  /// the dense representation, hash order in the sparse one).
  std::vector<std::pair<NodeRef, double>> ppr_entries() const;
  /// Residual mass per node (diagnostics / invariant tests).
  std::vector<std::pair<NodeRef, double>> residual_entries() const;

  /// Dense |V| vector of PPR values indexed by original global node id.
  std::vector<double> to_dense(const GlobalMapping& mapping,
                               NodeId num_nodes) const;

  /// π-mass + r-mass; equals 1 up to float error at any point of the
  /// algorithm (mass-conservation invariant of forward push). Summed in
  /// canonical ascending-key order (π before r per node) in BOTH
  /// representations, so the value is bit-identical across kernels.
  double total_mass() const;

  /// Pool recycling the per-push round scratch (rv + the dense kernel's
  /// SIMD precompute rows). Separate from BufferPool::global() (the wire
  /// path's pool) so each plane's zero-allocation property is auditable
  /// on its own; registered as `ppr.scratch_pool.*`.
  static BufferPool& scratch_pool();

 private:
  /// Core push, templated on `row(i) -> VertexProp` so span-of-props and
  /// NeighborBatch inputs share one zero-copy implementation.
  template <typename RowFn>
  void push_rows(RowFn&& row, std::span<const NodeId> node_ids,
                 std::span<const ShardId> shard_ids);

  bool in_topology(ShardId shard, NodeId local) const {
    return static_cast<std::uint32_t>(shard) < shard_counts_.size() &&
           static_cast<std::uint32_t>(local) <
               static_cast<std::uint32_t>(
                   shard_counts_[static_cast<std::size_t>(shard)]);
  }
  /// Flat index of a core node in the dense arrays.
  std::size_t slot_for(ShardId shard, NodeId local) const {
    GE_CHECK(in_topology(shard, local), "node outside the bound dense topology");
    return shard_base_[static_cast<std::size_t>(shard)] +
           static_cast<std::size_t>(local);
  }

  /// Calls fn(slot, ref) for every touched slot in ascending slot order,
  /// which is ascending key order.
  template <typename Fn>
  void for_each_touched(Fn&& fn) const;

  void seed(NodeRef source);

  NodeRef source_;
  SspprOptions options_;
  ShardedMap<double> pi_;
  ShardedMap<Residual> residual_;
  std::vector<std::uint64_t> activated_;
  std::size_t num_pushes_ = 0;

  // Dense representation, allocated by bind_topology and kept for the
  // state's lifetime. Invariant: every slot holding a non-zero π or r or
  // a frontier bit has its touched bit set, so clearing the touched slots
  // zeroes the whole state.
  bool dense_ = false;
  std::vector<NodeId> shard_counts_;
  std::vector<std::size_t> shard_base_;  // prefix sums; back() == |V_core|
  std::vector<double> dense_pi_;
  std::vector<double> dense_r_;
  std::vector<std::uint64_t> frontier_bits_;
  std::vector<std::uint64_t> touched_bits_;

  // Per-thread activation lists for the multi-threaded push, merged in
  // thread-id order after the parallel region so the activation order is
  // deterministic (and identical between the sparse and dense kernels).
  std::vector<std::vector<std::uint64_t>> mt_activated_;
};

}  // namespace ppr
