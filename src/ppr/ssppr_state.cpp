#include "ppr/ssppr_state.hpp"

#include <algorithm>
#include <atomic>

#include "common/simd.hpp"
#include "obs/metrics.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace ppr {

const char* kernel_name(SspprKernel k) {
  switch (k) {
    case SspprKernel::kSparse:
      return "sparse";
    case SspprKernel::kDense:
      return "dense";
    case SspprKernel::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

BufferPool& SspprState::scratch_pool() {
  // Attaching metrics forces MetricRegistry::global() to outlive the pool
  // (same ordering trick as BufferPool::global()).
  static BufferPool pool(64, /*register_metrics=*/true, "ppr.scratch_pool");
  return pool;
}

SspprState::SspprState(NodeRef source, SspprOptions options)
    : source_(source),
      options_(std::move(options)),
      pi_(options_.submap_bits),
      residual_(options_.submap_bits) {
  GE_REQUIRE(options_.alpha > 0 && options_.alpha < 1,
             "alpha must be in (0,1)");
  GE_REQUIRE(options_.epsilon > 0, "epsilon must be positive");
  GE_REQUIRE(options_.num_threads >= 1, "num_threads must be >= 1");
  GE_REQUIRE(options_.dense_threshold > 0 && options_.dense_threshold <= 1,
             "dense_threshold must be in (0,1]");
  if (!options_.shard_core_counts.empty()) {
    bind_topology(options_.shard_core_counts);
  }
  seed(source);
}

void SspprState::seed(NodeRef source) {
  source_ = source;
  const std::uint64_t key = source.key();
  residual_.upsert(key, [](Residual& e) {
    e.r = 1.0;
    e.in_frontier = true;
  });
  activated_.push_back(key);
  // A forced-dense kernel lives in the arrays from the very first round.
  if (options_.kernel == SspprKernel::kDense) promote_to_dense();
}

void SspprState::reset(NodeRef source) {
  pi_.clear();
  residual_.clear();
  activated_.clear();
  num_pushes_ = 0;
  last_density_ = 0.0;
  promotions_ = 0;
  demotions_ = 0;
  if (dense_) {
    std::fill(dense_pi_.begin(), dense_pi_.end(), 0.0);
    std::fill(dense_r_.begin(), dense_r_.end(), 0.0);
    std::fill(frontier_bits_.begin(), frontier_bits_.end(), 0u);
    dense_ = false;
  }
  seed(source);
}

void SspprState::bind_topology(std::span<const NodeId> shard_core_counts) {
  if (shard_core_counts.empty()) return;
  if (!shard_counts_.empty()) {
    if (std::equal(shard_counts_.begin(), shard_counts_.end(),
                   shard_core_counts.begin(), shard_core_counts.end())) {
      return;  // idempotent rebind of the same topology
    }
    GE_REQUIRE(!dense_,
               "cannot rebind a different topology while the state is dense");
  }
  std::size_t total = 0;
  for (const NodeId c : shard_core_counts) {
    GE_REQUIRE(c >= 0, "shard_core_counts must be non-negative");
    total += static_cast<std::size_t>(c);
  }
  GE_REQUIRE(total > 0, "topology must contain at least one core node");
  shard_counts_.assign(shard_core_counts.begin(), shard_core_counts.end());
  shard_base_.resize(shard_counts_.size() + 1);
  shard_base_[0] = 0;
  for (std::size_t s = 0; s < shard_counts_.size(); ++s) {
    shard_base_[s + 1] =
        shard_base_[s] + static_cast<std::size_t>(shard_counts_[s]);
  }
  universe_ = total;
  // Any previously sized dense arrays are stale for the new layout; they
  // are all-zero (sparse-mode invariant), so dropping them is loss-free
  // and ensure_dense_storage() re-sizes on the next promotion.
  if (dense_pi_.size() != universe_) {
    dense_pi_.clear();
    dense_r_.clear();
    frontier_bits_.clear();
  }
}

void SspprState::ensure_dense_storage() {
  if (dense_pi_.size() == universe_) return;
  dense_pi_.assign(universe_, 0.0);
  dense_r_.assign(universe_, 0.0);
  frontier_bits_.assign((universe_ + 63) / 64, 0u);
}

void SspprState::promote_to_dense() {
  if (dense_) return;
  GE_REQUIRE(dense_capable(),
             "dense kernel requires a bound shard topology "
             "(SspprOptions::shard_core_counts or bind_topology)");
  ensure_dense_storage();
  residual_.for_each([&](std::uint64_t key, const Residual& e) {
    const std::size_t s = slot_for_key(key);
    dense_r_[s] = e.r;
    if (e.in_frontier) frontier_bits_[s >> 6] |= std::uint64_t{1} << (s & 63);
  });
  pi_.for_each([&](std::uint64_t key, const double& v) {
    dense_pi_[slot_for_key(key)] = v;
  });
  pi_.clear();
  residual_.clear();
  dense_ = true;
  ++promotions_;
  static obs::Counter& promoted =
      obs::MetricRegistry::global().counter("ssppr.kernel_promotions");
  promoted.add(1);
}

void SspprState::demote_to_sparse() {
  if (!dense_) return;
  // Slot order is ascending-key order, so re-insertion is deterministic.
  // Entries with r == 0 and a clear frontier bit carry no information
  // (π-only slots keep their π entry); dropping them is loss-free.
  for (std::size_t shard = 0; shard < shard_counts_.size(); ++shard) {
    const std::size_t base = shard_base_[shard];
    const auto cnt = static_cast<std::size_t>(shard_counts_[shard]);
    for (std::size_t local = 0; local < cnt; ++local) {
      const std::size_t s = base + local;
      const double r = dense_r_[s];
      const bool fb = frontier_bit(s);
      const double v = dense_pi_[s];
      if (r != 0.0 || fb || v != 0.0) {
        const std::uint64_t key =
            NodeRef{static_cast<NodeId>(local), static_cast<ShardId>(shard)}
                .key();
        if (r != 0.0 || fb) {
          residual_.upsert(key, [&](Residual& e) {
            e.r = r;
            e.in_frontier = fb;
          });
        }
        if (v != 0.0) {
          pi_.upsert(key, [&](double& p) { p = v; });
        }
      }
    }
  }
  std::fill(dense_pi_.begin(), dense_pi_.end(), 0.0);
  std::fill(dense_r_.begin(), dense_r_.end(), 0.0);
  std::fill(frontier_bits_.begin(), frontier_bits_.end(), 0u);
  dense_ = false;
  ++demotions_;
  static obs::Counter& demoted =
      obs::MetricRegistry::global().counter("ssppr.kernel_demotions");
  demoted.add(1);
}

void SspprState::record_pop_metrics() const {
  auto& reg = obs::MetricRegistry::global();
  static obs::Counter& mode_sparse =
      reg.counter("ssppr.kernel_mode", {{"mode", "sparse"}});
  static obs::Counter& mode_dense =
      reg.counter("ssppr.kernel_mode", {{"mode", "dense"}});
  static obs::Histogram& density = reg.histogram("ssppr.round_density");
  (dense_ ? mode_dense : mode_sparse).add(1);
  if (dense_capable()) {
    // Densities are fractions; the log-bucketed histogram stores them in
    // parts-per-million.
    density.record(static_cast<std::uint64_t>(last_density_ * 1e6));
  }
}

void SspprState::pop(std::vector<NodeId>& node_ids,
                     std::vector<ShardId>& shard_ids) {
  const std::size_t fsz = activated_.size();
  last_density_ = dense_capable() ? static_cast<double>(fsz) /
                                        static_cast<double>(universe_)
                                  : 0.0;
  // The round boundary: switch representation for the coming push round.
  // An empty frontier means the query is over — never switch on it.
  if (options_.kernel == SspprKernel::kAdaptive && dense_capable() &&
      fsz != 0) {
    if (!dense_ && last_density_ >= options_.dense_threshold) {
      promote_to_dense();
    } else if (dense_ && last_density_ <
                             options_.dense_threshold * kDemoteHysteresis) {
      demote_to_sparse();
    }
  }
  record_pop_metrics();
  node_ids.resize(fsz);
  shard_ids.resize(fsz);
  for (std::size_t i = 0; i < fsz; ++i) {
    const NodeRef ref = NodeRef::from_key(activated_[i]);
    node_ids[i] = ref.local;
    shard_ids[i] = ref.shard;
  }
  activated_.clear();
}

template <typename RowFn>
void SspprState::push_rows(RowFn&& row, std::span<const NodeId> node_ids,
                           std::span<const ShardId> shard_ids) {
  const std::size_t n = node_ids.size();
  GE_REQUIRE(shard_ids.size() == n, "push batch size mismatch");
  if (n == 0) return;
  num_pushes_ += n;

  const double alpha = options_.alpha;
  const double eps = options_.epsilon;
  const bool dense = dense_;

  // Per the paper's "simple strategy": multi-thread only large batches.
  int num_threads = 1;
#ifdef _OPENMP
  if (n >= options_.parallel_threshold && options_.num_threads > 1) {
    num_threads = options_.num_threads;
  }
#endif

  // Round scratch comes from the recycled pool, so steady-state pushes
  // perform no allocations in either kernel mode (audited through
  // ppr.scratch_pool.* by the batch-driver test).
  BufferPool& pool = scratch_pool();
  std::vector<std::uint8_t> rv_buf = pool.acquire(n * sizeof(double));
  rv_buf.resize(n * sizeof(double));
  double* const rv = reinterpret_cast<double*>(rv_buf.data());
  std::fill(rv, rv + n, 0.0);

  // Dense single-threaded rounds precompute each row's residual deltas
  // (w·m) and activation thresholds (ε·d_w) into one 2·maxdeg scratch row
  // through the vectorized widen_mul — the same single IEEE multiply the
  // scalar path performs, so results are bit-identical at every SIMD
  // level. The multi-threaded path keeps the inline scalar products (same
  // bits, no per-thread scratch).
  std::vector<std::uint8_t> row_buf;
  double* row_scratch = nullptr;
  std::size_t maxdeg = 0;
  if (dense && num_threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      maxdeg = std::max(maxdeg, row(i).degree());
    }
    row_buf = pool.acquire(2 * maxdeg * sizeof(double));
    row_buf.resize(2 * maxdeg * sizeof(double));
    row_scratch = reinterpret_cast<double*>(row_buf.data());
  }

  // The owner-partitioned update runs in two barrier-separated steps so
  // residual reads in step 2 never race with the zeroing in step 1:
  //   step 1: the owner of source v's submap drains r(v), updates π(v);
  //   step 2: every thread scans all (source, neighbor) deltas but applies
  //           only those landing in submaps it owns — lock-free. The dense
  //           kernel uses the same submap ownership function, so the
  //           per-thread work (and activation order) matches exactly.
  const auto step1_sparse = [&](std::size_t i) {
    const std::uint64_t key = NodeRef{node_ids[i], shard_ids[i]}.key();
    const std::size_t idx = residual_.submap_index(key);
    Residual& e = residual_.submap(idx)[key];
    const double r = e.r;
    e.r = 0;
    e.in_frontier = false;
    if (r == 0) {
      rv[i] = 0;
      return;
    }
    double& pi = pi_.submap(idx)[key];
    const VertexProp vp = row(i);
    if (vp.degree() == 0 || vp.weighted_degree <= 0) {
      // Dangling node: the walk can go nowhere, so all mass settles here.
      pi += r;
      rv[i] = 0;
    } else {
      pi += alpha * r;
      rv[i] = r;
    }
  };

  const auto step1_dense = [&](std::size_t i, bool mt) {
    const std::size_t s = slot_for(shard_ids[i], node_ids[i]);
    const double r = dense_r_[s];
    dense_r_[s] = 0.0;
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if (mt) {
      // Bitmap words are shared across owner threads; the bit itself is
      // touched only by its owner, but the word RMW must be atomic.
      std::atomic_ref<std::uint64_t>(frontier_bits_[s >> 6])
          .fetch_and(~bit, std::memory_order_relaxed);
    } else {
      frontier_bits_[s >> 6] &= ~bit;
    }
    if (r == 0) {
      rv[i] = 0;
      return;
    }
    const VertexProp vp = row(i);
    if (vp.degree() == 0 || vp.weighted_degree <= 0) {
      dense_pi_[s] += r;
      rv[i] = 0;
    } else {
      dense_pi_[s] += alpha * r;
      rv[i] = r;
    }
  };

  const auto step2_sparse = [&](std::size_t i, std::size_t tid,
                                std::size_t nt,
                                std::vector<std::uint64_t>& activated_out) {
    if (rv[i] == 0) return;
    const VertexProp vp = row(i);
    const double m = (1.0 - alpha) * rv[i] / vp.weighted_degree;
    for (std::size_t k = 0; k < vp.degree(); ++k) {
      const std::uint64_t key_u =
          NodeRef{vp.nbr_local_ids[k], vp.nbr_shard_ids[k]}.key();
      const std::size_t idx = residual_.submap_index(key_u);
      if (nt > 1 && idx % nt != tid) continue;
      Residual& e = residual_.submap(idx)[key_u];
      e.r += static_cast<double>(vp.edge_weights[k]) * m;
      if (!e.in_frontier &&
          e.r > eps * static_cast<double>(vp.nbr_weighted_degrees[k])) {
        e.in_frontier = true;
        activated_out.push_back(key_u);
      }
    }
  };

  const auto step2_dense_st = [&](std::size_t i) {
    if (rv[i] == 0) return;
    const VertexProp vp = row(i);
    const std::size_t deg = vp.degree();
    const double m = (1.0 - alpha) * rv[i] / vp.weighted_degree;
    double* const add = row_scratch;
    double* const thr = row_scratch + deg;
    simd::widen_mul(vp.edge_weights.data(), deg, m, add);
    simd::widen_mul(vp.nbr_weighted_degrees.data(), deg, eps, thr);
    for (std::size_t k = 0; k < deg; ++k) {
      const std::size_t su =
          slot_for(vp.nbr_shard_ids[k], vp.nbr_local_ids[k]);
      const double nr = dense_r_[su] + add[k];
      dense_r_[su] = nr;
      const std::uint64_t bit = std::uint64_t{1} << (su & 63);
      if (!(frontier_bits_[su >> 6] & bit) && nr > thr[k]) {
        frontier_bits_[su >> 6] |= bit;
        activated_.push_back(
            NodeRef{vp.nbr_local_ids[k], vp.nbr_shard_ids[k]}.key());
      }
    }
  };

  if (num_threads <= 1) {
    if (dense) {
      for (std::size_t i = 0; i < n; ++i) step1_dense(i, false);
      for (std::size_t i = 0; i < n; ++i) step2_dense_st(i);
    } else {
      for (std::size_t i = 0; i < n; ++i) step1_sparse(i);
      for (std::size_t i = 0; i < n; ++i) step2_sparse(i, 0, 1, activated_);
    }
    pool.release(std::move(rv_buf));
    pool.release(std::move(row_buf));
    return;
  }

#ifdef _OPENMP
  const auto step2_dense_mt = [&](std::size_t i, std::size_t tid,
                                  std::size_t nt,
                                  std::vector<std::uint64_t>& activated_out) {
    if (rv[i] == 0) return;
    const VertexProp vp = row(i);
    const double m = (1.0 - alpha) * rv[i] / vp.weighted_degree;
    for (std::size_t k = 0; k < vp.degree(); ++k) {
      const std::uint64_t key_u =
          NodeRef{vp.nbr_local_ids[k], vp.nbr_shard_ids[k]}.key();
      if (residual_.submap_index(key_u) % nt != tid) continue;
      const std::size_t su =
          slot_for(vp.nbr_shard_ids[k], vp.nbr_local_ids[k]);
      const double nr =
          dense_r_[su] + static_cast<double>(vp.edge_weights[k]) * m;
      dense_r_[su] = nr;
      const std::uint64_t bit = std::uint64_t{1} << (su & 63);
      std::atomic_ref<std::uint64_t> word(frontier_bits_[su >> 6]);
      if (!(word.load(std::memory_order_relaxed) & bit) &&
          nr > eps * static_cast<double>(vp.nbr_weighted_degrees[k])) {
        word.fetch_or(bit, std::memory_order_relaxed);
        activated_out.push_back(key_u);
      }
    }
  };

  if (mt_activated_.size() < static_cast<std::size_t>(num_threads)) {
    mt_activated_.resize(static_cast<std::size_t>(num_threads));
  }
#pragma omp parallel num_threads(num_threads)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    const auto nt = static_cast<std::size_t>(omp_get_num_threads());
    std::vector<std::uint64_t>& local_activated = mt_activated_[tid];
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = NodeRef{node_ids[i], shard_ids[i]}.key();
      if (residual_.submap_index(key) % nt == tid) {
        if (dense) {
          step1_dense(i, true);
        } else {
          step1_sparse(i);
        }
      }
    }
#pragma omp barrier
    for (std::size_t i = 0; i < n; ++i) {
      if (dense) {
        step2_dense_mt(i, tid, nt, local_activated);
      } else {
        step2_sparse(i, tid, nt, local_activated);
      }
    }
  }
  // Merge in thread-id order (not first-done order): the activation
  // sequence is deterministic and identical between kernel modes.
  for (std::vector<std::uint64_t>& local : mt_activated_) {
    activated_.insert(activated_.end(), local.begin(), local.end());
    local.clear();
  }
#endif
  pool.release(std::move(rv_buf));
  pool.release(std::move(row_buf));
}

void SspprState::push(std::span<const VertexProp> infos,
                      std::span<const NodeId> node_ids,
                      std::span<const ShardId> shard_ids) {
  GE_REQUIRE(infos.size() == node_ids.size(), "push batch size mismatch");
  push_rows([&](std::size_t i) { return infos[i]; }, node_ids, shard_ids);
}

void SspprState::push(const NeighborBatch& batch,
                      std::span<const NodeId> node_ids,
                      std::span<const ShardId> shard_ids) {
  GE_REQUIRE(batch.size() == node_ids.size(), "push batch size mismatch");
  push_rows([&](std::size_t i) { return batch[i]; }, node_ids, shard_ids);
}

std::vector<std::pair<NodeRef, double>> SspprState::ppr_entries() const {
  std::vector<std::pair<NodeRef, double>> out;
  if (dense_) {
    for (std::size_t shard = 0; shard < shard_counts_.size(); ++shard) {
      const std::size_t base = shard_base_[shard];
      const auto cnt = static_cast<std::size_t>(shard_counts_[shard]);
      for (std::size_t local = 0; local < cnt; ++local) {
        const double v = dense_pi_[base + local];
        if (v > 0) {
          out.emplace_back(NodeRef{static_cast<NodeId>(local),
                                   static_cast<ShardId>(shard)},
                           v);
        }
      }
    }
    return out;
  }
  pi_.for_each([&](std::uint64_t key, const double& v) {
    if (v > 0) out.emplace_back(NodeRef::from_key(key), v);
  });
  return out;
}

std::vector<std::pair<NodeRef, double>> SspprState::residual_entries() const {
  std::vector<std::pair<NodeRef, double>> out;
  if (dense_) {
    for (std::size_t shard = 0; shard < shard_counts_.size(); ++shard) {
      const std::size_t base = shard_base_[shard];
      const auto cnt = static_cast<std::size_t>(shard_counts_[shard]);
      for (std::size_t local = 0; local < cnt; ++local) {
        const double r = dense_r_[base + local];
        if (r > 0) {
          out.emplace_back(NodeRef{static_cast<NodeId>(local),
                                   static_cast<ShardId>(shard)},
                           r);
        }
      }
    }
    return out;
  }
  residual_.for_each([&](std::uint64_t key, const Residual& e) {
    if (e.r > 0) out.emplace_back(NodeRef::from_key(key), e.r);
  });
  return out;
}

std::vector<double> SspprState::to_dense(const GlobalMapping& mapping,
                                         NodeId num_nodes) const {
  std::vector<double> dense(static_cast<std::size_t>(num_nodes), 0.0);
  for (const auto& [ref, v] : ppr_entries()) {
    dense[static_cast<std::size_t>(mapping.to_global(ref))] = v;
  }
  return dense;
}

double SspprState::total_mass() const {
  double mass = 0;
  if (dense_) {
    // Slot order == ascending packed-key order; π before r per node.
    for (std::size_t s = 0; s < universe_; ++s) {
      mass += dense_pi_[s];
      mass += dense_r_[s];
    }
    return mass;
  }
  // Canonical ascending-key union (π before r per key) so the sum is
  // bit-identical to the dense slot scan: skipped zero entries are exact
  // no-ops for a sum of non-negative terms.
  std::vector<std::pair<std::uint64_t, double>> pis;
  std::vector<std::pair<std::uint64_t, double>> rs;
  pi_.for_each([&](std::uint64_t key, const double& v) {
    if (v != 0) pis.emplace_back(key, v);
  });
  residual_.for_each([&](std::uint64_t key, const Residual& e) {
    if (e.r != 0) rs.emplace_back(key, e.r);
  });
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(pis.begin(), pis.end(), by_key);
  std::sort(rs.begin(), rs.end(), by_key);
  std::size_t ip = 0;
  std::size_t ir = 0;
  while (ip < pis.size() || ir < rs.size()) {
    if (ir >= rs.size() ||
        (ip < pis.size() && pis[ip].first <= rs[ir].first)) {
      mass += pis[ip++].second;
    } else {
      mass += rs[ir++].second;
    }
  }
  return mass;
}

}  // namespace ppr
