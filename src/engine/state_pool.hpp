// Thread-safe pool of SspprState blocks for batched execution.
//
// run_ssppr_batch wants a contiguous span of states, and a new SspprState
// allocates every submap of two sharded hash maps, then, at its first
// driver run, the dense kernel's arrays: 16 B per core node, zeroed (about
// 0.1 ms at 20k nodes, 7 ms at 768k) — far too expensive to pay per query
// in steady-state serving. The pool hands out whole blocks (vectors) of
// states: acquire() pops a free block, reset()s as many pooled states as
// the batch needs (keeping their maps' capacity and their dense arrays,
// of which reset() zeroes only the touched slots), and only constructs
// new states when the batch is larger than every block seen so far.
// states_created() counts lifetime constructions so harnesses and tests
// can assert zero allocations once warm.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "ppr/ssppr_state.hpp"

namespace ppr {

class SspprStatePool {
 public:
  explicit SspprStatePool(SspprOptions options) : options_(options) {}

  SspprStatePool(const SspprStatePool&) = delete;
  SspprStatePool& operator=(const SspprStatePool&) = delete;

  /// RAII lease of one block; returns it to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(SspprStatePool* pool, std::unique_ptr<std::vector<SspprState>> block,
          std::size_t used)
        : pool_(pool), block_(std::move(block)), used_(used) {}
    Lease(Lease&& other) noexcept
        : pool_(other.pool_),
          block_(std::move(other.block_)),
          used_(other.used_) {
      other.pool_ = nullptr;
      other.used_ = 0;
    }
    // Returns the target's current block to the pool (a defaulted move
    // would destroy it, silently shrinking the pool) before adopting the
    // source's.
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        if (pool_ != nullptr && block_ != nullptr) {
          pool_->release(std::move(block_));
        }
        pool_ = other.pool_;
        block_ = std::move(other.block_);
        used_ = other.used_;
        other.pool_ = nullptr;
        other.used_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr && block_ != nullptr) {
        pool_->release(std::move(block_));
      }
    }

    /// The states reset to this lease's sources (block may hold more).
    std::span<SspprState> states() {
      return {block_->data(), used_};
    }

   private:
    SspprStatePool* pool_ = nullptr;
    std::unique_ptr<std::vector<SspprState>> block_;
    std::size_t used_ = 0;
  };

  /// Lease a block with one state per source, each reset to its source.
  Lease acquire(std::span<const NodeRef> sources) {
    std::unique_ptr<std::vector<SspprState>> block;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        block = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (block == nullptr) block = std::make_unique<std::vector<SspprState>>();
    if (block->capacity() < sources.size()) block->reserve(sources.size());
    std::size_t created = 0;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (i < block->size()) {
        (*block)[i].reset(sources[i]);
      } else {
        block->emplace_back(sources[i], options_);
        ++created;
      }
    }
    if (created > 0) {
      states_created_.fetch_add(created, std::memory_order_relaxed);
      // Registry mirror: process-wide construction count across pools.
      static auto& reg_created = obs::MetricRegistry::global().counter(
          "engine.state_pool.states_created");
      reg_created.add(created);
    }
    return Lease(this, std::move(block), sources.size());
  }

  const SspprOptions& options() const { return options_; }

  /// Lifetime SspprState constructions (never decremented) — the
  /// steady-state-serving assertion is that this stops growing.
  std::size_t states_created() const {
    return states_created_.load(std::memory_order_relaxed);
  }

 private:
  friend class Lease;

  void release(std::unique_ptr<std::vector<SspprState>> block) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(block));
  }

  SspprOptions options_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<SspprState>>> free_;
  std::atomic<std::size_t> states_created_{0};
};

}  // namespace ppr
