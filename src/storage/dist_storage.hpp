// Client side of the Distributed Graph Storage (the `DistGraphStorage`
// object of the paper's Figure 4). One instance per computing process.
//
// Every read is pinned to one concrete graph version (DESIGN.md §15):
// own-shard reads go through a ShardSnapshot of the process's versioned
// store (zero-copy VertexProp views for clean rows), remote fetches issue
// asynchronous RPC requests whose header carries the pin and decode the
// response into a NeighborBatch exposing the same VertexProp API.
//
// The halo and adjacency-cache splits judge each row by the process
// tracker's per-row mutation versions, so a write invalidates only the
// rows it touched: a halo copy serves while its row is unmutated at the
// pin, and a cache entry serves while its tag equals its row's last
// mutation.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "cluster/routing.hpp"
#include "cluster/shard_map.hpp"
#include "obs/metrics.hpp"
#include "rpc/endpoint.hpp"
#include "storage/adjacency_cache.hpp"
#include "storage/shard.hpp"
#include "storage/storage_service.hpp"
#include "storage/versioned_shard.hpp"

namespace ppr {

/// Counters for the locality analysis (§4.3: fraction of graph traversal
/// resolved locally vs. remotely) and the batched-driver traffic reports
/// (request/response bytes actually put on the wire).
///
/// The fields are registry instruments (obs/metrics.hpp): constructing
/// with a shard id attaches them as `storage.fetch.*{shard=N}`, so every
/// metrics export carries the per-shard traffic without extra plumbing.
/// The atomic-style accessors (`fetch_add`/`load`) are preserved.
struct FetchStats {
  explicit FetchStats(ShardId shard = -1) {
    if (shard < 0) return;
    const obs::Labels labels{{"shard", std::to_string(shard)}};
    auto& reg = obs::MetricRegistry::global();
    regs_.push_back(reg.attach("storage.fetch.local_nodes", labels,
                               local_nodes));
    regs_.push_back(reg.attach("storage.fetch.remote_nodes", labels,
                               remote_nodes));
    regs_.push_back(reg.attach("storage.fetch.remote_calls", labels,
                               remote_calls));
    regs_.push_back(reg.attach("storage.fetch.halo_hits", labels,
                               halo_hits));
    regs_.push_back(reg.attach("storage.fetch.remote_request_bytes", labels,
                               remote_request_bytes));
    regs_.push_back(reg.attach("storage.fetch.remote_response_bytes",
                               labels, remote_response_bytes));
  }

  obs::ShardedCounter local_nodes;
  obs::ShardedCounter remote_nodes;
  obs::ShardedCounter remote_calls;
  obs::ShardedCounter halo_hits;  // remote refs served locally
  obs::ShardedCounter remote_request_bytes;
  obs::ShardedCounter remote_response_bytes;

  double remote_ratio() const {
    const double l = static_cast<double>(local_nodes.load());
    const double r = static_cast<double>(remote_nodes.load());
    return (l + r) > 0 ? r / (l + r) : 0.0;
  }
  std::uint64_t remote_bytes() const {
    return remote_request_bytes.load() + remote_response_bytes.load();
  }
  void reset() {
    local_nodes = 0;
    remote_nodes = 0;
    remote_calls = 0;
    halo_hits = 0;
    remote_request_bytes = 0;
    remote_response_bytes = 0;
  }

 private:
  std::vector<obs::Registration> regs_;
};

class DistGraphStorage;

/// Book-keeping for one retryable storage RPC: the master copy of the
/// encoded request (pooled — each send ships a fresh pooled copy, so a
/// retry can re-send even though the transport consumed the original)
/// plus where it went. The epoch inside the request header is patched in
/// place on re-resolve (kStorageEpochOffset). Move-only; the destructor
/// recycles an unreleased master copy so abandoned fetches don't leak
/// pool buffers.
struct StorageCall {
  const DistGraphStorage* storage = nullptr;
  const char* method = nullptr;
  ShardId dst = -1;
  int target = -1;  // node the last attempt went to
  std::vector<std::uint8_t> request;

  StorageCall() = default;
  StorageCall(const DistGraphStorage* s, const char* m, ShardId d)
      : storage(s), method(m), dst(d) {}
  StorageCall(StorageCall&& other) noexcept { *this = std::move(other); }
  StorageCall& operator=(StorageCall&& other) noexcept;
  StorageCall(const StorageCall&) = delete;
  StorageCall& operator=(const StorageCall&) = delete;
  ~StorageCall() { release_request(); }

  void release_request();
};

/// Pending remote neighbor-info fetch; wait() decodes the response (and
/// credits the response payload to the issuing client's byte counters).
/// The payload buffer is recycled through the BufferPool after decoding.
/// Waiting drives the retry plane: stale-route redirects re-resolve and
/// re-issue transparently; timeouts and dead peers retry against the
/// current routing table (see DistGraphStorage::await_storage_reply).
class NeighborFetch {
 public:
  NeighborFetch() = default;
  NeighborFetch(RpcFuture future, bool compressed, FetchStats* stats,
                StorageCall call)
      : future_(std::move(future)),
        compressed_(compressed),
        stats_(stats),
        call_(std::move(call)) {}

  bool valid() const { return future_.valid(); }

  NeighborBatch wait() {
    NeighborBatch batch;
    wait_into(batch);
    return batch;
  }

  /// Decode into `out`, reusing its vectors' capacity — the steady-state
  /// path of the fetch pipeline's round-recycled batches.
  void wait_into(NeighborBatch& out);

 private:
  RpcFuture future_;
  bool compressed_ = true;
  FetchStats* stats_ = nullptr;
  StorageCall call_;
};

/// Pending kGetWeightedDegs RPC — the mutation coordinator's hint read.
/// wait() drives the retry plane and decodes one degree per requested
/// row.
class WeightedDegreeFetch {
 public:
  WeightedDegreeFetch() = default;
  WeightedDegreeFetch(RpcFuture future, StorageCall call)
      : future_(std::move(future)), call_(std::move(call)) {}

  bool valid() const { return future_.valid(); }
  std::vector<float> wait();

 private:
  RpcFuture future_;
  StorageCall call_;
};

/// Per-call timeout / bounded-retry knobs of the failover plane. A zero
/// timeout means wait forever (in-process transports can't lose peers
/// silently); attempts counts the first try.
struct RetryPolicy {
  double timeout_s = 0.0;
  int max_attempts = 3;
  double backoff_ms = 1.0;
};

class DistGraphStorage {
 public:
  /// `rrefs[j]` must reference *node* j's storage service; `store` is this
  /// process's own shard in shared memory (the shard id is the store's)
  /// and `tracker` the process-wide version plane every pin resolves
  /// against (DESIGN.md §15). `routing` is the live shard→node table —
  /// every remote fetch resolves its destination through it, never by
  /// assuming node == shard. The table is shared: a ROUTE_UPDATE applied
  /// anywhere on this machine redirects this storage's next fetch.
  DistGraphStorage(RpcEndpoint& endpoint, std::vector<RemoteRef> rrefs,
                   std::shared_ptr<VersionedShardStore> store,
                   std::shared_ptr<VersionTracker> tracker,
                   std::shared_ptr<RoutingTable> routing);

  /// Convenience: a private routing table seeded with `shard_map` (or the
  /// classic identity deployment over `rrefs.size()` shards when the
  /// default-constructed map is passed).
  DistGraphStorage(RpcEndpoint& endpoint, std::vector<RemoteRef> rrefs,
                   std::shared_ptr<VersionedShardStore> store,
                   std::shared_ptr<VersionTracker> tracker,
                   ShardMap shard_map = {});

  ShardId shard_id() const { return shard_id_; }
  int num_shards() const { return routing_->num_shards(); }
  /// Base CSR the storage was built on: core-node ids and the halo cache
  /// (neither changes under mutation or compaction). Adjacency reads go
  /// through local_store() snapshots.
  const GraphShard& local_shard() const { return *local_shard_; }

  /// Snapshot of the epoch-tagged shard→node placement this client
  /// routes by (a fetch that started earlier may still hold an older
  /// snapshot — the stale-route retry absorbs exactly that window).
  std::shared_ptr<const ShardMap> shard_map() const {
    return routing_->current();
  }
  RoutingTable& routing() const { return *routing_; }
  /// Publish a new placement (must have a strictly newer epoch).
  void set_shard_map(ShardMap next);

  /// Failover knobs; default is wait-forever with 3 attempts.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }
  const RetryPolicy& retry_policy() const { return policy_; }

  /// The versioned plane (DESIGN.md §15): this shard's mutable store and
  /// the process-wide version tracker.
  VersionedShardStore& local_store() const { return *local_store_; }
  const VersionTracker& version_tracker() const { return *tracker_; }

  /// True when the local shard carries the halo-adjacency cache (see
  /// GraphShard), letting first-hop "remote" requests be served locally.
  bool halo_cache_enabled() const {
    return local_shard_->has_halo_cache();
  }

  /// Partition a request destined for shard `dst` by halo-cache
  /// residency: `hit_*` entries are served zero-copy from the local halo
  /// cache; `miss_*` entries still need the adjacency cache or the RPC.
  /// Indices refer to positions in `locals`. A halo row is a version-0
  /// copy, so it hits only while the reader's pin `graph_version`
  /// predates the row's first mutation (the tracker's per-row note); a
  /// row first mutated at or before the pin misses.
  struct HaloSplit {
    std::vector<VertexProp> hit_props;
    std::vector<std::size_t> hit_indices;
    std::vector<NodeId> miss_locals;
    std::vector<std::size_t> miss_indices;
  };
  HaloSplit split_by_halo_cache(ShardId dst, std::span<const NodeId> locals,
                                std::uint64_t graph_version) const;

  /// Attach a bounded CLOCK-evicted adjacency cache (see AdjacencyCache)
  /// shared by every computing process of this machine. Rows fetched over
  /// RPC are inserted by the batched drivers and later requests for them
  /// are served locally. Call once during cluster bootstrap.
  void enable_adjacency_cache(std::size_t capacity_rows);
  bool adjacency_cache_enabled() const { return adj_cache_ != nullptr; }
  /// Cache hit/miss/eviction counters; nullptr when the cache is off.
  const AdjacencyCacheStats* adjacency_cache_stats() const {
    return adj_cache_ != nullptr ? &adj_cache_->stats() : nullptr;
  }
  /// Zero the cache counters (cached rows stay resident); no-op when off.
  void reset_adjacency_cache_stats() const {
    if (adj_cache_ != nullptr) adj_cache_->stats().reset();
  }
  std::size_t adjacency_cache_size() const {
    return adj_cache_ != nullptr ? adj_cache_->size() : 0;
  }

  /// Partition a request for shard `dst` by adjacency-cache residency:
  /// hit rows are copied into `arena` (hit_rows[t] = arena row index),
  /// misses still need the RPC. Indices refer to positions in `locals`.
  struct AdjacencySplit {
    std::vector<std::size_t> hit_indices;
    std::vector<std::size_t> hit_rows;
    std::vector<NodeId> miss_locals;
    std::vector<std::size_t> miss_indices;
  };
  /// `graph_version` is the calling query's (concrete) pin; each row's
  /// last-mutation version from the tracker decides its entry's validity
  /// — see AdjacencyCache::lookup's version contract.
  AdjacencySplit split_by_adjacency_cache(ShardId dst,
                                          std::span<const NodeId> locals,
                                          CachedRowArena& arena,
                                          std::uint64_t graph_version) const;

  /// Feed rows decoded from a remote response into the adjacency cache
  /// (no-op when the cache is off). `locals[t]` names `rows[t]`;
  /// `graph_version` is the pin the rows were fetched under. A row whose
  /// key is in this shard's halo was fetched because its halo copy went
  /// stale; it is cached non-evictable, so the refreshed copy stays.
  void insert_adjacency_rows(ShardId dst, std::span<const NodeId> locals,
                             const NeighborBatch& rows,
                             std::uint64_t graph_version) const;

  /// Resolve a requested pin at admission: an explicit version sticks;
  /// kVersionLatest becomes the newest PUBLISHED version (0 before any
  /// mutation), so the query holds one coherent snapshot for its whole
  /// run. Every fetch below resolves its `graph_version` through here, so
  /// only concrete versions reach the wire.
  std::uint64_t resolve_pin(std::uint64_t requested) const {
    return requested != kVersionLatest ? requested : tracker_->published();
  }

  /// Own-shard fetch through the full serialize/deserialize path (used to
  /// quantify what the VertexProp zero-copy path saves).
  NeighborBatch get_neighbor_infos_local_serialized(
      std::span<const NodeId> locals, const FetchOptions& options = {}) const;

  /// Asynchronous batched remote fetch from shard `dst`. `options` picks
  /// the response shape: CSR vs tensor list, flat vs delta-varint arrays,
  /// weights shipped or dropped (see FetchOptions).
  NeighborFetch get_neighbor_infos_async(ShardId dst,
                                         std::span<const NodeId> locals,
                                         const FetchOptions& options = {}) const;

  /// One node per request — the unbatched "Single" ablation baseline.
  NeighborFetch get_neighbor_info_single_async(
      ShardId dst, NodeId local,
      std::uint64_t graph_version = kVersionLatest) const;

  /// Issue a kGetWeightedDegs read of core nodes of shard `dst` at
  /// `graph_version` — the mutation coordinator's pre-insert hint
  /// (EdgeInsert::nbr_weighted_deg) for a shard its machine does not hold
  /// (see Machine::apply_mutations). Returns at once; the coordinator
  /// keeps every shard's read in flight together.
  WeightedDegreeFetch get_weighted_degrees(ShardId dst,
                                           std::span<const NodeId> locals,
                                           std::uint64_t graph_version) const;

  FetchStats& stats() const { return stats_; }

  /// The retry/failover loop every fetch wait routes through. Blocks on
  /// `future` (bounded by the retry policy's timeout); on a stale-route
  /// redirect applies the server's newer map and re-issues; on an
  /// RpcError (peer died, send failed, timeout) backs off and re-issues
  /// against the current routing table — which the endpoint's peer-down
  /// hook has already promoted past a dead primary. Returns the verified
  /// kStorageReplyOk payload (status byte still in front) and recycles
  /// the call's master request buffer. Public-for-the-fetch-classes.
  std::vector<std::uint8_t> await_storage_reply(RpcFuture& future,
                                                StorageCall& call) const;

 private:
  std::vector<std::uint8_t> encode_batch_request(
      ShardId dst, std::span<const NodeId> locals,
      const FetchOptions& options) const;

  /// Send `call.request` (a complete header-prefixed frame) to the node
  /// the routing table currently picks for `call.dst`, patching the
  /// header's epoch in place. Each send ships a pooled copy.
  RpcFuture issue_storage_call(StorageCall& call) const;

  /// Emit the request header for a read at the resolved `graph_version`.
  void write_fetch_header(ByteWriter& w, ShardId dst,
                          std::uint64_t graph_version) const {
    write_storage_header(w, dst, routing_->epoch(),
                         resolve_pin(graph_version));
  }

  RpcEndpoint& endpoint_;
  std::vector<RemoteRef> rrefs_;  // indexed by node id
  std::shared_ptr<RoutingTable> routing_;
  std::shared_ptr<VersionedShardStore> local_store_;
  std::shared_ptr<VersionTracker> tracker_;
  ShardId shard_id_;
  std::shared_ptr<const GraphShard> local_shard_;
  RetryPolicy policy_;
  mutable FetchStats stats_;
  // Shared across the machine's computing processes; mutable because the
  // cache self-updates (ref bits, eviction) on const fetch paths.
  mutable std::unique_ptr<AdjacencyCache> adj_cache_;
};

}  // namespace ppr
