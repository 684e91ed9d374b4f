#include "storage/dist_storage.hpp"

#include <cstring>
#include <thread>

#include "rpc/buffer_pool.hpp"

namespace ppr {

namespace {
/// Constructor-argument check usable in a member-initializer list.
template <typename T>
std::shared_ptr<T> required(std::shared_ptr<T> ptr, const char* what) {
  GE_REQUIRE(ptr != nullptr, what);
  return ptr;
}
}  // namespace

StorageCall& StorageCall::operator=(StorageCall&& other) noexcept {
  if (this == &other) return *this;
  release_request();
  storage = other.storage;
  method = other.method;
  dst = other.dst;
  target = other.target;
  request = std::move(other.request);
  other.storage = nullptr;
  other.request = std::vector<std::uint8_t>();
  return *this;
}

void StorageCall::release_request() {
  if (request.capacity() == 0) return;
  BufferPool::global().release(std::move(request));
  request = std::vector<std::uint8_t>();
}

DistGraphStorage::DistGraphStorage(
    RpcEndpoint& endpoint, std::vector<RemoteRef> rrefs,
    std::shared_ptr<VersionedShardStore> store,
    std::shared_ptr<VersionTracker> tracker,
    std::shared_ptr<RoutingTable> routing)
    : endpoint_(endpoint),
      rrefs_(std::move(rrefs)),
      routing_(std::move(routing)),
      local_store_(required(std::move(store), "null local store")),
      tracker_(required(std::move(tracker), "null version tracker")),
      shard_id_(local_store_->shard_id()),
      local_shard_(local_store_->base()),
      stats_(shard_id_) {
  if (routing_ == nullptr) {
    routing_ = std::make_shared<RoutingTable>(
        ShardMap::identity(static_cast<int>(rrefs_.size())));
  }
  GE_REQUIRE(shard_id_ >= 0 && shard_id_ < routing_->num_shards(),
             "shard id out of range");
  for (const std::int32_t node : routing_->current()->placement()) {
    GE_REQUIRE(node < static_cast<std::int32_t>(rrefs_.size()),
               "shard map names a node with no storage rref");
  }
}

DistGraphStorage::DistGraphStorage(
    RpcEndpoint& endpoint, std::vector<RemoteRef> rrefs,
    std::shared_ptr<VersionedShardStore> store,
    std::shared_ptr<VersionTracker> tracker, ShardMap shard_map)
    : DistGraphStorage(
          endpoint, std::move(rrefs), std::move(store), std::move(tracker),
          shard_map.valid()
              ? std::make_shared<RoutingTable>(std::move(shard_map))
              : nullptr) {}

void DistGraphStorage::set_shard_map(ShardMap next) {
  GE_REQUIRE(next.valid(), "cannot publish an unset shard map");
  for (const std::int32_t node : next.placement()) {
    GE_REQUIRE(node < static_cast<std::int32_t>(rrefs_.size()),
               "shard map names a node with no storage rref");
  }
  GE_REQUIRE(routing_->apply(std::move(next)),
             "shard map epoch must advance");
}

RpcFuture DistGraphStorage::issue_storage_call(StorageCall& call) const {
  GE_REQUIRE(call.request.size() >= kStorageHeaderBytes,
             "storage call without routing header");
  // Patch the routing epoch in place: the rest of the frame is
  // placement-independent, so a retry only refreshes the header.
  const std::uint64_t epoch = routing_->epoch();
  std::memcpy(call.request.data() + kStorageEpochOffset, &epoch,
              sizeof(epoch));
  call.target = routing_->read_target(call.dst);
  GE_REQUIRE(call.target >= 0 &&
                 call.target < static_cast<int>(rrefs_.size()),
             "routing names a node with no storage rref");
  // The transport consumes whatever buffer it sends; ship a pooled copy
  // and keep the master in the call for potential retries.
  ByteWriter w(BufferPool::global().acquire());
  w.write_bytes(call.request.data(), call.request.size());
  return endpoint_.async_call(call.target, kStorageServiceName,
                              call.method, w.take());
}

std::vector<std::uint8_t> DistGraphStorage::await_storage_reply(
    RpcFuture& future, StorageCall& call) const {
  auto& retries = obs::MetricRegistry::global().counter("rpc.retries");
  int attempts_left = std::max(1, policy_.max_attempts);
  for (;;) {
    std::vector<std::uint8_t> payload;
    try {
      if (policy_.timeout_s > 0 &&
          !future.wait_ready_for(
              std::chrono::duration<double>(policy_.timeout_s))) {
        throw RpcError("storage rpc to node " +
                       std::to_string(call.target) + " timed out after " +
                       std::to_string(policy_.timeout_s) + "s");
      }
      payload = future.wait();
    } catch (const RpcError&) {
      // Send failure, timeout, or the peer died with the call in flight.
      // The endpoint's peer-down hook has already promoted the routing
      // table past a dead primary, so re-resolving below finds a live
      // replica (or the same node, for a transient error).
      if (--attempts_left <= 0) throw;
      retries.add(1);
      if (policy_.backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(policy_.backoff_ms));
      }
      future = issue_storage_call(call);
      continue;
    }
    GE_REQUIRE(!payload.empty(), "empty storage reply");
    if (payload[0] == kStorageReplyOk) {
      call.release_request();
      return payload;
    }
    GE_REQUIRE(payload[0] == kStorageReplyStaleRoute,
               "unknown storage reply status byte");
    // The server no longer holds the shard; its reply carries its (newer)
    // map. Adopt it and transparently re-issue to the new owner.
    ByteReader r(std::span<const std::uint8_t>(payload).subspan(1));
    routing_->apply(ShardMap::decode(r));
    BufferPool::global().release(std::move(payload));
    if (--attempts_left <= 0) {
      throw RpcError("routing for shard " + std::to_string(call.dst) +
                     " did not converge after retries");
    }
    retries.add(1);
    future = issue_storage_call(call);
  }
}

NeighborBatch DistGraphStorage::get_neighbor_infos_local_serialized(
    std::span<const NodeId> locals, const FetchOptions& options) const {
  stats_.local_nodes.fetch_add(locals.size(), std::memory_order_relaxed);
  const auto snap =
      local_store_->snapshot(resolve_pin(options.graph_version));
  ByteWriter w(BufferPool::global().acquire());
  NeighborBatch batch;
  if (options.compress) {
    snap->encode_neighbor_infos_csr(locals, w, options);
    ByteReader r(w.bytes());
    batch = NeighborBatch::decode_csr(r);
  } else {
    snap->encode_neighbor_infos_tensor_list(locals, w);
    ByteReader r(w.bytes());
    batch = NeighborBatch::decode_tensor_list(r);
  }
  BufferPool::global().release(w.take());
  return batch;
}

DistGraphStorage::HaloSplit DistGraphStorage::split_by_halo_cache(
    ShardId dst, std::span<const NodeId> locals,
    std::uint64_t graph_version) const {
  GE_REQUIRE(dst != shard_id_, "split is for remote shards");
  HaloSplit split;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    auto prop = local_shard_->halo_vertex_prop(NodeRef{locals[i], dst});
    if (prop.has_value()) {
      // The copy is the row at version 0: stale once the row was first
      // mutated at or before the pin.
      const std::uint64_t first = tracker_->first_mutation(dst, locals[i]);
      if (first != 0 && first <= graph_version) prop.reset();
    }
    if (prop.has_value()) {
      split.hit_props.push_back(*prop);
      split.hit_indices.push_back(i);
    } else {
      split.miss_locals.push_back(locals[i]);
      split.miss_indices.push_back(i);
    }
  }
  stats_.halo_hits.fetch_add(split.hit_indices.size(),
                             std::memory_order_relaxed);
  stats_.local_nodes.fetch_add(split.hit_indices.size(),
                               std::memory_order_relaxed);
  return split;
}

void DistGraphStorage::enable_adjacency_cache(std::size_t capacity_rows) {
  GE_REQUIRE(adj_cache_ == nullptr, "adjacency cache already enabled");
  adj_cache_ = std::make_unique<AdjacencyCache>(capacity_rows, shard_id_);
}

DistGraphStorage::AdjacencySplit DistGraphStorage::split_by_adjacency_cache(
    ShardId dst, std::span<const NodeId> locals, CachedRowArena& arena,
    std::uint64_t graph_version) const {
  GE_REQUIRE(dst != shard_id_, "split is for remote shards");
  AdjacencySplit split;
  if (adj_cache_ == nullptr) {
    split.miss_locals.assign(locals.begin(), locals.end());
    split.miss_indices.resize(locals.size());
    for (std::size_t i = 0; i < locals.size(); ++i) split.miss_indices[i] = i;
    return split;
  }
  std::vector<std::uint64_t> last_mut(locals.size());
  for (std::size_t i = 0; i < locals.size(); ++i) {
    last_mut[i] = tracker_->last_mutation(dst, locals[i]);
  }
  adj_cache_->lookup(dst, locals, arena, split.hit_indices, split.hit_rows,
                     split.miss_locals, split.miss_indices, last_mut,
                     graph_version);
  // Cache hits count as locally served traversal, like halo hits.
  stats_.local_nodes.fetch_add(split.hit_indices.size(),
                               std::memory_order_relaxed);
  return split;
}

void DistGraphStorage::insert_adjacency_rows(
    ShardId dst, std::span<const NodeId> locals, const NeighborBatch& rows,
    std::uint64_t graph_version) const {
  if (adj_cache_ == nullptr) return;
  GE_REQUIRE(locals.size() == rows.size(),
             "adjacency insert size mismatch");
  for (std::size_t t = 0; t < locals.size(); ++t) {
    const bool in_halo =
        local_shard_->halo_vertex_prop(NodeRef{locals[t], dst}).has_value();
    adj_cache_->insert(dst, locals[t], rows[t],
                       tracker_->last_mutation(dst, locals[t]),
                       graph_version, /*evictable=*/!in_halo);
  }
}

std::vector<std::uint8_t> DistGraphStorage::encode_batch_request(
    ShardId dst, std::span<const NodeId> locals,
    const FetchOptions& options) const {
  ByteWriter w(BufferPool::global().acquire());
  write_fetch_header(w, dst, options.graph_version);
  std::uint8_t flags = options.compress ? kFetchFlagCompress : 0;
  if (options.codec == WireCodec::kDeltaVarint) flags |= kFetchFlagVarint;
  if (!options.need_weights) flags |= kFetchFlagNoWeights;
  w.write<std::uint8_t>(flags);
  if (options.codec == WireCodec::kDeltaVarint) {
    // Local ids are small non-negative ints; varint-pack the request too.
    w.write_uvarint(locals.size());
    for (const NodeId local : locals) {
      w.write_uvarint(static_cast<std::uint64_t>(local));
    }
  } else {
    w.write_span(locals);
  }
  return w.take();
}

NeighborFetch DistGraphStorage::get_neighbor_infos_async(
    ShardId dst, std::span<const NodeId> locals,
    const FetchOptions& options) const {
  GE_REQUIRE(dst >= 0 && dst < static_cast<ShardId>(num_shards()),
             "dst shard out of range");
  stats_.remote_nodes.fetch_add(locals.size(), std::memory_order_relaxed);
  stats_.remote_calls.fetch_add(1, std::memory_order_relaxed);
  StorageCall call(this, storage_method::kGetNeighborInfos, dst);
  call.request = encode_batch_request(dst, locals, options);
  stats_.remote_request_bytes.fetch_add(call.request.size(),
                                        std::memory_order_relaxed);
  RpcFuture future = issue_storage_call(call);
  return NeighborFetch(std::move(future), options.compress, &stats_,
                       std::move(call));
}

NeighborFetch DistGraphStorage::get_neighbor_info_single_async(
    ShardId dst, NodeId local, std::uint64_t graph_version) const {
  GE_REQUIRE(dst >= 0 && dst < static_cast<ShardId>(num_shards()),
             "dst shard out of range");
  stats_.remote_nodes.fetch_add(1, std::memory_order_relaxed);
  stats_.remote_calls.fetch_add(1, std::memory_order_relaxed);
  StorageCall call(this, storage_method::kGetNeighborInfoSingle, dst);
  ByteWriter w(BufferPool::global().acquire());
  write_fetch_header(w, dst, graph_version);
  w.write<NodeId>(local);
  call.request = w.take();
  stats_.remote_request_bytes.fetch_add(call.request.size(),
                                        std::memory_order_relaxed);
  RpcFuture future = issue_storage_call(call);
  return NeighborFetch(std::move(future), /*compressed=*/false, &stats_,
                       std::move(call));
}

void NeighborFetch::wait_into(NeighborBatch& out) {
  std::vector<std::uint8_t> payload =
      call_.storage != nullptr
          ? call_.storage->await_storage_reply(future_, call_)
          : future_.wait();
  if (stats_ != nullptr) {
    stats_->remote_response_bytes.fetch_add(payload.size(),
                                            std::memory_order_relaxed);
  }
  ByteReader r(payload);
  const auto status = r.read<std::uint8_t>();
  GE_REQUIRE(status == kStorageReplyOk, "storage reply not OK");
  if (compressed_) {
    NeighborBatch::decode_csr_into(r, out);
  } else {
    out = NeighborBatch::decode_tensor_list(r);
  }
  BufferPool::global().release(std::move(payload));
}

std::vector<float> WeightedDegreeFetch::wait() {
  std::vector<std::uint8_t> payload =
      call_.storage->await_storage_reply(future_, call_);
  ByteReader r(std::span<const std::uint8_t>(payload).subspan(1));
  auto degs = r.read_vec<float>();
  BufferPool::global().release(std::move(payload));
  return degs;
}

WeightedDegreeFetch DistGraphStorage::get_weighted_degrees(
    ShardId dst, std::span<const NodeId> locals,
    std::uint64_t graph_version) const {
  StorageCall call(this, storage_method::kGetWeightedDegs, dst);
  ByteWriter w(BufferPool::global().acquire());
  write_fetch_header(w, dst, graph_version);
  w.write_span(locals);
  call.request = w.take();
  RpcFuture future = issue_storage_call(call);
  return WeightedDegreeFetch(std::move(future), std::move(call));
}

}  // namespace ppr
