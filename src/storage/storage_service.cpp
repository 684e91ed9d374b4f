#include "storage/storage_service.hpp"

#include <limits>

#include "obs/metrics.hpp"
#include "rpc/buffer_pool.hpp"

namespace ppr {

GraphStorageService::GraphStorageService(RpcEndpoint& endpoint,
                                         std::shared_ptr<RoutingTable> routing)
    : routing_(std::move(routing)) {
  GE_REQUIRE(routing_ != nullptr, "null routing table");
  endpoint.register_service(
      kStorageServiceName,
      [this](const std::string& method,
             std::span<const std::uint8_t> payload) {
        return handle(method, payload);
      });
}

void GraphStorageService::install_store(
    std::shared_ptr<VersionedShardStore> store) {
  GE_REQUIRE(store != nullptr, "null store");
  const ShardId id = store->shard_id();
  std::lock_guard<std::mutex> lock(mutex_);
  auto& entry = shards_[id];
  if (entry == nullptr) entry = std::make_shared<Entry>();
  entry->store = std::move(store);
}

void GraphStorageService::remove_shard(ShardId shard) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = shards_.find(shard);
    if (it == shards_.end()) return;
    entry = std::move(it->second);
    // Unlink first: requests arriving past this point see a stale-route
    // redirect, so the in-flight count can only go down.
    shards_.erase(it);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] {
    return entry->inflight.load(std::memory_order_acquire) == 0;
  });
  // Last service reference to the shard data dies here (the drain step of
  // the migration protocol); the source node may still hold its own.
}

bool GraphStorageService::serves(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_.find(shard) != shards_.end();
}

std::shared_ptr<const GraphShard> GraphStorageService::shard_ptr(
    ShardId shard) const {
  const auto store = store_ptr(shard);
  return store == nullptr ? nullptr : store->base();
}

std::shared_ptr<VersionedShardStore> GraphStorageService::store_ptr(
    ShardId shard) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = shards_.find(shard);
  return it == shards_.end() ? nullptr : it->second->store;
}

std::vector<std::pair<ShardId, std::uint64_t>>
GraphStorageService::served_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<ShardId, std::uint64_t>> counts;
  counts.reserve(shards_.size());
  for (const auto& [id, entry] : shards_) {
    counts.emplace_back(id,
                        entry->served.load(std::memory_order_relaxed));
  }
  return counts;
}

std::vector<std::uint8_t> GraphStorageService::stale_route_reply(
    ByteWriter& w) const {
  w.write<std::uint8_t>(kStorageReplyStaleRoute);
  routing_->current()->encode(w);
  obs::MetricRegistry::global().counter("routing.stale_epoch_hits").add(1);
  return w.take();
}

std::vector<std::uint8_t> GraphStorageService::handle(
    const std::string& method, std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  // [shard, routing epoch, graph version]. The routing epoch is not an
  // admission check: installed shards serve any epoch (reads are pinned by
  // graph version, not placement); it exists so redirects and tracing can
  // name the epoch the caller routed with. The graph version pins every
  // read below to one snapshot and names the version a mutation creates.
  const StorageHeader header = read_storage_header(r);
  const auto shard_id = header.shard;

  // Response buffers come from the shared pool; ownership passes to the
  // reply Message and the transport recycles them after the bytes hit the
  // wire (see rpc/buffer_pool.hpp).
  ByteWriter w(BufferPool::global().acquire());

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = shards_.find(shard_id);
    if (it != shards_.end()) entry = it->second;
  }
  if (entry == nullptr) return stale_route_reply(w);

  entry->inflight.fetch_add(1, std::memory_order_acq_rel);
  entry->served.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint8_t> reply;
  try {
    reply = dispatch(*entry, header, method, r, w);
  } catch (...) {
    if (entry->inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      drain_cv_.notify_all();
    }
    throw;
  }
  if (entry->inflight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Taking the lock orders this notify after a concurrent
    // remove_shard's wait registration — no missed wakeup.
    std::lock_guard<std::mutex> lock(mutex_);
    drain_cv_.notify_all();
  }
  return reply;
}

std::vector<std::uint8_t> GraphStorageService::dispatch(
    Entry& entry, const StorageHeader& header, const std::string& method,
    ByteReader& r, ByteWriter& w) {
  w.write<std::uint8_t>(kStorageReplyOk);
  VersionedShardStore& store = *entry.store;

  if (method == storage_method::kMutateEdges) {
    MutationBatch batch = MutationBatch::decode(r);
    // The store knows its own rows but not how many shards exist; an
    // insert naming a shard past the routing table would index past
    // every reader's per-shard arrays.
    for (const EdgeInsert& e : batch.inserts) {
      GE_REQUIRE(e.nbr_shard < routing_->num_shards(),
                 "edge insert names a shard that does not exist");
    }
    store.apply(header.graph_version, std::move(batch));
    // The ack echoes the applied version.
    w.write<std::uint64_t>(header.graph_version);
    return w.take();
  }
  if (method == storage_method::kSnapshotShard) {
    store.serialize(w);
    return w.take();
  }

  // Every read method serves through ONE pinned snapshot: the reply can
  // never mix versions, no matter how many mutations land concurrently.
  const auto snap = store.snapshot(header.graph_version);

  if (method == storage_method::kGetNeighborInfos) {
    const auto flags = r.read<std::uint8_t>();
    const FetchOptions options = fetch_options_from_flags(flags);
    std::vector<NodeId> locals;
    if (options.codec == WireCodec::kDeltaVarint) {
      const std::uint64_t n = r.read_uvarint();
      GE_REQUIRE(n <= r.remaining(), "request node count exceeds frame");
      locals.resize(n);
      for (auto& local : locals) {
        const std::uint64_t v = r.read_uvarint();
        GE_REQUIRE(v <= static_cast<std::uint64_t>(
                            std::numeric_limits<NodeId>::max()),
                   "request local id out of range");
        local = static_cast<NodeId>(v);
      }
    } else {
      locals = r.read_vec<NodeId>();
    }
    if (options.compress) {
      snap->encode_neighbor_infos_csr(locals, w, options);
    } else {
      snap->encode_neighbor_infos_tensor_list(locals, w);
    }
    return w.take();
  }
  if (method == storage_method::kGetNeighborInfoSingle) {
    const auto local = r.read<NodeId>();
    const NodeId one[] = {local};
    snap->encode_neighbor_infos_tensor_list(one, w);
    return w.take();
  }
  if (method == storage_method::kGetWeightedDegs) {
    const auto locals = r.read_vec<NodeId>();
    std::vector<float> degs;
    degs.reserve(locals.size());
    for (const NodeId l : locals) degs.push_back(snap->weighted_degree(l));
    w.write_vec(degs);
    return w.take();
  }
  throw InvalidArgument("unknown storage method: " + method);
}

}  // namespace ppr
