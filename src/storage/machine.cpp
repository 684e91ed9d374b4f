#include "storage/machine.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "rpc/buffer_pool.hpp"

namespace ppr {

namespace {
/// Wait for a kMutateEdges ack and check it.
void await_mutation(RpcFuture& ack) {
  std::vector<std::uint8_t> payload = ack.wait();
  GE_REQUIRE(!payload.empty() && payload[0] == kStorageReplyOk,
             "mutate_edges reply not OK");
  BufferPool::global().release(std::move(payload));
}
}  // namespace

Machine::Machine(std::shared_ptr<Transport> transport, int id,
                 ShardMap initial_map, std::shared_ptr<VersionTracker> tracker,
                 const GlobalMapping& mapping, MachineConfig config)
    : id_(id),
      mapping_(mapping),
      config_(config),
      endpoint_(std::make_unique<RpcEndpoint>(std::move(transport), id,
                                              config.server_threads)),
      routing_(std::make_shared<RoutingTable>(std::move(initial_map))),
      service_(std::make_unique<GraphStorageService>(*endpoint_, routing_)),
      tracker_(std::move(tracker)) {
  GE_REQUIRE(tracker_ != nullptr, "null version tracker");
  // Failover: a dead peer's shards re-route to their replicas before the
  // endpoint fails that peer's pending calls, so a retry woken by the
  // failure already resolves against the promoted map. The derivation is
  // pure, so every surviving member converges without coordination.
  endpoint_->add_peer_down_hook(
      [this](int peer) { routing_->handle_node_failure(peer); });
}

Machine::~Machine() {
  // Stop delivery first: no storage handler may run into a service or
  // client that is being torn down.
  endpoint_.reset();
}

std::shared_ptr<DistGraphStorage> Machine::install(
    std::shared_ptr<VersionedShardStore> store) {
  GE_REQUIRE(store != nullptr, "null store");
  const ShardId shard = store->shard_id();
  service_->install_store(store);
  std::vector<RemoteRef> rrefs;
  rrefs.reserve(static_cast<std::size_t>(endpoint_->num_machines()));
  for (int peer = 0; peer < endpoint_->num_machines(); ++peer) {
    rrefs.emplace_back(endpoint_.get(), peer, kStorageServiceName);
  }
  auto client = std::make_shared<DistGraphStorage>(
      *endpoint_, std::move(rrefs), std::move(store), tracker_, routing_);
  client->set_retry_policy(config_.retry);
  if (config_.adjacency_cache_rows > 0) {
    client->enable_adjacency_cache(config_.adjacency_cache_rows);
  }
  std::lock_guard<std::mutex> lock(clients_mu_);
  clients_[shard] = client;
  return client;
}

std::shared_ptr<DistGraphStorage> Machine::adopt(ShardId shard, int src) {
  if (auto existing = client(shard)) return existing;
  GE_REQUIRE(src != id_, "cannot adopt a shard from myself");
  ByteWriter req(BufferPool::global().acquire());
  write_storage_header(req, shard, routing_->epoch(), tracker_->published());
  std::vector<std::uint8_t> payload = endpoint_->sync_call(
      src, kStorageServiceName, storage_method::kSnapshotShard, req.take());
  GE_REQUIRE(!payload.empty() && payload[0] == kStorageReplyOk,
             "snapshot source no longer serves shard " +
                 std::to_string(shard));
  obs::MetricRegistry::global()
      .counter("migration.bytes_copied")
      .add(payload.size() - 1);
  ByteReader r(std::span<const std::uint8_t>(payload).subspan(1));
  auto copy = VersionedShardStore::deserialize(r);
  BufferPool::global().release(std::move(payload));
  GE_REQUIRE(copy->shard_id() == shard, "snapshot names the wrong shard");
  return install(std::move(copy));
}

std::shared_ptr<DistGraphStorage> Machine::drop(ShardId shard) {
  service_->remove_shard(shard);
  std::lock_guard<std::mutex> lock(clients_mu_);
  const auto it = clients_.find(shard);
  if (it == clients_.end()) return nullptr;
  auto client = std::move(it->second);
  clients_.erase(it);
  return client;
}

std::shared_ptr<DistGraphStorage> Machine::client(ShardId shard) const {
  std::lock_guard<std::mutex> lock(clients_mu_);
  const auto it = clients_.find(shard);
  return it == clients_.end() ? nullptr : it->second;
}

std::shared_ptr<DistGraphStorage> Machine::any_client() const {
  std::lock_guard<std::mutex> lock(clients_mu_);
  GE_REQUIRE(!clients_.empty(), "mutation coordinator serves no shard");
  return clients_.begin()->second;
}

RpcFuture Machine::issue_mutation(int node, ShardId shard,
                                  std::uint64_t version,
                                  const MutationBatch& batch) {
  // The header's graph version is the version the batch creates.
  ByteWriter w(BufferPool::global().acquire());
  write_storage_header(w, shard, routing_->epoch(), version);
  batch.encode(w);
  return endpoint_->async_call(node, kStorageServiceName,
                               storage_method::kMutateEdges, w.take());
}

MutationOutcome Machine::apply_mutations(
    std::span<const EdgeMutationOp> ops) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::uint64_t version = tracker_->published() + 1;
  const auto map = routing_->current();
  const auto ns = static_cast<std::size_t>(map->num_shards());
  const NodeId num_nodes = mapping_.num_nodes();

  // --- Translate: each undirected op lands in BOTH endpoints' shards. --
  std::vector<MutationBatch> batches(ns);
  // Weighted-degree hints for inserts, read per shard at the version
  // preceding this batch (a neighbor's d_w change inside the same batch
  // deliberately does not retro-update the hint — DESIGN.md §15).
  std::vector<std::vector<NodeId>> hint_locals(ns);
  // Hint destinations as (shard, insert index) — the insert vectors are
  // still growing while these are recorded, so no pointers.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> hint_slots(
      ns);
  const auto add_insert = [&](NodeId src, NodeId nbr, float weight) {
    const NodeRef s = mapping_.to_ref(src);
    const NodeRef n = mapping_.to_ref(nbr);
    auto& batch = batches[static_cast<std::size_t>(s.shard)];
    batch.inserts.push_back(EdgeInsert{s.local, n.local, n.shard, nbr,
                                       weight, /*nbr_weighted_deg=*/0});
    hint_locals[static_cast<std::size_t>(n.shard)].push_back(n.local);
    hint_slots[static_cast<std::size_t>(n.shard)].push_back(
        {static_cast<std::size_t>(s.shard), batch.inserts.size() - 1});
  };
  for (const EdgeMutationOp& op : ops) {
    GE_REQUIRE(op.u != op.v, "self-loop mutations are not supported");
    GE_REQUIRE(op.u >= 0 && op.u < num_nodes && op.v >= 0 &&
                   op.v < num_nodes,
               "mutation endpoint out of range");
    if (op.insert) {
      GE_REQUIRE(op.weight > 0, "insert weight must be positive");
      add_insert(op.u, op.v, op.weight);
      add_insert(op.v, op.u, op.weight);
    } else {
      const NodeRef u = mapping_.to_ref(op.u);
      const NodeRef v = mapping_.to_ref(op.v);
      batches[static_cast<std::size_t>(u.shard)].deletes.push_back(
          EdgeDelete{u.local, op.v});
      batches[static_cast<std::size_t>(v.shard)].deletes.push_back(
          EdgeDelete{v.local, op.u});
    }
  }

  // --- Hints: one weighted-degree read per shard with pending slots.
  // Every remote read is issued before the local ones run, so they all
  // fly together.
  std::vector<std::shared_ptr<VersionedShardStore>> held(ns);
  std::vector<WeightedDegreeFetch> remote(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    if (hint_locals[s].empty()) continue;
    const auto shard = static_cast<ShardId>(s);
    held[s] = service_->store_ptr(shard);
    if (held[s] == nullptr) {
      remote[s] = any_client()->get_weighted_degrees(shard, hint_locals[s],
                                                     version - 1);
    }
  }
  std::vector<std::vector<float>> degs(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    if (held[s] == nullptr) continue;
    const auto snap = held[s]->snapshot(version - 1);
    degs[s].reserve(hint_locals[s].size());
    for (const NodeId local : hint_locals[s]) {
      degs[s].push_back(snap->weighted_degree(local));
    }
  }
  for (std::size_t s = 0; s < ns; ++s) {
    if (remote[s].valid()) {
      degs[s] = remote[s].wait();
      GE_REQUIRE(degs[s].size() == hint_locals[s].size(),
                 "weighted-degree reply has the wrong length");
    }
    for (std::size_t i = 0; i < degs[s].size(); ++i) {
      const auto [dst_shard, idx] = hint_slots[s][i];
      batches[dst_shard].inserts[idx].nbr_weighted_deg = degs[s][i];
    }
  }

  // --- Land in waves: wave k ships each mutated shard's batch to that
  // shard's k-th copy, the owner first. Copies held here apply in place
  // while the wave's RPCs fly, and a wave starts only once every ack of
  // the one before is in — so every copy of a shard sees versions in the
  // same strictly ascending order, and nothing is in flight on return.
  std::vector<std::vector<int>> copies(ns);
  std::size_t waves = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    if (batches[s].empty()) continue;
    const auto shard = static_cast<ShardId>(s);
    copies[s].push_back(map->node_of(shard));
    for (const std::int32_t rep : map->replicas(shard)) {
      copies[s].push_back(rep);
    }
    waves = std::max(waves, copies[s].size());
  }
  for (std::size_t k = 0; k < waves; ++k) {
    std::vector<RpcFuture> acks;
    // The first error is raised, but only once every issued ack is in.
    std::exception_ptr error;
    try {
      std::vector<ShardId> here;
      for (std::size_t s = 0; s < ns; ++s) {
        if (copies[s].size() <= k) continue;
        const auto shard = static_cast<ShardId>(s);
        if (copies[s][k] == id_) {
          here.push_back(shard);
        } else {
          acks.push_back(
              issue_mutation(copies[s][k], shard, version, batches[s]));
        }
      }
      for (const ShardId shard : here) {
        const auto store = service_->store_ptr(shard);
        GE_REQUIRE(store != nullptr, "routing names a shard we dropped");
        store->apply(version, MutationBatch(
                                  batches[static_cast<std::size_t>(shard)]));
      }
    } catch (...) {
      error = std::current_exception();
    }
    for (RpcFuture& ack : acks) {
      try {
        await_mutation(ack);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  }

  // --- Publish once every copy has acked.
  MutationOutcome out;
  out.version = version;
  for (std::size_t s = 0; s < ns; ++s) {
    if (batches[s].empty()) continue;
    out.mutated.push_back(
        ShardRows{static_cast<ShardId>(s), batches[s].source_rows()});
  }
  tracker_->publish(version, out.mutated);
  return out;
}

void Machine::compact(ShardId shard) {
  const auto store = service_->store_ptr(shard);
  GE_REQUIRE(store != nullptr, "compact target does not serve the shard");
  store->compact();
}

}  // namespace ppr
