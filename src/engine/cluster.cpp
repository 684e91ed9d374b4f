#include "engine/cluster.hpp"

#include <algorithm>

#include "rpc/buffer_pool.hpp"
#include "rpc/inproc_transport.hpp"
#include "rpc/socket_transport.hpp"

namespace ppr {

Cluster::Cluster(const Graph& g, const PartitionAssignment& assignment,
                 ClusterOptions options)
    : options_(options), num_nodes_(g.num_nodes()) {
  GE_REQUIRE(options_.num_machines >= 1, "need at least one machine");
  sharded_ = build_sharded_graph(g, assignment, options_.num_machines,
                                 options_.cache_halo_adjacency);

  switch (options_.transport) {
    case TransportKind::kInProc:
      transport_ = std::make_shared<InProcTransport>(options_.num_machines,
                                                     options_.network);
      break;
    case TransportKind::kSocket:
      transport_ = std::make_shared<SocketTransport>(options_.num_machines);
      break;
  }

  std::vector<RemoteRef> rrefs;
  endpoints_.reserve(static_cast<std::size_t>(options_.num_machines));
  routing_.reserve(static_cast<std::size_t>(options_.num_machines));
  services_.reserve(static_cast<std::size_t>(options_.num_machines));
  storages_.reserve(static_cast<std::size_t>(options_.num_machines));
  for (int m = 0; m < options_.num_machines; ++m) {
    endpoints_.push_back(std::make_unique<RpcEndpoint>(
        transport_, m, options_.server_threads));
    // One routing table per machine — machines route independently, as
    // separate processes would; ROUTE_UPDATEs are modeled by publish().
    routing_.push_back(std::make_shared<RoutingTable>(
        ShardMap::identity(options_.num_machines)));
    services_.push_back(std::make_unique<GraphStorageService>(
        *endpoints_.back(), routing_.back()));
    services_.back()->install_shard(
        sharded_.shards[static_cast<std::size_t>(m)]);
  }
  // One tracker for the whole simulated cluster: machines share the
  // process, so a mutation published anywhere is visible to every
  // machine's pin resolution at its next admission.
  tracker_ = std::make_shared<VersionTracker>(options_.num_machines);
  for (int m = 0; m < options_.num_machines; ++m) {
    rrefs.clear();
    for (int peer = 0; peer < options_.num_machines; ++peer) {
      rrefs.emplace_back(endpoints_[static_cast<std::size_t>(m)].get(), peer,
                         kStorageServiceName);
    }
    // The simulated deployment starts with shard m on machine m; real
    // clusters (cluster/node.hpp) route through the same RoutingTable
    // abstraction with config-derived placements.
    storages_.push_back(std::make_unique<DistGraphStorage>(
        *endpoints_[static_cast<std::size_t>(m)], rrefs,
        services_[static_cast<std::size_t>(m)]->store_ptr(m), tracker_,
        routing_[static_cast<std::size_t>(m)]));
    if (options_.adjacency_cache_rows > 0) {
      storages_.back()->enable_adjacency_cache(options_.adjacency_cache_rows);
    }
  }

  tensor_ctx_ = std::make_unique<TensorPushContext>(
      sharded_.mapping, g.num_nodes(),
      std::vector<float>(g.weighted_degrees()));
}

std::shared_ptr<VersionedShardStore> Cluster::pull_snapshot(ShardId shard,
                                                            int src,
                                                            int dst) {
  ByteWriter req(BufferPool::global().acquire());
  write_storage_header(req, shard,
                       routing_[static_cast<std::size_t>(dst)]->epoch(),
                       tracker_->published());
  std::vector<std::uint8_t> payload =
      endpoints_[static_cast<std::size_t>(dst)]->sync_call(
          src, kStorageServiceName, storage_method::kSnapshotShard,
          req.take());
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
  return copy;
}

void Cluster::publish(const ShardMap& next,
                      const std::vector<int>& skip_publish) {
  for (int m = 0; m < options_.num_machines; ++m) {
    if (std::find(skip_publish.begin(), skip_publish.end(), m) !=
        skip_publish.end()) {
      continue;
    }
    routing_[static_cast<std::size_t>(m)]->apply(next);
  }
}

void Cluster::migrate_shard(ShardId shard, int dst,
                            const std::vector<int>& skip_publish) {
  GE_REQUIRE(dst >= 0 && dst < options_.num_machines,
             "migration target out of range");
  const auto snap = routing_[static_cast<std::size_t>(dst)]->current();
  const int src = snap->node_of(shard);
  if (src == dst) return;
  // Copy: the destination pulls the snapshot while the source keeps
  // serving. The copy is version-complete (base + deltas); a mutation
  // racing the migration lands on whichever copy the map names — callers
  // serialize mutations against migration of the same shard.
  services_[static_cast<std::size_t>(dst)]->install_store(
      pull_snapshot(shard, src, dst));
  // Publish: flip the epoch everywhere (minus the deliberately-stale).
  publish(snap->with_placement(shard, dst), skip_publish);
  // Drain + free: the source blocks until in-flight fetches complete,
  // then drops its reference to the shard data.
  services_[static_cast<std::size_t>(src)]->remove_shard(shard);
}

void Cluster::add_replica(ShardId shard, int machine,
                          const std::vector<int>& skip_publish) {
  GE_REQUIRE(machine >= 0 && machine < options_.num_machines,
             "replica target out of range");
  const auto snap = routing_[static_cast<std::size_t>(machine)]->current();
  const int src = snap->node_of(shard);
  GE_REQUIRE(src != machine, "primary cannot replicate onto itself");
  services_[static_cast<std::size_t>(machine)]->install_store(
      pull_snapshot(shard, src, machine));
  publish(snap->with_replica(shard, machine), skip_publish);
}

std::shared_ptr<VersionedShardStore> Cluster::store(ShardId shard) {
  const int owner = routing_[0]->current()->node_of(shard);
  return services_[static_cast<std::size_t>(owner)]->store_ptr(shard);
}

std::uint64_t Cluster::apply_edge_mutations(
    std::span<const EdgeMutationOp> ops) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::uint64_t version = tracker_->published() + 1;
  const auto map = routing_[0]->current();
  const auto ns = static_cast<std::size_t>(map->num_shards());
  const GlobalMapping& mapping = sharded_.mapping;

  // --- Translate: each undirected op lands in BOTH endpoints' shards. --
  std::vector<MutationBatch> batches(ns);
  // Weighted-degree hints for inserts, fetched per shard at the version
  // preceding this batch (a neighbor's d_w change inside the same batch
  // deliberately does not retro-update the hint — DESIGN.md §15).
  std::vector<std::vector<NodeId>> hint_locals(ns);
  // Hint destinations as (shard, insert index) — the insert vectors are
  // still growing while these are recorded, so no pointers.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> hint_slots(
      ns);
  const auto add_insert = [&](NodeId src, NodeId nbr, float weight) {
    const NodeRef s = mapping.to_ref(src);
    const NodeRef n = mapping.to_ref(nbr);
    auto& batch = batches[static_cast<std::size_t>(s.shard)];
    batch.inserts.push_back(EdgeInsert{s.local, n.local, n.shard, nbr,
                                       weight, /*nbr_weighted_deg=*/0});
    hint_locals[static_cast<std::size_t>(n.shard)].push_back(n.local);
    hint_slots[static_cast<std::size_t>(n.shard)].push_back(
        {static_cast<std::size_t>(s.shard), batch.inserts.size() - 1});
  };
  for (const EdgeMutationOp& op : ops) {
    GE_REQUIRE(op.u != op.v, "self-loop mutations are not supported");
    GE_REQUIRE(op.u >= 0 && op.u < num_nodes_ && op.v >= 0 &&
                   op.v < num_nodes_,
               "mutation endpoint out of range");
    if (op.insert) {
      GE_REQUIRE(op.weight > 0, "insert weight must be positive");
      add_insert(op.u, op.v, op.weight);
      add_insert(op.v, op.u, op.weight);
    } else {
      const NodeRef u = mapping.to_ref(op.u);
      const NodeRef v = mapping.to_ref(op.v);
      batches[static_cast<std::size_t>(u.shard)].deletes.push_back(
          EdgeDelete{u.local, op.v});
      batches[static_cast<std::size_t>(v.shard)].deletes.push_back(
          EdgeDelete{v.local, op.u});
    }
  }

  // --- Hints: one weighted-degree fetch per shard with pending slots.
  DistGraphStorage& coord = *storages_[0];
  for (std::size_t s = 0; s < ns; ++s) {
    if (hint_locals[s].empty()) continue;
    const std::vector<float> degs = coord.get_weighted_degrees(
        static_cast<ShardId>(s), hint_locals[s], version - 1);
    for (std::size_t i = 0; i < degs.size(); ++i) {
      const auto [shard, idx] = hint_slots[s][i];
      batches[shard].inserts[idx].nbr_weighted_deg = degs[i];
    }
  }

  // --- Ship: owner first, then replicas, each acked before the next —
  // every copy of a shard sees versions in the same strictly ascending
  // order.
  for (std::size_t s = 0; s < ns; ++s) {
    if (batches[s].empty()) continue;
    const auto shard = static_cast<ShardId>(s);
    coord.apply_mutations_remote(map->node_of(shard), shard, version,
                                 batches[s]);
    for (const std::int32_t rep : map->replicas(shard)) {
      coord.apply_mutations_remote(rep, shard, version, batches[s]);
    }
    // Shard marks happen BEFORE the publish below: a reader resolving
    // its pin at the new version must already see the halo/cache
    // invalidation marks.
    tracker_->note_shard_mutation(shard, version);
  }
  tracker_->publish(version);
  return version;
}

void Cluster::compact_shard(ShardId shard) {
  const auto map = routing_[0]->current();
  const int owner = map->node_of(shard);
  services_[static_cast<std::size_t>(owner)]->store_ptr(shard)->compact();
  for (const std::int32_t rep : map->replicas(shard)) {
    services_[static_cast<std::size_t>(rep)]->store_ptr(shard)->compact();
  }
}

void Cluster::compact_all() {
  const int ns = routing_[0]->current()->num_shards();
  for (ShardId s = 0; s < ns; ++s) compact_shard(s);
}

Cluster::~Cluster() {
  // Endpoints reference the transport; stop delivery before teardown so
  // no handler runs into a half-destroyed machine.
  if (transport_ != nullptr) transport_->stop();
}

void Cluster::reset_stats() {
  for (auto& s : storages_) {
    s->stats().reset();
    s->reset_adjacency_cache_stats();
  }
}

std::uint64_t Cluster::total_remote_calls() const {
  std::uint64_t n = 0;
  for (const auto& s : storages_) n += s->stats().remote_calls.load();
  return n;
}

std::uint64_t Cluster::total_remote_nodes() const {
  std::uint64_t n = 0;
  for (const auto& s : storages_) n += s->stats().remote_nodes.load();
  return n;
}

std::uint64_t Cluster::total_remote_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : storages_) n += s->stats().remote_bytes();
  return n;
}

std::uint64_t Cluster::total_adjacency_cache_hits() const {
  std::uint64_t n = 0;
  for (const auto& s : storages_) {
    if (const AdjacencyCacheStats* cs = s->adjacency_cache_stats()) {
      n += cs->hits.load();
    }
  }
  return n;
}

std::uint64_t Cluster::total_adjacency_cache_misses() const {
  std::uint64_t n = 0;
  for (const auto& s : storages_) {
    if (const AdjacencyCacheStats* cs = s->adjacency_cache_stats()) {
      n += cs->misses.load();
    }
  }
  return n;
}

double Cluster::remote_ratio() const {
  std::uint64_t local = 0;
  std::uint64_t remote = 0;
  for (const auto& s : storages_) {
    local += s->stats().local_nodes.load();
    remote += s->stats().remote_nodes.load();
  }
  return (local + remote) > 0
             ? static_cast<double>(remote) /
                   static_cast<double>(local + remote)
             : 0.0;
}

}  // namespace ppr
