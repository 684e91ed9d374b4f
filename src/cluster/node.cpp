#include "cluster/node.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "ppr/bfs.hpp"
#include "ppr/random_walk.hpp"
#include "rpc/buffer_pool.hpp"

namespace ppr::cluster {

ClusterNode::ClusterNode(ClusterConfig config, int node_id,
                         TcpTransportOptions net)
    : config_(std::move(config)), node_id_(node_id) {
  GE_REQUIRE(node_id_ >= 0 && node_id_ < config_.num_nodes(),
             "node id outside the cluster config");
  GE_REQUIRE(config_.node(node_id_).role == NodeSpec::Role::kStorage,
             "node id " + std::to_string(node_id_) +
                 " is a client slot; storage nodes serve shards");

  // Every node derives the identical graph + partition from the config;
  // the handshake fingerprint (below) is the cross-check.
  const Graph g = load_cluster_graph(config_);
  num_nodes_ = g.num_nodes();
  const PartitionAssignment assignment = load_cluster_partition(config_, g);
  const int shards = config_.num_storage_nodes();
  sharded_ = build_sharded_graph(g, assignment, shards,
                                 config_.cache_halo_adjacency);
  const ShardMap shard_map = config_.initial_shard_map();

  std::vector<TcpPeer> peers;
  peers.reserve(static_cast<std::size_t>(config_.num_nodes()));
  for (const NodeSpec& n : config_.nodes) {
    peers.push_back(TcpPeer{n.host, n.port});
  }
  net.shard_epoch = shard_map.epoch();
  net.shard_fingerprint = shard_map.fingerprint();
  transport_ = std::make_shared<TcpTransport>(node_id_, std::move(peers),
                                              net);
  transport_->connect_mesh();

  endpoint_ = std::make_unique<RpcEndpoint>(transport_, node_id_,
                                            config_.server_threads);
  routing_ = std::make_shared<RoutingTable>(shard_map);
  storage_service_ =
      std::make_unique<GraphStorageService>(*endpoint_, routing_);

  serve_options_.ppr.alpha = config_.ppr_alpha;
  serve_options_.ppr.epsilon = config_.ppr_epsilon;
  serve_options_.executors_per_machine = config_.executors;

  // Query handlers block on scheduler futures and remote fetches; their
  // dedicated pool keeps the storage-RPC server pool undisturbed (see the
  // deadlock note in node.hpp).
  query_pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(config_.query_threads));
  endpoint_->register_service(
      kQueryServiceName,
      [this](const std::string& method,
             std::span<const std::uint8_t> payload) {
        return handle_query(method, payload);
      },
      query_pool_.get());

  tracker_ = std::make_shared<VersionTracker>(shards);
  install_unit(node_id_,
               std::make_shared<VersionedShardStore>(
                   sharded_.shards[static_cast<std::size_t>(node_id_)]));
  // A real deployment only materializes its own shard; everything this
  // node adopts later arrives over the wire (snapshot_shard), never from
  // these locally derived copies.
  for (int s = 0; s < shards; ++s) {
    if (s != node_id_) sharded_.shards[static_cast<std::size_t>(s)].reset();
  }

  // Failover: a dead peer's shards re-route to their replicas before the
  // endpoint fails that peer's pending calls, so a retry woken by the
  // failure already resolves against the promoted map. The derivation is
  // pure, so every surviving member converges without coordination.
  endpoint_->add_peer_down_hook(
      [this](int peer) { routing_->handle_node_failure(peer); });

  // Readiness barrier LAST: every service this node offers is registered
  // above, so once any peer passes the barrier it may fire requests at us
  // immediately. (The barrier ran before service registration once; a
  // TSan-slowed client reproducibly raced "unknown service: query".)
  transport_->barrier();

  if (node_id_ == 0 && config_.rebalance_interval_ms > 0) {
    rebalancer_ = std::thread([this] { rebalancer_loop(); });
  }

  GE_LOG(kInfo) << "node " << node_id_ << " serving shard " << node_id_
                << " on port " << transport_->listen_port();
}

ClusterNode::~ClusterNode() { shutdown(); }

void ClusterNode::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  shutdown_cv_.notify_all();
}

void ClusterNode::run() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    shutdown_cv_.wait(lock, [this] {
      return shutdown_requested_.load(std::memory_order_acquire);
    });
  }
  shutdown();
}

void ClusterNode::shutdown() {
  if (shut_down_.exchange(true)) return;
  request_shutdown();  // stop admitting new queries
  // The rebalancer issues sync RPCs; it must exit before delivery stops.
  if (rebalancer_.joinable()) rebalancer_.join();

  // Drain order matters. (1) Flush every admitted query while the full
  // mesh is still answering storage RPCs, then retire the schedulers
  // (new admissions are refused past `retiring`).
  std::vector<std::shared_ptr<ServingUnit>> units;
  {
    std::lock_guard<std::mutex> lock(units_mutex_);
    for (auto& [shard, unit] : units_) units.push_back(unit);
  }
  for (auto& unit : units) {
    unit->retiring.store(true, std::memory_order_release);
    if (unit->scheduler != nullptr) unit->scheduler->drain();
  }
  for (auto& unit : units) unit->scheduler.reset();
  units.clear();
  // (2) Quiesce inbound delivery (joins the transport's reader threads,
  // so nothing new reaches the dispatch pools), then drain the query
  // pool: the reply to the very RPC that requested this shutdown may
  // still be in a pool thread, and it must reach the wire before we say
  // goodbye — a reply sent after LEAVE races the peer retiring the link.
  if (transport_ != nullptr) transport_->detach(node_id_);
  query_pool_.reset();
  // (3) Now every outstanding reply is flushed: tell peers we are gone
  // and tear the rest down.
  if (transport_ != nullptr) transport_->announce_leave();
  {
    std::lock_guard<std::mutex> lock(units_mutex_);
    units_.clear();
  }
  endpoint_.reset();
  storage_service_.reset();
  if (transport_ != nullptr) transport_->stop();
}

std::string ClusterNode::metrics_json() const {
  return obs::MetricRegistry::global().snapshot().to_json();
}

serve::ServiceStatsSnapshot ClusterNode::serve_stats() const {
  std::size_t states = 0;
  std::lock_guard<std::mutex> lock(units_mutex_);
  for (const auto& [shard, unit] : units_) {
    if (unit->scheduler != nullptr) states += unit->scheduler->states_created();
  }
  return stats_.snapshot(states);
}

void ClusterNode::install_unit(ShardId shard,
                               std::shared_ptr<VersionedShardStore> store) {
  storage_service_->install_store(store);
  auto unit = std::make_shared<ServingUnit>();
  std::vector<RemoteRef> rrefs;
  rrefs.reserve(static_cast<std::size_t>(config_.num_nodes()));
  for (int peer = 0; peer < config_.num_nodes(); ++peer) {
    rrefs.emplace_back(endpoint_.get(), peer, kStorageServiceName);
  }
  unit->storage = std::make_unique<DistGraphStorage>(
      *endpoint_, std::move(rrefs), std::move(store), tracker_, routing_);
  unit->storage->set_retry_policy(RetryPolicy{
      config_.rpc_timeout_s, config_.rpc_max_attempts, config_.rpc_backoff_ms});
  if (config_.adjacency_cache_rows > 0) {
    unit->storage->enable_adjacency_cache(config_.adjacency_cache_rows);
  }
  unit->scheduler = std::make_unique<serve::MachineScheduler>(
      *unit->storage, serve_options_, stats_);
  std::lock_guard<std::mutex> lock(units_mutex_);
  units_[shard] = std::move(unit);
}

std::shared_ptr<ClusterNode::ServingUnit> ClusterNode::unit_for(
    ShardId shard) {
  {
    std::lock_guard<std::mutex> lock(units_mutex_);
    const auto it = units_.find(shard);
    if (it != units_.end() &&
        !it->second->retiring.load(std::memory_order_acquire)) {
      return it->second;
    }
  }
  throw RpcError(std::string(kWrongOwnerPrefix) + "node " +
                 std::to_string(node_id_) + " does not serve shard " +
                 std::to_string(shard));
}

void ClusterNode::adopt_shard(ShardId shard, int src) {
  {
    std::lock_guard<std::mutex> lock(units_mutex_);
    if (units_.count(shard) != 0) return;
  }
  GE_REQUIRE(src != node_id_, "cannot adopt a shard from myself");
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
  GE_LOG(kInfo) << "node " << node_id_ << " adopted shard " << shard
                << " from node " << src;
  install_unit(shard, std::move(copy));
}

void ClusterNode::drop_shard(ShardId shard) {
  std::shared_ptr<ServingUnit> unit;
  {
    std::lock_guard<std::mutex> lock(units_mutex_);
    const auto it = units_.find(shard);
    if (it == units_.end()) return;
    unit = it->second;
    unit->retiring.store(true, std::memory_order_release);
    units_.erase(it);
  }
  // Drain the query plane (queued SSPPR batches finish against the
  // post-publish routing table), then the storage plane (in-flight fetch
  // RPCs on this shard complete; new ones get the stale-route redirect).
  unit->scheduler->drain();
  storage_service_->remove_shard(shard);
  GE_LOG(kInfo) << "node " << node_id_ << " dropped shard " << shard;
}

void ClusterNode::broadcast_route(const ShardMap& next) {
  routing_->apply(ShardMap(next));
  const std::vector<std::uint8_t> payload = encode_shard_map_payload(next);
  for (int peer = 0; peer < config_.num_nodes(); ++peer) {
    if (peer == node_id_ || transport_->peer_departed(peer)) continue;
    try {
      endpoint_->sync_call(peer, kQueryServiceName, kMethodRouteUpdate,
                           std::vector<std::uint8_t>(payload));
    } catch (const std::exception& e) {
      // A peer that misses the push recovers via stale-route/wrong-owner.
      GE_LOG(kWarn) << "route update to node " << peer
                    << " failed: " << e.what();
    }
  }
}

std::vector<std::uint8_t> ClusterNode::handle_migrate(
    const ShardAdminRequest& req) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  const int shards = config_.num_storage_nodes();
  GE_REQUIRE(req.shard >= 0 && req.shard < shards, "shard id out of range");
  GE_REQUIRE(req.node >= 0 && req.node < shards,
             "migration target must be a storage node");
  const auto snap = routing_->current();
  const int src = snap->node_of(req.shard);
  if (src == req.node) return encode_shard_map_payload(*snap);

  // Copy: the destination pulls the snapshot while the source keeps
  // serving (shard data is immutable — the copy needs no quiescence).
  if (req.node == node_id_) {
    adopt_shard(req.shard, src);
  } else {
    endpoint_->sync_call(req.node, kQueryServiceName, kMethodAdoptShard,
                         encode_shard_admin({req.shard, src}));
  }
  // Publish: flip the epoch on every mesh member.
  const ShardMap next = snap->with_placement(req.shard, req.node);
  broadcast_route(next);
  // Drain + free at the source.
  if (src == node_id_) {
    drop_shard(req.shard);
  } else {
    endpoint_->sync_call(src, kQueryServiceName, kMethodDropShard,
                         encode_shard_admin({req.shard, -1}));
  }
  return encode_shard_map_payload(next);
}

std::vector<std::uint8_t> ClusterNode::handle_add_replica(
    const ShardAdminRequest& req) {
  std::lock_guard<std::mutex> admin(admin_mutex_);
  const int shards = config_.num_storage_nodes();
  GE_REQUIRE(req.shard >= 0 && req.shard < shards, "shard id out of range");
  GE_REQUIRE(req.node >= 0 && req.node < shards,
             "replica host must be a storage node");
  const auto snap = routing_->current();
  if (snap->serves(req.shard, req.node)) {
    return encode_shard_map_payload(*snap);  // idempotent
  }
  const int src = snap->node_of(req.shard);
  if (req.node == node_id_) {
    adopt_shard(req.shard, src);
  } else {
    endpoint_->sync_call(req.node, kQueryServiceName, kMethodAdoptShard,
                         encode_shard_admin({req.shard, src}));
  }
  const ShardMap next = snap->with_replica(req.shard, req.node);
  broadcast_route(next);
  return encode_shard_map_payload(next);
}

std::vector<std::uint8_t> ClusterNode::handle_mutate(
    const MutateRequest& req) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const std::uint64_t version = tracker_->published() + 1;
  const auto map = routing_->current();
  const auto ns = static_cast<std::size_t>(map->num_shards());
  const GlobalMapping& mapping = sharded_.mapping;

  // Translate: each undirected op lands in BOTH endpoints' shards (the
  // same scheme as the in-process Cluster — engine/cluster.cpp).
  std::vector<MutationBatch> batches(ns);
  std::vector<std::vector<NodeId>> hint_locals(ns);
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
  for (const EdgeMutationOp& op : req.ops) {
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

  // Any serving unit's storage client can carry the coordinator's RPCs;
  // self legs never go over the wire (the transport has no self link).
  std::shared_ptr<ServingUnit> coord;
  {
    std::lock_guard<std::mutex> units(units_mutex_);
    for (auto& [s, unit] : units_) {
      if (!unit->retiring.load(std::memory_order_acquire)) {
        coord = unit;
        break;
      }
    }
  }
  GE_REQUIRE(coord != nullptr, "mutation coordinator serves no shard");

  // Hints: weighted degrees at the version PRECEDING this batch.
  for (std::size_t s = 0; s < ns; ++s) {
    if (hint_locals[s].empty()) continue;
    const auto shard = static_cast<ShardId>(s);
    std::vector<float> degs;
    if (const auto store = storage_service_->store_ptr(shard)) {
      const auto snap = store->snapshot(version - 1);
      degs.reserve(hint_locals[s].size());
      for (const NodeId local : hint_locals[s]) {
        degs.push_back(snap->weighted_degree(local));
      }
    } else {
      degs = coord->storage->get_weighted_degrees(shard, hint_locals[s],
                                                  version - 1);
    }
    for (std::size_t i = 0; i < degs.size(); ++i) {
      const auto [dst_shard, idx] = hint_slots[s][i];
      batches[dst_shard].inserts[idx].nbr_weighted_deg = degs[i];
    }
  }

  // Ship owner first, then replicas, each acked before the next — every
  // copy sees versions in the same strictly ascending order.
  std::vector<ShardId> mutated;
  const auto land = [&](int node, ShardId shard) {
    if (node == node_id_) {
      const auto store = storage_service_->store_ptr(shard);
      GE_REQUIRE(store != nullptr, "routing names a shard we dropped");
      store->apply(version,
                   MutationBatch(batches[static_cast<std::size_t>(shard)]));
    } else {
      coord->storage->apply_mutations_remote(
          node, shard, version, batches[static_cast<std::size_t>(shard)]);
    }
  };
  for (std::size_t s = 0; s < ns; ++s) {
    if (batches[s].empty()) continue;
    const auto shard = static_cast<ShardId>(s);
    land(map->node_of(shard), shard);
    for (const std::int32_t rep : map->replicas(shard)) land(rep, shard);
    tracker_->note_shard_mutation(shard, version);
    mutated.push_back(shard);
  }
  tracker_->publish(version);

  // Announce to every storage peer BEFORE replying, so a client's
  // follow-up query to any node already pins the new version.
  VersionAnnounce ann;
  ann.version = version;
  ann.shards = std::move(mutated);
  const std::vector<std::uint8_t> payload = encode_version_announce(ann);
  for (int peer = 0; peer < config_.num_storage_nodes(); ++peer) {
    if (peer == node_id_ || transport_->peer_departed(peer)) continue;
    try {
      endpoint_->sync_call(peer, kQueryServiceName, kMethodVersionAnnounce,
                           std::vector<std::uint8_t>(payload));
    } catch (const std::exception& e) {
      // A peer that misses the announce still serves coherent (older)
      // snapshots; it catches up on the next announce.
      GE_LOG(kWarn) << "version announce to node " << peer
                    << " failed: " << e.what();
    }
  }
  MutateReply reply;
  reply.version = version;
  return encode_mutate_reply(reply);
}

std::vector<std::uint8_t> ClusterNode::handle_compact(
    const ShardAdminRequest& req) {
  const int shards = config_.num_storage_nodes();
  GE_REQUIRE(req.shard >= 0 && req.shard < shards, "shard id out of range");
  if (req.node == node_id_) {  // local leg of the fan-out below
    const auto store = storage_service_->store_ptr(req.shard);
    GE_REQUIRE(store != nullptr, "compact target does not serve the shard");
    store->compact();
    return {};
  }
  // Coordinator: compact every serving copy (owner + replicas).
  const auto snap = routing_->current();
  std::vector<int> serving{snap->node_of(req.shard)};
  for (const std::int32_t rep : snap->replicas(req.shard)) {
    serving.push_back(rep);
  }
  for (const int n : serving) {
    if (n == node_id_) {
      const auto store = storage_service_->store_ptr(req.shard);
      GE_REQUIRE(store != nullptr, "routing names a shard we dropped");
      store->compact();
    } else {
      endpoint_->sync_call(n, kQueryServiceName, kMethodCompactShard,
                           encode_shard_admin({req.shard, n}));
    }
  }
  return {};
}

void ClusterNode::handle_version_announce(const VersionAnnounce& a) {
  // Shard marks BEFORE the publish — the tracker's required order (a
  // reader resolving at the new version must see the invalidation marks).
  for (const ShardId shard : a.shards) {
    tracker_->note_shard_mutation(shard, a.version);
  }
  tracker_->publish(a.version);
}

void ClusterNode::rebalancer_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      config_.rebalance_interval_ms);
  const int shards = config_.num_storage_nodes();
  // Served counts are cumulative; the policy wants per-interval traffic.
  std::map<ShardId, std::uint64_t> last;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(shutdown_mutex_);
      if (shutdown_cv_.wait_for(lock, interval, [this] {
            return shutdown_requested();
          })) {
        return;
      }
    }
    std::vector<std::pair<ShardId, std::uint64_t>> counts =
        storage_service_->served_counts();
    for (int peer = 0; peer < shards; ++peer) {
      if (peer == node_id_ || transport_->peer_departed(peer)) continue;
      try {
        const auto reply = endpoint_->sync_call(
            peer, kQueryServiceName, kMethodShardLoad, {});
        const auto peer_counts = decode_shard_load_reply(reply);
        counts.insert(counts.end(), peer_counts.begin(), peer_counts.end());
      } catch (const std::exception&) {
        continue;  // dead/slow poll target: rebalance from what we have
      }
    }
    std::map<ShardId, std::uint64_t> now;
    for (const auto& [shard, count] : counts) now[shard] += count;
    std::vector<std::uint64_t> delta(static_cast<std::size_t>(shards), 0);
    for (const auto& [shard, count] : now) {
      if (shard < 0 || shard >= shards) continue;
      const auto it = last.find(shard);
      const std::uint64_t prev = it != last.end() ? it->second : 0;
      // A drained source drops its counter; clamp instead of underflowing.
      if (count > prev) delta[static_cast<std::size_t>(shard)] = count - prev;
    }
    last = std::move(now);

    const auto snap = routing_->current();
    const auto actions = propose_rebalance(
        delta, *snap, shards, config_.rebalance_hot_factor,
        config_.rebalance_max_replicas);
    for (const RebalanceAction& action : actions) {
      try {
        GE_LOG(kInfo) << "rebalancer: replica of shard " << action.shard
                      << " -> node " << action.node;
        handle_add_replica(ShardAdminRequest{action.shard, action.node});
      } catch (const std::exception& e) {
        GE_LOG(kWarn) << "rebalance add-replica failed: " << e.what();
      }
    }
  }
}

std::vector<std::uint8_t> ClusterNode::handle_query(
    const std::string& method, std::span<const std::uint8_t> payload) {
  if (method == kMethodSsppr) return run_ssppr(payload);
  if (method == kMethodBfs) return run_bfs(payload);
  if (method == kMethodWalk) return run_walk(payload);
  if (method == kMethodPing) return encode_ping_reply(node_id_);
  if (method == kMethodMetrics) return encode_text_reply(metrics_json());
  if (method == kMethodRouteUpdate) {
    routing_->apply(decode_shard_map_payload(payload));
    return {};
  }
  if (method == kMethodGetRoute) {
    return encode_shard_map_payload(*routing_->current());
  }
  if (method == kMethodMigrateShard) {
    return handle_migrate(decode_shard_admin(payload));
  }
  if (method == kMethodAddReplica) {
    return handle_add_replica(decode_shard_admin(payload));
  }
  if (method == kMethodAdoptShard) {
    const ShardAdminRequest req = decode_shard_admin(payload);
    adopt_shard(req.shard, req.node);
    return {};
  }
  if (method == kMethodDropShard) {
    drop_shard(decode_shard_admin(payload).shard);
    return {};
  }
  if (method == kMethodShardLoad) {
    return encode_shard_load_reply(storage_service_->served_counts());
  }
  if (method == kMethodMutateEdges) {
    return handle_mutate(decode_mutate_request(payload));
  }
  if (method == kMethodCompactShard) {
    return handle_compact(decode_shard_admin(payload));
  }
  if (method == kMethodVersionAnnounce) {
    handle_version_announce(decode_version_announce(payload));
    return {};
  }
  if (method == kMethodGraphVersion) {
    return encode_version_reply(tracker_->published());
  }
  if (method == kMethodShutdown) {
    request_shutdown();
    return {};
  }
  throw InvalidArgument("unknown query method: " + method);
}

std::vector<std::uint8_t> ClusterNode::run_ssppr(
    std::span<const std::uint8_t> payload) {
  const SspprRequest req = decode_ssppr_request(payload);
  GE_REQUIRE(req.source >= 0 && req.source < num_nodes_,
             "source node id out of range");
  const NodeRef ref = sharded_.mapping.to_ref(req.source);
  const auto unit = unit_for(ref.shard);
  GE_REQUIRE(!shutdown_requested(), "node is shutting down");

  serve::PendingQuery q;
  q.source = ref;
  q.enqueue_time = std::chrono::steady_clock::now();
  q.deadline = std::chrono::steady_clock::time_point::max();
  stats_.on_submitted();
  serve::QueryFuture future = q.promise.get_future();
  if (!unit->scheduler->try_enqueue(std::move(q))) {
    stats_.on_rejected();
    SspprReply reply;
    reply.status =
        static_cast<std::uint8_t>(serve::QueryStatus::kRejected);
    return encode_ssppr_reply(reply);
  }
  stats_.on_admitted();
  serve::QueryResult result = future.wait();

  SspprReply reply;
  reply.status = static_cast<std::uint8_t>(result.status);
  reply.num_pushes = result.num_pushes;
  reply.entries.reserve(result.ppr.size());
  for (const auto& [node_ref, value] : result.ppr) {
    reply.entries.emplace_back(sharded_.mapping.to_global(node_ref), value);
  }
  std::sort(reply.entries.begin(), reply.entries.end());
  return encode_ssppr_reply(reply);
}

std::vector<std::uint8_t> ClusterNode::run_bfs(
    std::span<const std::uint8_t> payload) {
  const BfsRequest req = decode_bfs_request(payload);
  GE_REQUIRE(req.source >= 0 && req.source < num_nodes_,
             "source node id out of range");
  const NodeRef ref = sharded_.mapping.to_ref(req.source);
  const auto unit = unit_for(ref.shard);
  BfsOptions options;
  options.max_depth = req.max_depth;
  const NodeId sources[1] = {ref.local};
  const BfsResult result = distributed_bfs(*unit->storage, sources, options);

  BfsReply reply;
  reply.num_levels = result.num_levels;
  reply.distances.reserve(result.distances.size());
  for (const auto& [node_ref, dist] : result.distances) {
    reply.distances.emplace_back(sharded_.mapping.to_global(node_ref),
                                 dist);
  }
  std::sort(reply.distances.begin(), reply.distances.end());
  return encode_bfs_reply(reply);
}

std::vector<std::uint8_t> ClusterNode::run_walk(
    std::span<const std::uint8_t> payload) {
  const WalkRequest req = decode_walk_request(payload);
  GE_REQUIRE(req.source >= 0 && req.source < num_nodes_,
             "source node id out of range");
  const NodeRef ref = sharded_.mapping.to_ref(req.source);
  const auto unit = unit_for(ref.shard);
  RandomWalkOptions options;
  options.walk_length = req.walk_length;
  options.seed = req.seed;
  const NodeId roots[1] = {ref.local};
  const RandomWalkResult result =
      distributed_random_walk(*unit->storage, roots, options);

  WalkReply reply;
  reply.steps = result.walks;
  return encode_walk_reply(reply);
}

}  // namespace ppr::cluster
