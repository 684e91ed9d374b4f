#include "cluster/node.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "ppr/bfs.hpp"
#include "ppr/random_walk.hpp"

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

  // This node's view of the graph-version plane: the coordinator's
  // tracker advances when it publishes a batch; every other node's
  // advances on the version announcement.
  machine_ = std::make_unique<Machine>(
      transport_, node_id_, shard_map,
      std::make_shared<VersionTracker>(sharded_.mapping), sharded_.mapping,
      MachineConfig{config_.server_threads, config_.adjacency_cache_rows,
                    RetryPolicy{config_.rpc_timeout_s,
                                config_.rpc_max_attempts,
                                config_.rpc_backoff_ms}});

  serve_options_.ppr.alpha = config_.ppr_alpha;
  serve_options_.ppr.epsilon = config_.ppr_epsilon;
  serve_options_.executors_per_machine = config_.executors;

  // Query handlers block on scheduler futures and remote fetches; their
  // dedicated pool keeps the storage-RPC server pool undisturbed (see the
  // deadlock note in node.hpp).
  query_pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(config_.query_threads));
  machine_->endpoint().register_service(
      kQueryServiceName,
      [this](const std::string& method,
             std::span<const std::uint8_t> payload) {
        return handle_query(method, payload);
      },
      query_pool_.get());

  add_unit(node_id_, machine_->install(std::make_shared<VersionedShardStore>(
                         sharded_.shards[static_cast<std::size_t>(node_id_)])));
  // A real deployment only materializes its own shard; everything this
  // node adopts later arrives over the wire (snapshot_shard), never from
  // these locally derived copies.
  for (int s = 0; s < shards; ++s) {
    if (s != node_id_) sharded_.shards[static_cast<std::size_t>(s)].reset();
  }

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
    // request_shutdown() sets the flag and notifies without taking this
    // mutex (a signal handler calls it), so its notify can land between
    // the predicate check and the wait and be lost; the bounded wait
    // re-checks the flag instead of sleeping through it for good.
    std::unique_lock<std::mutex> lock(shutdown_mutex_);
    while (!shutdown_requested_.load(std::memory_order_acquire)) {
      shutdown_cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
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
  machine_.reset();
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

void ClusterNode::add_unit(ShardId shard,
                           std::shared_ptr<DistGraphStorage> storage) {
  auto unit = std::make_shared<ServingUnit>();
  unit->storage = std::move(storage);
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
  add_unit(shard, machine_->adopt(shard, src));
  GE_LOG(kInfo) << "node " << node_id_ << " adopted shard " << shard
                << " from node " << src;
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
  machine_->drop(shard);
  GE_LOG(kInfo) << "node " << node_id_ << " dropped shard " << shard;
}

std::vector<std::uint8_t> ClusterNode::call_node(
    int node, const char* method, std::vector<std::uint8_t> payload) {
  return machine_->endpoint().sync_call(node, kQueryServiceName, method,
                                        std::move(payload));
}

void ClusterNode::broadcast_route(const ShardMap& next) {
  machine_->routing().apply(ShardMap(next));
  const std::vector<std::uint8_t> payload = encode_shard_map_payload(next);
  for (int peer = 0; peer < config_.num_nodes(); ++peer) {
    if (peer == node_id_ || transport_->peer_departed(peer)) continue;
    try {
      call_node(peer, kMethodRouteUpdate, std::vector<std::uint8_t>(payload));
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
  const auto snap = machine_->routing().current();
  const int src = snap->node_of(req.shard);
  if (src == req.node) return encode_shard_map_payload(*snap);

  // Copy: the destination pulls the snapshot while the source keeps
  // serving (shard data is immutable — the copy needs no quiescence).
  if (req.node == node_id_) {
    adopt_shard(req.shard, src);
  } else {
    call_node(req.node, kMethodAdoptShard,
              encode_shard_admin({req.shard, src}));
  }
  // Publish: flip the epoch on every mesh member.
  const ShardMap next = snap->with_placement(req.shard, req.node);
  broadcast_route(next);
  // Drain + free at the source.
  if (src == node_id_) {
    drop_shard(req.shard);
  } else {
    call_node(src, kMethodDropShard, encode_shard_admin({req.shard, -1}));
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
  const auto snap = machine_->routing().current();
  if (snap->serves(req.shard, req.node)) {
    return encode_shard_map_payload(*snap);  // idempotent
  }
  const int src = snap->node_of(req.shard);
  if (req.node == node_id_) {
    adopt_shard(req.shard, src);
  } else {
    call_node(req.node, kMethodAdoptShard,
              encode_shard_admin({req.shard, src}));
  }
  const ShardMap next = snap->with_replica(req.shard, req.node);
  broadcast_route(next);
  return encode_shard_map_payload(next);
}

std::vector<std::uint8_t> ClusterNode::handle_mutate(
    const MutateRequest& req) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  MutationOutcome outcome = machine_->apply_mutations(req.ops);

  // Announce to every storage peer BEFORE replying, so a client's
  // follow-up query to any node already pins the new version. Every
  // announce is in flight at once; then each is awaited. A peer that
  // misses one still serves coherent (older) snapshots and catches up on
  // the next announce.
  VersionAnnounce ann;
  ann.version = outcome.version;
  ann.shards = std::move(outcome.mutated);
  const std::vector<std::uint8_t> payload = encode_version_announce(ann);
  const auto warn = [](int peer, const std::exception& e) {
    GE_LOG(kWarn) << "version announce to node " << peer
                  << " failed: " << e.what();
  };
  std::vector<std::pair<int, RpcFuture>> acks;
  for (int peer = 0; peer < config_.num_storage_nodes(); ++peer) {
    if (peer == node_id_ || transport_->peer_departed(peer)) continue;
    try {
      acks.emplace_back(peer, machine_->endpoint().async_call(
                                  peer, kQueryServiceName,
                                  kMethodVersionAnnounce,
                                  std::vector<std::uint8_t>(payload)));
    } catch (const std::exception& e) {
      warn(peer, e);
    }
  }
  for (auto& [peer, ack] : acks) {
    try {
      (void)ack.wait();
    } catch (const std::exception& e) {
      warn(peer, e);
    }
  }
  MutateReply reply;
  reply.version = ann.version;
  return encode_mutate_reply(reply);
}

std::vector<std::uint8_t> ClusterNode::handle_compact(
    const ShardAdminRequest& req) {
  const int shards = config_.num_storage_nodes();
  GE_REQUIRE(req.shard >= 0 && req.shard < shards, "shard id out of range");
  if (req.node == node_id_) {  // local leg of the fan-out below
    machine_->compact(req.shard);
    return {};
  }
  // Coordinator: compact every serving copy (owner + replicas).
  const auto snap = machine_->routing().current();
  std::vector<int> serving{snap->node_of(req.shard)};
  for (const std::int32_t rep : snap->replicas(req.shard)) {
    serving.push_back(rep);
  }
  for (const int n : serving) {
    if (n == node_id_) {
      machine_->compact(req.shard);
    } else {
      call_node(n, kMethodCompactShard, encode_shard_admin({req.shard, n}));
    }
  }
  return {};
}

void ClusterNode::handle_version_announce(const VersionAnnounce& a) {
  // The tracker notes the rows before it publishes, drops a late or
  // repeated announce, and after a missed one counts every row as changed.
  machine_->tracker().publish(a.version, a.shards);
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
        machine_->service().served_counts();
    for (int peer = 0; peer < shards; ++peer) {
      if (peer == node_id_ || transport_->peer_departed(peer)) continue;
      try {
        const auto reply = call_node(peer, kMethodShardLoad, {});
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

    const auto snap = machine_->routing().current();
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
    machine_->routing().apply(decode_shard_map_payload(payload));
    return {};
  }
  if (method == kMethodGetRoute) {
    return encode_shard_map_payload(*machine_->routing().current());
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
    return encode_shard_load_reply(machine_->service().served_counts());
  }
  if (method == kMethodMutateEdges) {
    return handle_mutate(decode_mutate_request(payload));
  }
  if (method == kMethodCompactShard) {
    return handle_compact(decode_shard_admin(payload));
  }
  if (method == kMethodVersionAnnounce) {
    handle_version_announce(
        decode_version_announce(payload, sharded_.mapping));
    return {};
  }
  if (method == kMethodGraphVersion) {
    return encode_version_reply(machine_->tracker().published());
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
  GE_REQUIRE(req.source >= 0 && req.source < sharded_.mapping.num_nodes(),
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
  GE_REQUIRE(req.source >= 0 && req.source < sharded_.mapping.num_nodes(),
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
  GE_REQUIRE(req.source >= 0 && req.source < sharded_.mapping.num_nodes(),
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
