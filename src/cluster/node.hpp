// ClusterNode: everything one graph_engine_node process runs (DESIGN.md
// §12–§13). Construction is the whole bootstrap:
//
//   load graph + partition (deterministic from the shared config)
//   → build this node's shard
//   → TcpTransport: listen, connect the mesh, handshake, readiness barrier
//   → one Machine (storage/machine.hpp — the same definition each
//     in-process Cluster machine is): RpcEndpoint + RoutingTable +
//     GraphStorageService + a storage client per served shard
//   → one ServingUnit (that client + a MachineScheduler) per shard this
//     node serves — initially just its own
//   → query/admin service on a DEDICATED dispatch pool.
//
// The dedicated query pool is load-bearing: query handlers block on
// remote storage fetches, so if they shared the storage-RPC pool, K nodes
// each stuck in a query handler would deadlock waiting for each other's
// storage RPCs that have no thread left to run on.
//
// Elastic shard plane: shards move at runtime. A migration (coordinator
// handler kMethodMigrateShard) copies the shard to its new home while the
// old one keeps serving, broadcasts the epoch+1 placement to every mesh
// member (kMethodRouteUpdate — clients included), then drains and frees
// the source. Replicas (kMethodAddReplica) install the same data without
// moving the primary; reads load-balance across the replica set. On a
// peer death the transport's peer-down hook derives the same failover map
// on every surviving member (ShardMap::without_node is a pure function),
// so a replicated shard keeps serving with no coordinator round.
//
// Shutdown (run() after request_shutdown(), or shutdown() directly) is a
// graceful drain: stop admitting queries, flush every unit's scheduler,
// quiesce RPC delivery, announce LEAVE to every peer, then close the mesh.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/query_wire.hpp"
#include "cluster/routing.hpp"
#include "rpc/tcp_transport.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_types.hpp"
#include "serve/stats.hpp"
#include "storage/machine.hpp"

namespace ppr::cluster {

class ClusterNode {
 public:
  /// Boots node `node_id` (a storage slot of `config`) and blocks until
  /// the whole mesh is up (readiness barrier). `net` overrides transport
  /// timing knobs; its shard_epoch/fingerprint fields are ignored (always
  /// derived from the config's shard map).
  ClusterNode(ClusterConfig config, int node_id,
              TcpTransportOptions net = {});
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  int node_id() const { return node_id_; }
  const ClusterConfig& config() const { return config_; }
  std::uint16_t listen_port() const { return transport_->listen_port(); }
  const GlobalMapping& mapping() const { return sharded_.mapping; }

  /// Snapshot of this node's live routing table.
  std::shared_ptr<const ShardMap> shard_map() const {
    return machine_->routing().current();
  }

  /// Async shutdown signal — safe to call from a signal-handler-driven
  /// path (it only flips an atomic and pokes a condition variable) and
  /// from RPC handlers.
  void request_shutdown();
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Serve until request_shutdown(), then drain and leave the mesh.
  void run();

  /// The graceful-drain sequence itself; idempotent. run() calls this.
  void shutdown();

  /// This node's registry metrics (the PR 5 obs plane) as JSON.
  std::string metrics_json() const;

  serve::ServiceStatsSnapshot serve_stats() const;

 private:
  /// Everything needed to serve queries for ONE shard: the machine's
  /// storage client for that shard (the SSPPR push order depends only on
  /// shard_id, which is what keeps answers bit-identical across
  /// placements) and a scheduler running the owner-compute batches.
  /// Replica units keep an idle scheduler so a failover promotion starts
  /// answering queries without any setup.
  struct ServingUnit {
    // Declaration order is load-bearing: the scheduler references the
    // storage, so it must be destroyed first (members destruct in
    // reverse order).
    std::shared_ptr<DistGraphStorage> storage;
    std::unique_ptr<serve::MachineScheduler> scheduler;
    std::atomic<bool> retiring{false};
  };

  std::vector<std::uint8_t> handle_query(
      const std::string& method, std::span<const std::uint8_t> payload);
  std::vector<std::uint8_t> run_ssppr(std::span<const std::uint8_t> payload);
  std::vector<std::uint8_t> run_bfs(std::span<const std::uint8_t> payload);
  std::vector<std::uint8_t> run_walk(std::span<const std::uint8_t> payload);

  /// Coordinator orchestration (any node can run these; tools call node
  /// 0). Both reply with the post-change ShardMap.
  std::vector<std::uint8_t> handle_migrate(const ShardAdminRequest& req);
  std::vector<std::uint8_t> handle_add_replica(const ShardAdminRequest& req);

  /// Mutation coordinator (DESIGN.md §15): Machine::apply_mutations
  /// lands and publishes the batch, then the version is announced to
  /// every storage peer before the reply carries it back.
  std::vector<std::uint8_t> handle_mutate(const MutateRequest& req);
  /// `req.node == -1`: orchestrate — compact `req.shard` on every node
  /// serving it. `req.node == node_id_`: the local leg
  /// (Machine::compact).
  std::vector<std::uint8_t> handle_compact(const ShardAdminRequest& req);
  /// Peer leg of a mutation: mark the mutated shards, then publish the
  /// version on this node's tracker.
  void handle_version_announce(const VersionAnnounce& a);

  /// Adopt `shard` from node `src` (Machine::adopt) and start a
  /// ServingUnit for it. Idempotent.
  void adopt_shard(ShardId shard, int src);
  /// Stop serving `shard`: retire the unit, drain its scheduler, then drop
  /// the shard from the machine (drains in-flight storage fetches, frees
  /// the data). Idempotent.
  void drop_shard(ShardId shard);
  void add_unit(ShardId shard, std::shared_ptr<DistGraphStorage> storage);
  /// The serving unit for `shard`; throws the wrong-owner RpcError when
  /// this node does not serve it (the client re-resolves and retries).
  std::shared_ptr<ServingUnit> unit_for(ShardId shard);

  /// Synchronous query-plane call to `node`.
  std::vector<std::uint8_t> call_node(int node, const char* method,
                                      std::vector<std::uint8_t> payload);

  /// Apply `next` locally, then push it to every live mesh member
  /// (clients included). Per-peer failures are logged, not fatal — a
  /// peer that missed the update recovers through the stale-route /
  /// wrong-owner retry paths.
  void broadcast_route(const ShardMap& next);

  /// Node 0's background loop (rebalance_interval_ms > 0): polls
  /// per-shard served counts from every storage node, feeds the interval
  /// delta to propose_rebalance, and applies the resulting add-replica
  /// actions.
  void rebalancer_loop();

  ClusterConfig config_;
  int node_id_;
  ShardedGraph sharded_;

  std::shared_ptr<TcpTransport> transport_;
  std::unique_ptr<Machine> machine_;

  serve::ServeOptions serve_options_;
  serve::ServiceStats stats_;

  mutable std::mutex units_mutex_;
  std::map<ShardId, std::shared_ptr<ServingUnit>> units_;
  /// Serializes migrations / replica additions (one orchestration at a
  /// time — the routing snapshot each starts from must still be current
  /// when its epoch+1 map publishes).
  std::mutex admin_mutex_;

  /// Serializes mutate + announce on the coordinator, so every peer
  /// learns versions in ascending order.
  std::mutex mutation_mu_;

  std::unique_ptr<ThreadPool> query_pool_;
  std::thread rebalancer_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> shut_down_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
};

}  // namespace ppr::cluster
