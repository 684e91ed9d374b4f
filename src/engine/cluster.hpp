// Cluster: bootstraps the simulated distributed deployment, mirroring the
// paper's setup — K machines, each hosting one graph shard in shared
// memory, a Graph Storage server, and P computing processes. Each machine
// is a storage/machine.hpp Machine, the same definition a real
// graph_engine_node runs; here all K share one InProcTransport and one
// version tracker, so a published mutation needs no announcement.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "partition/partitioner.hpp"
#include "ppr/tensor_push.hpp"
#include "rpc/endpoint.hpp"
#include "storage/dist_storage.hpp"
#include "storage/machine.hpp"
#include "storage/storage_service.hpp"
#include "storage/versioned_shard.hpp"

namespace ppr {

struct ClusterOptions {
  int num_machines = 4;
  /// Network cost model for the in-process transport. Pass a zeroed model
  /// to disable simulated latency (tests do this).
  NetworkModel network{};
  /// Threads of the per-machine storage-server pool (the paper dedicates
  /// one server process per machine).
  int server_threads = 1;
  /// Cache the adjacency of 1-hop halo nodes in every shard (the
  /// higher-hop caching direction of §3.2.1): trades shard memory for
  /// locally served first-hop remote fetches.
  bool cache_halo_adjacency = false;
  /// Capacity (in neighbor rows) of each machine's dynamic adjacency
  /// cache, filled with rows fetched over RPC by the batched drivers and
  /// shared across that machine's computing processes; 0 disables it.
  std::size_t adjacency_cache_rows = 0;
};

/// Zeroed network model convenience for tests.
inline NetworkModel no_network_cost() { return NetworkModel{0.0, 0.0}; }

class Cluster {
 public:
  /// Shard `g` by `assignment` (values in [0, num_machines)) and start
  /// every machine with shard m on machine m.
  Cluster(const Graph& g, const PartitionAssignment& assignment,
          ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_machines() const { return options_.num_machines; }
  NodeId num_nodes() const { return sharded_.mapping.num_nodes(); }
  const GlobalMapping& mapping() const { return sharded_.mapping; }
  /// Shard `shard` as the cluster was built (before any mutation).
  const GraphShard& shard(ShardId shard) const {
    return *sharded_.shards[static_cast<std::size_t>(shard)];
  }
  /// Shard `shard`'s client on the primary this cluster last published,
  /// so it follows the shard through migrations (mutations land on the
  /// primary's copy). Thread-safe against a concurrent migration; a
  /// reference taken earlier stays valid for the cluster's lifetime.
  DistGraphStorage& storage(ShardId shard) {
    return *primaries_[static_cast<std::size_t>(shard)].load(
        std::memory_order_acquire);
  }
  RpcEndpoint& endpoint(int machine) { return machine_at(machine).endpoint(); }
  GraphStorageService& service(int machine) {
    return machine_at(machine).service();
  }
  /// Machine m's live routing table (each machine routes independently —
  /// exactly like separate processes — so tests can hold one machine's
  /// table stale and exercise the redirect path).
  RoutingTable& routing(int machine) { return machine_at(machine).routing(); }

  /// Live shard migration over the real wire path: machine `dst` adopts a
  /// snapshot of `shard` from its current primary (Machine::adopt), the
  /// new placement (epoch+1) is published to every machine's routing
  /// table except those in `skip_publish` (left stale on purpose — the
  /// stale-epoch retry test), and the source drains in-flight fetches and
  /// drops the shard.
  void migrate_shard(ShardId shard, int dst,
                     const std::vector<int>& skip_publish = {});

  /// Add a read replica of `shard` on `machine`: adopt a snapshot from
  /// the primary, publish with_replica to all tables (minus
  /// `skip_publish`).
  void add_replica(ShardId shard, int machine,
                   const std::vector<int>& skip_publish = {});

  /// Streaming edge mutations (DESIGN.md §15): apply one batch of
  /// undirected global-id edge ops as the next graph version, coordinated
  /// by machine 0 (Machine::apply_mutations — the same coordinator a
  /// graph_engine_node runs). Queries admitted before the publish keep
  /// reading their pinned snapshot. Returns the published version.
  std::uint64_t apply_edge_mutations(std::span<const EdgeMutationOp> ops);

  /// Fold shard `shard`'s delta segments into a fresh base CSR on every
  /// machine serving it (Copy→Publish→Retire; pinned snapshots stay
  /// alive).
  void compact_shard(ShardId shard);
  void compact_all();

  /// Newest published graph version (0 = never mutated).
  std::uint64_t graph_version() const { return tracker_->published(); }
  /// The primary's store for `shard` (for tests and tools).
  std::shared_ptr<VersionedShardStore> store(ShardId shard);
  /// Shared context for the tensor baseline (dense lookup tables).
  const TensorPushContext& tensor_ctx() const { return *tensor_ctx_; }

  /// Map a global node id to its owning shard's NodeRef.
  NodeRef locate(NodeId global) const { return sharded_.mapping.to_ref(global); }

  /// Reset the fetch statistics of every client (before a measured run);
  /// also clears the adjacency-cache counters (cached rows stay resident).
  void reset_stats();
  /// Aggregate remote-traversal ratio across clients since last reset.
  double remote_ratio() const;
  /// Aggregate remote-traffic counters across clients since last reset.
  std::uint64_t total_remote_calls() const;
  std::uint64_t total_remote_nodes() const;
  std::uint64_t total_remote_bytes() const;
  /// Aggregate adjacency-cache counters (0 when the cache is disabled).
  std::uint64_t total_adjacency_cache_hits() const;
  std::uint64_t total_adjacency_cache_misses() const;

 private:
  Machine& machine_at(int machine) {
    return *machines_[static_cast<std::size_t>(machine)];
  }
  /// Keep `client` for the cluster's lifetime (counted by the aggregate
  /// statistics) unless it is already kept. Caller holds admin_mu_.
  void keep(std::shared_ptr<DistGraphStorage> client);
  /// Make `next` the published map: apply it to every routing table not
  /// in `skip_publish` and point storage(s) at each shard's primary.
  /// Caller holds admin_mu_.
  void publish(const ShardMap& next, const std::vector<int>& skip_publish);
  /// Sum `field` over every kept client.
  template <typename F>
  std::uint64_t sum_clients(F field) const;

  ClusterOptions options_;
  ShardedGraph sharded_;
  std::shared_ptr<Transport> transport_;
  std::shared_ptr<VersionTracker> tracker_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::unique_ptr<TensorPushContext> tensor_ctx_;

  /// Serializes migrations and replica additions; guards published_ and
  /// clients_.
  mutable std::mutex admin_mu_;
  ShardMap published_;
  /// Every client a machine built for this cluster, retired ones
  /// included: storage() hands out references that must outlive a
  /// migration.
  std::vector<std::shared_ptr<DistGraphStorage>> clients_;
  std::unique_ptr<std::atomic<DistGraphStorage*>[]> primaries_;
};

}  // namespace ppr
