// Machine: the one definition of what a machine is (DESIGN.md §12–§15),
// shared by the in-process engine::Cluster (K machines over one
// InProcTransport) and the real-process cluster::ClusterNode (one machine
// over a TcpTransport).
//
// A machine owns its RpcEndpoint, its RoutingTable, its
// GraphStorageService, and one DistGraphStorage client per shard it
// serves (primary or replica). The version tracker is the caller's: the
// in-process cluster shares one across its machines, while every node
// process has its own and learns versions from the coordinator's
// announcement.
//
// Everything both clusters do to a machine's shards lives here, once:
//   * adopt: pull a kSnapshotShard copy of a shard from a peer and start
//     serving it — the Copy step of migration and replica bootstrap;
//   * drop: stop serving a shard (drain in-flight fetches, free the data);
//   * the mutation coordinator (apply_mutations);
//   * the local compaction leg;
//   * the failover hook: a dead peer's shards re-route to their replicas.
// What differs between the clusters — publishing routes, announcing
// versions, query schedulers — stays with the cluster that needs it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cluster/routing.hpp"
#include "graph/generators.hpp"
#include "rpc/endpoint.hpp"
#include "storage/dist_storage.hpp"
#include "storage/storage_service.hpp"
#include "storage/versioned_shard.hpp"

namespace ppr {

/// How a machine serves: its storage-server pool and the settings of
/// every per-shard client it builds.
struct MachineConfig {
  int server_threads = 1;
  /// Rows of each client's adjacency cache; 0 disables it.
  std::size_t adjacency_cache_rows = 0;
  RetryPolicy retry;
};

/// What a coordinated mutation batch produced.
struct MutationOutcome {
  std::uint64_t version = 0;
  /// Each mutated shard (ascending) with the rows its batch changed.
  std::vector<ShardRows> mutated;
};

class Machine {
 public:
  /// Machine `id` of `transport`, routing by `initial_map`. `mapping`
  /// translates the coordinator's global ids and must outlive the machine.
  Machine(std::shared_ptr<Transport> transport, int id, ShardMap initial_map,
          std::shared_ptr<VersionTracker> tracker,
          const GlobalMapping& mapping, MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  RpcEndpoint& endpoint() { return *endpoint_; }
  RoutingTable& routing() { return *routing_; }
  GraphStorageService& service() { return *service_; }
  VersionTracker& tracker() { return *tracker_; }

  /// Serve `store` and build its client; returns the client.
  std::shared_ptr<DistGraphStorage> install(
      std::shared_ptr<VersionedShardStore> store);

  /// Pull a full copy of `shard` (base CSR plus pending delta segments)
  /// from machine `src` over the storage wire, then install it, so the
  /// copy resumes at the source's exact version state. Counts
  /// `migration.bytes_copied`. Idempotent: a shard already served here
  /// returns its existing client.
  std::shared_ptr<DistGraphStorage> adopt(ShardId shard, int src);

  /// Stop serving `shard`: new fetches get the stale-route redirect, this
  /// call blocks until in-flight ones drain, then the client is unlinked
  /// and returned (nullptr when the shard was not served). The shard data
  /// lives on only as long as the caller keeps the returned client.
  std::shared_ptr<DistGraphStorage> drop(ShardId shard);

  /// This machine's client for `shard`; nullptr when it does not serve it.
  std::shared_ptr<DistGraphStorage> client(ShardId shard) const;

  /// The mutation coordinator (DESIGN.md §15): apply one batch of
  /// undirected global-id edge ops as the next graph version.
  ///   1. Translate each op into both endpoints' shard batches.
  ///   2. Fill each insert's weighted-degree hint at version − 1, from a
  ///      copy this machine holds or else by kGetWeightedDegs; every
  ///      remote read is in flight at once.
  ///   3. Land in waves: wave k ships each shard's batch to its k-th copy
  ///      (the owner is wave 0) with every RPC in flight at once; copies
  ///      held here apply in place meanwhile. A wave starts only after
  ///      every ack of the previous one.
  ///   4. Publish on this machine's tracker, noting each shard's changed
  ///      rows (the distinct source rows of its batch) first.
  /// Batches are serialized per machine.
  MutationOutcome apply_mutations(std::span<const EdgeMutationOp> ops);

  /// Compact this machine's copy of `shard` (the local leg of a
  /// compaction; pinned snapshots stay alive).
  void compact(ShardId shard);

 private:
  /// Any client this machine holds — the carrier of coordinator RPCs.
  std::shared_ptr<DistGraphStorage> any_client() const;
  /// Ship `batch` to `node`'s copy of `shard` as `version`; returns the
  /// pending ack. Addressed to that node, never load-balanced.
  RpcFuture issue_mutation(int node, ShardId shard, std::uint64_t version,
                           const MutationBatch& batch);

  int id_;
  const GlobalMapping& mapping_;
  MachineConfig config_;
  std::unique_ptr<RpcEndpoint> endpoint_;
  std::shared_ptr<RoutingTable> routing_;
  std::unique_ptr<GraphStorageService> service_;
  std::shared_ptr<VersionTracker> tracker_;

  mutable std::mutex clients_mu_;
  std::map<ShardId, std::shared_ptr<DistGraphStorage>> clients_;
  std::mutex mutation_mu_;  // versions are handed out strictly ascending
};

}  // namespace ppr
