// Wire encoding of the cluster query/admin RPCs served by every
// graph_engine_node (service name kQueryServiceName, registered on a
// dedicated dispatch pool — see RpcEndpoint::register_service).
//
// Requests name nodes by their ORIGINAL graph id; replies do the same, so
// the answers are placement-independent: the same query against an
// in-process Cluster and against a real TCP mesh must produce the same
// bytes (cluster_test holds the engine to that). Entry lists are sorted by
// global id before encoding for exactly that reason — hashmap iteration
// order is not part of the contract.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/shard_map.hpp"
#include "graph/generators.hpp"
#include "storage/shard.hpp"
#include "storage/versioned_shard.hpp"

namespace ppr::cluster {

inline constexpr const char* kQueryServiceName = "query";

// Methods of the query service.
inline constexpr const char* kMethodSsppr = "ssppr";
inline constexpr const char* kMethodBfs = "bfs";
inline constexpr const char* kMethodWalk = "walk";
inline constexpr const char* kMethodPing = "ping";
inline constexpr const char* kMethodMetrics = "metrics";
inline constexpr const char* kMethodShutdown = "shutdown";

// Elastic shard plane (DESIGN.md §13).
/// Push: payload is an encoded ShardMap; the receiver applies it to its
/// routing table (newer epochs only). Reply is empty.
inline constexpr const char* kMethodRouteUpdate = "route_update";
/// Pull: empty payload; reply is the answering node's current ShardMap.
inline constexpr const char* kMethodGetRoute = "get_route";
/// Admin (coordinator, node 0): move a shard's primary / add a replica.
/// Payload is a ShardAdminRequest; reply is the post-change ShardMap.
inline constexpr const char* kMethodMigrateShard = "migrate_shard";
inline constexpr const char* kMethodAddReplica = "add_replica";
/// Internal orchestration steps (node→node): pull-and-install a shard
/// snapshot from `node`; drop (drain + free) a served shard.
inline constexpr const char* kMethodAdoptShard = "adopt_shard";
inline constexpr const char* kMethodDropShard = "drop_shard";
/// Rebalancer poll: reply is the per-shard served-request counters of the
/// answering node's storage service, encoded as (shard, count) pairs.
inline constexpr const char* kMethodShardLoad = "shard_load";

// Versioned storage plane (DESIGN.md §15).
/// Coordinator (node 0) only: payload is a MutateRequest of undirected
/// global-id edge ops. The coordinator translates them to per-shard delta
/// batches, ships them to every serving node's store (owner first, then
/// replicas), announces the new graph version to all peers, and replies
/// with a MutateReply carrying the published version.
inline constexpr const char* kMethodMutateEdges = "mutate_edges";
/// Coordinator only: fold one shard's delta segments into a fresh base CSR
/// on every node serving it. Payload is a ShardAdminRequest (shard only);
/// reply is empty.
inline constexpr const char* kMethodCompactShard = "compact_shard";
/// Internal (coordinator → peer): payload is a VersionAnnounce; the
/// receiver notes the changed rows and publishes the version on its
/// local tracker so freshly admitted queries pin the new snapshot. Sent
/// BEFORE the coordinator replies to the client, so a follow-up query to
/// any node observes the mutation. Reply is empty.
inline constexpr const char* kMethodVersionAnnounce = "version_announce";
/// Empty payload; reply is the answering node's published graph version
/// (u64, via encode_version_reply).
inline constexpr const char* kMethodGraphVersion = "graph_version";

/// Error-string marker for a query routed to a node that does not serve
/// the shard (anymore): the client refreshes its route from the answering
/// node and retries. Layered as an error so the per-query reply codecs
/// stay untouched.
inline constexpr const char* kWrongOwnerPrefix = "wrong-owner: ";

/// (shard, node) argument of the admin/orchestration methods; `node` is
/// the migration target, replica host, or snapshot source depending on
/// the method.
struct ShardAdminRequest {
  std::int32_t shard = -1;
  std::int32_t node = -1;
};

/// SSPPR by source global id; alpha/epsilon are cluster-config constants
/// (every node boots from the same config), so the request is just the
/// source.
struct SspprRequest {
  NodeId source = 0;
};

struct SspprReply {
  /// serve::QueryStatus as its underlying value (OK / REJECTED /
  /// TIMED_OUT).
  std::uint8_t status = 0;
  std::uint64_t num_pushes = 0;
  /// Non-zero PPR estimates, sorted ascending by global id.
  std::vector<std::pair<NodeId, double>> entries;
};

struct BfsRequest {
  NodeId source = 0;
  std::int32_t max_depth = -1;
};

struct BfsReply {
  std::uint64_t num_levels = 0;
  /// (global id, hop distance), sorted ascending by global id.
  std::vector<std::pair<NodeId, std::int32_t>> distances;
};

struct WalkRequest {
  NodeId source = 0;
  std::int32_t walk_length = 10;
  std::uint64_t seed = 1;
};

struct WalkReply {
  /// Global ids visited, walk_length entries starting at the source.
  std::vector<NodeId> steps;
};

/// One batch of undirected global-id edge mutations — the unit of graph
/// versioning (the whole batch lands as one version).
struct MutateRequest {
  std::vector<EdgeMutationOp> ops;
};

struct MutateReply {
  /// Graph version the batch was published as.
  std::uint64_t version = 0;
};

/// Coordinator → peer version publication (protocol v4): each shard
/// mutated at `version` with the rows its batch changed. The receiver
/// notes the rows before publishing — the tracker's required order. A
/// receiver whose published version is below `version` − 1 missed an
/// announce and notes every row instead (DESIGN.md §15).
struct VersionAnnounce {
  std::uint64_t version = 0;
  std::vector<ShardRows> shards;
};

std::vector<std::uint8_t> encode_ssppr_request(const SspprRequest& r);
SspprRequest decode_ssppr_request(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_ssppr_reply(const SspprReply& r);
SspprReply decode_ssppr_reply(std::span<const std::uint8_t> p);

std::vector<std::uint8_t> encode_bfs_request(const BfsRequest& r);
BfsRequest decode_bfs_request(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_bfs_reply(const BfsReply& r);
BfsReply decode_bfs_reply(std::span<const std::uint8_t> p);

std::vector<std::uint8_t> encode_walk_request(const WalkRequest& r);
WalkRequest decode_walk_request(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_walk_reply(const WalkReply& r);
WalkReply decode_walk_reply(std::span<const std::uint8_t> p);

/// ping carries the answering node's id; metrics carries a JSON string.
std::vector<std::uint8_t> encode_ping_reply(std::int32_t node_id);
std::int32_t decode_ping_reply(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_text_reply(const std::string& text);
std::string decode_text_reply(std::span<const std::uint8_t> p);

std::vector<std::uint8_t> encode_shard_admin(const ShardAdminRequest& r);
ShardAdminRequest decode_shard_admin(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_shard_map_payload(const ShardMap& map);
ShardMap decode_shard_map_payload(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_shard_load_reply(
    const std::vector<std::pair<ShardId, std::uint64_t>>& counts);
std::vector<std::pair<ShardId, std::uint64_t>> decode_shard_load_reply(
    std::span<const std::uint8_t> p);

std::vector<std::uint8_t> encode_mutate_request(const MutateRequest& r);
MutateRequest decode_mutate_request(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_mutate_reply(const MutateReply& r);
MutateReply decode_mutate_reply(std::span<const std::uint8_t> p);
std::vector<std::uint8_t> encode_version_announce(const VersionAnnounce& a);
/// Every shard id and row is range-checked against `mapping` (and every
/// count against the bytes left) before the announce is returned, so a
/// hostile frame is rejected with InvalidArgument before anything is
/// noted.
VersionAnnounce decode_version_announce(std::span<const std::uint8_t> p,
                                        const GlobalMapping& mapping);
/// graph_version reply: just the u64.
std::vector<std::uint8_t> encode_version_reply(std::uint64_t version);
std::uint64_t decode_version_reply(std::span<const std::uint8_t> p);

}  // namespace ppr::cluster
