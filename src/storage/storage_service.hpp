// Server side of the Distributed Graph Storage: registers the locally
// installed shards as an RPC service ("storage") so peers can fetch
// neighbor information. One instance runs per machine, playing the role
// of the paper's dedicated Graph Storage server process.
//
// Elastic shard plane (DESIGN.md §13): the service holds a SET of shards
// — migration installs and removes them at runtime. Every request opens
// with a [shard id, routing epoch] header; if the shard is installed the
// request is served regardless of the caller's ROUTING epoch (placement
// version — serving from a "stale" route is still correct because reads
// are pinned by GRAPH version, not by where the shard lives), otherwise
// the reply is a stale-route redirect carrying this node's current
// ShardMap so the caller can re-resolve and retry without a coordinator
// round.
//
// Versioned storage plane (DESIGN.md §15): each installed shard is a
// VersionedShardStore. Every request header carries a concrete graph
// version; every read method serves through one ShardSnapshot pinned at
// it, so a reply never mixes two versions even while MutateEdges RPCs
// land concurrently.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/routing.hpp"
#include "rpc/endpoint.hpp"
#include "storage/shard.hpp"
#include "storage/versioned_shard.hpp"

namespace ppr {

/// Method names understood by the storage service.
namespace storage_method {
inline constexpr const char* kGetNeighborInfos = "get_neighbor_infos";
inline constexpr const char* kGetNeighborInfoSingle =
    "get_neighbor_info_single";
/// Full store snapshot (VersionedShardStore::serialize: base CSR +
/// pending delta segments) — the migration / replica-bootstrap copy.
inline constexpr const char* kSnapshotShard = "snapshot_shard";
/// Apply one MutationBatch at the header's graph version (DESIGN.md §15).
/// Routed by the mutation coordinator to the shard owner and every
/// replica in version order.
inline constexpr const char* kMutateEdges = "mutate_edges";
/// Weighted degrees of a batch of core nodes — the coordinator's
/// pre-mutation hint fetch (EdgeInsert::nbr_weighted_deg).
inline constexpr const char* kGetWeightedDegs = "get_weighted_degs";
}  // namespace storage_method

inline constexpr const char* kStorageServiceName = "storage";

/// Leading status byte of every storage reply.
inline constexpr std::uint8_t kStorageReplyOk = 0;
/// The requested shard is not installed here: the rest of the reply is
/// this node's current ShardMap (encoded) — re-resolve and retry.
inline constexpr std::uint8_t kStorageReplyStaleRoute = 1;

/// Every storage request opens with this 20-byte header:
/// [shard:i32][routing epoch:u64][graph version:u64]. The routing epoch
/// sits at a fixed offset so a retry can patch it in place without
/// re-encoding.
inline constexpr std::size_t kStorageEpochOffset = sizeof(std::int32_t);
inline constexpr std::size_t kStorageHeaderBytes =
    sizeof(std::int32_t) + 2 * sizeof(std::uint64_t);

/// Decoded request header. `routing_epoch` versions shard *placement*
/// (ShardMap); `graph_version` versions the *data* (DESIGN.md §15
/// glossary) and is always a concrete published version.
struct StorageHeader {
  ShardId shard = 0;
  std::uint64_t routing_epoch = 0;
  std::uint64_t graph_version = 0;
};

/// Decode the header; a frame shorter than it is InvalidArgument.
inline StorageHeader read_storage_header(ByteReader& r) {
  GE_REQUIRE(r.remaining() >= kStorageHeaderBytes,
             "storage request shorter than its header");
  StorageHeader h;
  h.shard = r.read<std::int32_t>();
  h.routing_epoch = r.read<std::uint64_t>();
  h.graph_version = r.read<std::uint64_t>();
  return h;
}

inline void write_storage_header(ByteWriter& w, ShardId shard,
                                 std::uint64_t epoch,
                                 std::uint64_t graph_version) {
  w.write<std::int32_t>(shard);
  w.write<std::uint64_t>(epoch);
  w.write<std::uint64_t>(graph_version);
}

/// Flag bits of the kGetNeighborInfos request's flags byte (the wire
/// form of FetchOptions). Historic requests carried `u8 compress` alone,
/// so bit 0 keeps that meaning and the new bits extend it compatibly.
inline constexpr std::uint8_t kFetchFlagCompress = 0x01;
inline constexpr std::uint8_t kFetchFlagVarint = 0x02;
inline constexpr std::uint8_t kFetchFlagNoWeights = 0x04;

/// Decode the request flag byte back into FetchOptions.
inline FetchOptions fetch_options_from_flags(std::uint8_t flags) {
  FetchOptions options;
  options.compress = (flags & kFetchFlagCompress) != 0;
  options.codec = (flags & kFetchFlagVarint) != 0 ? WireCodec::kDeltaVarint
                                                  : WireCodec::kFlat;
  options.need_weights = (flags & kFetchFlagNoWeights) == 0;
  return options;
}

class GraphStorageService {
 public:
  /// Registers the service on `endpoint` under kStorageServiceName.
  /// Stores are installed afterwards (install_store).
  GraphStorageService(RpcEndpoint& endpoint,
                      std::shared_ptr<RoutingTable> routing);

  /// Begin serving a versioned store (migration adoption / replica
  /// bootstrap land here with the source's version state intact).
  /// Replaces any store installed for the same shard id.
  void install_store(std::shared_ptr<VersionedShardStore> store);

  /// Stop serving `shard`: unlink it so new requests see a stale-route
  /// redirect, then BLOCK until every in-flight request on it drains —
  /// the migration protocol's drain step. After return the service holds
  /// no reference to the shard data.
  void remove_shard(ShardId shard);

  bool serves(ShardId shard) const;
  /// Current base CSR of the installed store (newest generation).
  std::shared_ptr<const GraphShard> shard_ptr(ShardId shard) const;
  std::shared_ptr<VersionedShardStore> store_ptr(ShardId shard) const;

  /// (shard, requests served) per installed shard — the rebalancer's
  /// per-shard traffic signal.
  std::vector<std::pair<ShardId, std::uint64_t>> served_counts() const;

  const RoutingTable& routing() const { return *routing_; }

 private:
  struct Entry {
    std::shared_ptr<VersionedShardStore> store;
    std::atomic<int> inflight{0};
    std::atomic<std::uint64_t> served{0};
  };

  std::vector<std::uint8_t> handle(const std::string& method,
                                   std::span<const std::uint8_t> payload);
  std::vector<std::uint8_t> dispatch(Entry& entry,
                                     const StorageHeader& header,
                                     const std::string& method,
                                     ByteReader& r, ByteWriter& w);
  std::vector<std::uint8_t> stale_route_reply(ByteWriter& w) const;

  std::shared_ptr<RoutingTable> routing_;
  mutable std::mutex mutex_;
  std::condition_variable drain_cv_;
  std::map<ShardId, std::shared_ptr<Entry>> shards_;
};

}  // namespace ppr
