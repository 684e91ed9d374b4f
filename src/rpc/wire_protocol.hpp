// Bootstrap handshake frames of the TCP mesh (DESIGN.md §12).
//
// When node A opens its outbound link to node B, A sends one fixed-size
// HELLO frame naming the protocol version, A's node id, the cluster size,
// and the fingerprint of the shard map A was configured with. B validates
// the HELLO against its own configuration and answers WELCOME (status 0)
// or a REJECT status plus a human-readable reason string, then closes the
// link on rejection. Only after every link of the full mesh is WELCOMEd
// does the readiness barrier run (frame_io control frames kReady/kGo).
//
// The validation logic is pure (no sockets) so cluster_test can exercise
// every rejection path directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace ppr {

/// Bumped whenever the frame layout or the bootstrap sequence changes
/// incompatibly; both ends must match exactly.
// v2: storage requests carry a [shard, routing epoch] header and storage
// replies a status byte (stale-route redirects); ShardMap wire format
// gained replica sets. v1 peers cannot interoperate.
// v3: one 20-byte storage header [shard, routing epoch, graph version]
// with the graph version always concrete; v2's 12-byte header and its
// flagged versioned form are gone.
// v4: the version announce carries each mutated shard's changed rows, so
// peers gate their halo and adjacency cache per row.
inline constexpr std::uint16_t kClusterProtocolVersion = 4;

/// "GEN1" little-endian — rejects random port scanners and non-cluster
/// peers before any field is interpreted.
inline constexpr std::uint32_t kHelloMagic = 0x314e4547;

/// Fixed-size HELLO, sent by the connecting (outbound) side of a link.
struct HelloFrame {
  std::uint32_t magic = kHelloMagic;
  std::uint16_t version = kClusterProtocolVersion;
  std::uint16_t reserved = 0;
  std::int32_t node_id = -1;       // sender's node id
  std::int32_t cluster_size = 0;   // sender's view of the mesh size
  std::uint64_t shard_epoch = 0;   // sender's shard-map epoch
  std::uint64_t shard_fingerprint = 0;  // sender's shard-map fingerprint
};
static_assert(sizeof(HelloFrame) == 32, "HELLO is a fixed 32-byte frame");

enum class HelloStatus : std::uint16_t {
  kWelcome = 0,
  kBadMagic = 1,
  kVersionMismatch = 2,
  kClusterSizeMismatch = 3,
  kNodeIdOutOfRange = 4,
  kNodeIdCollision = 5,
  kShardMapMismatch = 6,
};

/// Fixed-size reply header; a non-zero status is followed by
/// `reason_len` bytes of human-readable reason, then the acceptor closes
/// the link.
struct HelloReply {
  std::uint32_t magic = kHelloMagic;
  std::uint16_t version = kClusterProtocolVersion;
  std::uint16_t status = 0;
  std::uint32_t reason_len = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(HelloReply) == 16, "reply is a fixed 16-byte frame");

/// What the acceptor knows and checks a HELLO against.
struct HelloExpectation {
  std::int32_t local_node = -1;
  std::int32_t cluster_size = 0;
  std::uint64_t shard_epoch = 0;
  std::uint64_t shard_fingerprint = 0;
  /// True for peer ids whose inbound link is already established — a
  /// second HELLO with the same id means two processes were launched with
  /// the same --node.
  bool already_connected = false;
};

struct HelloVerdict {
  HelloStatus status = HelloStatus::kWelcome;
  std::string reason;  // empty on welcome
  bool ok() const { return status == HelloStatus::kWelcome; }
};

/// Pure validation of an inbound HELLO; the transport turns the verdict
/// into a WELCOME or REJECT reply.
inline HelloVerdict validate_hello(const HelloFrame& hello,
                                   const HelloExpectation& expect) {
  if (hello.magic != kHelloMagic) {
    return {HelloStatus::kBadMagic, "bad magic (not a graph-engine peer)"};
  }
  if (hello.version != kClusterProtocolVersion) {
    return {HelloStatus::kVersionMismatch,
            "protocol version mismatch: peer speaks v" +
                std::to_string(hello.version) + ", this node speaks v" +
                std::to_string(kClusterProtocolVersion)};
  }
  if (hello.cluster_size != expect.cluster_size) {
    return {HelloStatus::kClusterSizeMismatch,
            "cluster size mismatch: peer expects " +
                std::to_string(hello.cluster_size) + " nodes, this node " +
                std::to_string(expect.cluster_size)};
  }
  if (hello.node_id < 0 || hello.node_id >= expect.cluster_size) {
    return {HelloStatus::kNodeIdOutOfRange,
            "node id " + std::to_string(hello.node_id) +
                " outside [0, " + std::to_string(expect.cluster_size) + ")"};
  }
  if (hello.node_id == expect.local_node || expect.already_connected) {
    return {HelloStatus::kNodeIdCollision,
            "node id collision: a node " + std::to_string(hello.node_id) +
                " is already part of this mesh"};
  }
  if (hello.shard_epoch != expect.shard_epoch ||
      hello.shard_fingerprint != expect.shard_fingerprint) {
    return {HelloStatus::kShardMapMismatch,
            "shard map mismatch: peer has epoch " +
                std::to_string(hello.shard_epoch) + "/fp " +
                std::to_string(hello.shard_fingerprint) +
                ", this node epoch " + std::to_string(expect.shard_epoch) +
                "/fp " + std::to_string(expect.shard_fingerprint) +
                " (nodes must boot from identical cluster configs)"};
  }
  return {};
}

}  // namespace ppr
