// TcpTransport: the real multi-process transport (DESIGN.md §12).
//
// Where InProcTransport simulates K machines with queues, a TcpTransport
// instance serves exactly ONE node of a K-node mesh; the other K-1 nodes
// are separate OS processes, possibly on other hosts (or, in tests, other
// TcpTransport instances of one process over loopback). Frames, codecs,
// and trace propagation go through rpc/frame_io.hpp, so RpcEndpoint and
// everything above it work unchanged.
//
// Link layout: one ordered TCP connection per (src, dst) pair — the side
// that will *send* on a link is the side that connects — plus a local
// socketpair for the self loop. Bootstrap:
//
//   1. bind+listen on this node's configured port (SO_REUSEADDR, backlog
//      >= cluster size; TCP_NODELAY on every accepted/made connection);
//   2. connect to every peer (nonblocking connect + poll, retrying
//      ECONNREFUSED until `connect_timeout_s` so start order is free) and
//      send a HELLO (rpc/wire_protocol.hpp); the peer answers WELCOME or
//      a REJECT reason, which surfaces here as an RpcError;
//   3. accept K-1 inbound links, validating each HELLO (version, cluster
//      size, node-id range/collision, shard-map epoch+fingerprint);
//   4. readiness barrier — a separate step AFTER start(), because "my
//      sockets are connected" is not "I am ready to serve": a node still
//      has to register its RPC services once the mesh is up, and a peer
//      released too early would race requests into that window. barrier()
//      sends kReady to node 0 over the outbound link; node 0 answers kGo
//      on each outbound link once all K-1 readies arrived. The control
//      frames ride the running reader threads.
//
// Departure: announce_leave() sends a kLeave control frame on every
// outbound link; receivers mark the peer departed (new sends to it raise
// RpcError) but keep draining the link until EOF — kLeave means "nothing
// NEW is coming", yet replies the peer wrote concurrently with its LEAVE
// are still in flight and must reach their futures. An EOF without kLeave
// is logged as an unclean disconnect. Either way EOF fires the endpoint's
// peer-down hook so calls pending on a dead peer fail instead of hanging.
// A malformed frame closes its link the same way: it is logged, the peer
// is marked departed and the hook fires; the node keeps serving the rest.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "rpc/transport.hpp"

namespace ppr {

struct TcpPeer {
  std::string host;
  std::uint16_t port = 0;
};

struct TcpTransportOptions {
  /// Total time budget for connecting to every peer (covers peers that
  /// start later than us).
  double connect_timeout_s = 20.0;
  /// Pause between connect retries while a peer's listener isn't up yet.
  double connect_retry_ms = 50.0;
  /// Shard-map identity carried in the HELLO and checked against every
  /// peer's (see ShardMap::fingerprint()).
  std::uint64_t shard_epoch = 0;
  std::uint64_t shard_fingerprint = 0;
};

class TcpTransport final : public Transport {
 public:
  /// Binds and listens on `peers[local_node]` immediately (so peers can
  /// start connecting) but makes no connections yet — call connect_mesh().
  /// A port of 0 binds ephemerally; listen_port() reports the real port
  /// (single-host tests use this).
  TcpTransport(int local_node, std::vector<TcpPeer> peers,
               TcpTransportOptions options = {});
  ~TcpTransport() override;

  /// Establish the full mesh: outbound connects + HELLO handshakes,
  /// inbound accepts + validation. Throws RpcError on timeout, rejection,
  /// or a malformed peer. Must be called exactly once, before start().
  void connect_mesh();

  /// Cluster-wide readiness rendezvous (see bootstrap step 4 above).
  /// Call exactly once, after start(), at the point where this node is
  /// fully able to serve — no peer passes the barrier before every node
  /// reached it. Throws RpcError if a peer never reports within
  /// `connect_timeout_s`.
  void barrier();

  std::uint16_t listen_port() const { return listen_port_; }
  int local_node() const { return local_node_; }

  /// Patch a peer's port before connect_mesh() — for ephemeral-port
  /// (port 0) deployments where real ports are only known after every
  /// transport has bound its listener (single-host tests).
  void set_peer_port(int node, std::uint16_t port);

  /// Send a kLeave on every outbound link (idempotent). Called by stop()
  /// as well; call it earlier for an orderly drain sequence.
  void announce_leave();

  bool peer_departed(int node) const {
    return departed_[static_cast<std::size_t>(node)].load(
        std::memory_order_acquire);
  }

  // Transport interface. start()/detach() only accept this node's id.
  void start(int machine_id, MessageHandler handler) override;
  void send(Message msg) override;
  void detach(int machine_id) override;
  void stop() override;
  void set_peer_down_handler(int machine_id,
                             std::function<void(int)> on_down) override;
  int num_machines() const override {
    return static_cast<int>(peers_.size());
  }

 private:
  struct Link {
    int fd = -1;
    std::mutex write_mutex;
  };

  void reader_loop(int peer, int fd);
  int connect_to_peer(int peer) const;
  void accept_inbound();

  int local_node_;
  std::vector<TcpPeer> peers_;
  TcpTransportOptions options_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::vector<std::unique_ptr<Link>> out_links_;  // [dst] send side
  std::vector<int> in_fds_;                       // [src] receive side
  std::vector<std::thread> readers_;
  // departed_[peer]: kLeave received from that peer.
  std::vector<std::atomic<bool>> departed_;

  MessageHandler handler_;
  std::function<void(int)> peer_down_;
  bool meshed_ = false;
  bool started_ = false;
  // Barrier rendezvous state, fed by the reader threads: the coordinator
  // counts kReady frames, everyone else watches for its kGo.
  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int readies_seen_ = 0;
  bool go_seen_ = false;
  std::atomic<bool> left_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> detached_{false};

  // Wire counters (obs plane): per-node traffic over the TCP mesh.
  obs::ShardedCounter frames_sent_;
  obs::ShardedCounter frames_received_;
  obs::ShardedCounter bytes_sent_;
  obs::ShardedCounter bytes_received_;
  obs::ShardedCounter peers_departed_;
  std::vector<obs::Registration> metric_regs_;
};

}  // namespace ppr
