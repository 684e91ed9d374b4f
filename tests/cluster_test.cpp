// Cluster subsystem tests (DESIGN.md §12): config parsing/validation,
// ShardMap semantics, the pure handshake validator, the TCP mesh itself
// (bootstrap, delivery, departure, wire-level handshake rejection, the
// readiness barrier), and a 3-process end-to-end run whose answers must be
// bit-identical to the in-process simulated cluster.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/client.hpp"
#include "cluster/config.hpp"
#include "cluster/query_wire.hpp"
#include "cluster/shard_map.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "engine/cluster.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ppr/bfs.hpp"
#include "ppr/random_walk.hpp"
#include "rpc/endpoint.hpp"
#include "rpc/frame_io.hpp"
#include "rpc/tcp_transport.hpp"
#include "rpc/wire_protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"
#include "tcp_mesh.hpp"

namespace ppr {
namespace {

// ---------------------------------------------------------------------------
// ClusterConfig parsing + validation

constexpr const char* kValidConfig = R"(# demo cluster
cluster_name = demo
dataset      = products-sim
scale        = 0.05
partition    = hash
server_threads = 3
query_threads  = 4
executors      = 2
ppr_alpha    = 0.25
node 0 10.0.0.1 7301 storage
node 1 10.0.0.2 7302 storage
node 2 10.0.0.3 7303 storage
node 3 10.0.0.9 7304 client
)";

TEST(ClusterConfig, ParsesFullConfig) {
  const ClusterConfig c = ClusterConfig::parse_string(kValidConfig);
  EXPECT_EQ(c.cluster_name, "demo");
  EXPECT_EQ(c.dataset, "products-sim");
  EXPECT_DOUBLE_EQ(c.scale, 0.05);
  EXPECT_EQ(c.partition, "hash");
  EXPECT_EQ(c.server_threads, 3);
  EXPECT_EQ(c.query_threads, 4);
  EXPECT_EQ(c.executors, 2);
  EXPECT_DOUBLE_EQ(c.ppr_alpha, 0.25);
  ASSERT_EQ(c.num_nodes(), 4);
  EXPECT_EQ(c.num_storage_nodes(), 3);
  EXPECT_EQ(c.node(1).host, "10.0.0.2");
  EXPECT_EQ(c.node(1).port, 7302);
  EXPECT_EQ(c.node(3).role, NodeSpec::Role::kClient);

  const ShardMap map = c.initial_shard_map();
  EXPECT_TRUE(map.valid());
  EXPECT_EQ(map.num_shards(), 3);
  EXPECT_EQ(map.epoch(), 1u);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(map.node_of(s), s);
}

TEST(ClusterConfig, RoundTripsThroughToString) {
  const ClusterConfig c = ClusterConfig::parse_string(kValidConfig);
  const ClusterConfig again = ClusterConfig::parse_string(c.to_string());
  EXPECT_EQ(again.to_string(), c.to_string());
  EXPECT_EQ(again.num_storage_nodes(), c.num_storage_nodes());
  EXPECT_EQ(again.initial_shard_map().fingerprint(),
            c.initial_shard_map().fingerprint());
}

// Expects parse_string to throw InvalidArgument whose message names the
// origin and contains `needle`.
void expect_config_error(const std::string& text, const std::string& needle) {
  try {
    ClusterConfig::parse_string(text, "test.conf");
    FAIL() << "config accepted; expected error containing '" << needle
           << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("test.conf"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ClusterConfig, RejectsMalformedAndTruncatedInput) {
  // Line-level garbage, each reported with its line number.
  expect_config_error("dataset = x\nwhat is this\nnode 0 h 1 storage\n",
                      ":2:");
  expect_config_error("dataset = x\nnode 0 127.0.0.1\n",
                      "node line needs");
  expect_config_error("dataset = x\nnode 0 h 80 coordinator\n",
                      "unknown node role");
  expect_config_error("dataset = x\nnode 0 h 80 storage extra\n",
                      "trailing tokens");
  expect_config_error("dataset = x\nscale = abc\nnode 0 h 80 storage\n",
                      "expected a number");
  expect_config_error("dataset = x\nbogus_key = 1\nnode 0 h 80 storage\n",
                      "unknown key");
  expect_config_error("dataset = x\nnode 0 h 0 storage\n",
                      "port must be in");

  // Whole-file (truncated-config) validation.
  expect_config_error("dataset = x\n", "declares no nodes");
  expect_config_error("dataset = x\nnode 0 h 80 client\n",
                      "no storage nodes");
  expect_config_error(
      "dataset = x\nnode 0 h 80 storage\nnode 0 h 81 storage\n",
      "duplicate node id");
  expect_config_error(
      "dataset = x\nnode 0 h 80 storage\nnode 2 h 81 storage\n",
      "contiguous");
  expect_config_error(
      "dataset = x\nnode 0 h 80 client\nnode 1 h 81 storage\n",
      "storage nodes must occupy ids");
  expect_config_error("node 0 h 80 storage\n", "neither 'dataset' nor");
  expect_config_error("dataset = x\ngraph = y\nnode 0 h 80 storage\n",
                      "both 'dataset' and 'graph'");
  expect_config_error("dataset = x\nserver_threads = 0\nnode 0 h 80\n",
                      "thread counts");
}

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMapSuite, IdentityAndValidity) {
  EXPECT_FALSE(ShardMap().valid());
  const ShardMap id = ShardMap::identity(4);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.num_shards(), 4);
  EXPECT_EQ(id.epoch(), 1u);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(id.node_of(s), s);
  EXPECT_THROW(id.node_of(4), InvalidArgument);
  EXPECT_THROW(ShardMap({}, 1), InvalidArgument);
  EXPECT_THROW(ShardMap({0, 1}, 0), InvalidArgument);
  EXPECT_THROW(ShardMap({0, -1}, 1), InvalidArgument);
}

TEST(ShardMapSuite, WithPlacementBumpsEpochAndFingerprint) {
  const ShardMap id = ShardMap::identity(3);
  const ShardMap moved = id.with_placement(2, 0);
  EXPECT_EQ(moved.epoch(), 2u);
  EXPECT_EQ(moved.node_of(2), 0);
  EXPECT_EQ(moved.node_of(0), 0);
  EXPECT_NE(moved.fingerprint(), id.fingerprint());
  // Same placement, different epoch: still distinguishable.
  const ShardMap back = moved.with_placement(2, 2);
  EXPECT_EQ(back.epoch(), 3u);
  EXPECT_EQ(back.placement(), id.placement());
  EXPECT_NE(back.fingerprint(), id.fingerprint());
}

TEST(ShardMapSuite, EncodeDecodeRoundTrip) {
  const ShardMap map = ShardMap::identity(5).with_placement(3, 1);
  ByteWriter w;
  map.encode(w);
  const std::vector<std::uint8_t> bytes = w.take();
  ByteReader r(bytes);
  const ShardMap decoded = ShardMap::decode(r);
  EXPECT_EQ(decoded, map);
  EXPECT_EQ(decoded.fingerprint(), map.fingerprint());
}

// ---------------------------------------------------------------------------
// Query-plane codecs (pure)

// The query plane decodes bytes from any mesh client (mutate requests land
// on node 0). A count or string length the payload cannot hold is rejected
// as InvalidArgument before anything is reserved for it, and every
// truncation of a well-formed payload is a typed EngineError.
TEST(QueryWire, DecodersRejectHostileCountsAndTruncation) {
  using namespace cluster;
  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 24}) {
    SCOPED_TRACE(count);
    ByteWriter ssppr;  // status, num_pushes, count, one entry
    ssppr.write<std::uint8_t>(0);
    ssppr.write<std::uint64_t>(7);
    ssppr.write<std::uint64_t>(count);
    ssppr.write<std::int64_t>(1);
    ssppr.write<double>(0.5);
    EXPECT_THROW(decode_ssppr_reply(ssppr.bytes()), InvalidArgument);
    ByteWriter bfs;  // num_levels, count, one entry
    bfs.write<std::uint64_t>(1);
    bfs.write<std::uint64_t>(count);
    bfs.write<std::int64_t>(1);
    bfs.write<std::int32_t>(0);
    EXPECT_THROW(decode_bfs_reply(bfs.bytes()), InvalidArgument);
    ByteWriter load;  // count, one entry
    load.write<std::uint64_t>(count);
    load.write<std::int32_t>(0);
    load.write<std::uint64_t>(3);
    EXPECT_THROW(decode_shard_load_reply(load.bytes()), InvalidArgument);
    ByteWriter mutate;  // count, one op
    mutate.write<std::uint64_t>(count);
    mutate.write<std::int64_t>(0);
    mutate.write<std::int64_t>(1);
    mutate.write<float>(1.0f);
    mutate.write<std::uint8_t>(1);
    EXPECT_THROW(decode_mutate_request(mutate.bytes()), InvalidArgument);
  }
  // A length of 2^64 - 4 read at offset 8 wraps `pos + n` to 4.
  ByteWriter text;
  text.write<std::uint64_t>(~std::uint64_t{0} - 3);
  text.write<std::uint32_t>(0);
  EXPECT_THROW(decode_text_reply(text.bytes()), InvalidArgument);

  SspprReply reply;
  reply.num_pushes = 42;
  reply.entries = {{3, 0.25}, {9, 0.5}};
  const std::vector<std::uint8_t> reply_bytes = encode_ssppr_reply(reply);
  ASSERT_EQ(decode_ssppr_reply(reply_bytes).entries, reply.entries);
  MutateRequest request;
  request.ops = {{1, 2, 1.0f, true}, {3, 4, 0.5f, false}};
  const std::vector<std::uint8_t> request_bytes =
      encode_mutate_request(request);
  ASSERT_EQ(decode_mutate_request(request_bytes).ops.size(), 2u);
  for (std::size_t len = 0; len < reply_bytes.size(); ++len) {
    EXPECT_THROW(decode_ssppr_reply(std::span(reply_bytes).first(len)),
                 EngineError)
        << len;
  }
  for (std::size_t len = 0; len < request_bytes.size(); ++len) {
    EXPECT_THROW(decode_mutate_request(std::span(request_bytes).first(len)),
                 EngineError)
        << len;
  }

  // Version announces: every count is bounded by the bytes left, and
  // every shard and row is range-checked (shard 0 has 2 core rows, shard
  // 1 has 3) before the announce reaches the tracker.
  const GlobalMapping mapping(PartitionAssignment{0, 1, 0, 1, 1}, 2);
  const auto announce = [](std::uint64_t shards, std::int32_t shard,
                           std::uint64_t rows, NodeId row) {
    ByteWriter w;
    w.write<std::uint64_t>(9);  // version
    w.write<std::uint64_t>(shards);
    w.write<std::int32_t>(shard);
    w.write<std::uint64_t>(rows);
    w.write<NodeId>(row);
    return std::move(w).take();
  };
  EXPECT_EQ(decode_version_announce(announce(1, 1, 1, 2), mapping)
                .shards.at(0)
                .rows,
            std::vector<NodeId>{2});
  for (const std::uint64_t count : {std::uint64_t{1} << 62,
                                    std::uint64_t{1} << 40,
                                    ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    EXPECT_THROW(decode_version_announce(announce(count, 1, 1, 2), mapping),
                 InvalidArgument);
    EXPECT_THROW(decode_version_announce(announce(1, 1, count, 2), mapping),
                 InvalidArgument);
  }
  for (const NodeId row : {3, -1}) {  // shard 1 has rows 0..2
    EXPECT_THROW(decode_version_announce(announce(1, 1, 1, row), mapping),
                 InvalidArgument)
        << "row " << row;
  }
  for (const std::int32_t shard : {2, -1}) {
    EXPECT_THROW(decode_version_announce(announce(1, shard, 1, 0), mapping),
                 InvalidArgument)
        << "shard " << shard;
  }
  VersionAnnounce ann;
  ann.version = 4;
  ann.shards = {{0, {0, 1}}, {1, {2}}};
  const std::vector<std::uint8_t> ann_bytes = encode_version_announce(ann);
  const VersionAnnounce back = decode_version_announce(ann_bytes, mapping);
  EXPECT_EQ(back.version, 4u);
  ASSERT_EQ(back.shards.size(), 2u);
  EXPECT_EQ(back.shards[0].rows, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(back.shards[1].shard, 1);
  for (std::size_t len = 0; len < ann_bytes.size(); ++len) {
    EXPECT_THROW(
        decode_version_announce(std::span(ann_bytes).first(len), mapping),
        EngineError)
        << len;
  }
}

// ---------------------------------------------------------------------------
// Handshake validation (pure)

HelloFrame good_hello() {
  HelloFrame h;
  h.node_id = 1;
  h.cluster_size = 3;
  h.shard_epoch = 1;
  h.shard_fingerprint = 42;
  return h;
}

HelloExpectation expectation() {
  HelloExpectation e;
  e.local_node = 0;
  e.cluster_size = 3;
  e.shard_epoch = 1;
  e.shard_fingerprint = 42;
  return e;
}

TEST(Handshake, WelcomesMatchingPeer) {
  const HelloVerdict v = validate_hello(good_hello(), expectation());
  EXPECT_TRUE(v.ok());
  EXPECT_TRUE(v.reason.empty());
}

// A v3 peer announces versions by shard only, so its peers could not
// gate their halo and adjacency cache per row; the v4 mesh must refuse
// it at the handshake, before any frame is exchanged.
TEST(Handshake, RejectsPreviousProtocolPeer) {
  ASSERT_EQ(kClusterProtocolVersion, 4);
  HelloFrame h = good_hello();
  h.version = kClusterProtocolVersion - 1;
  const HelloVerdict v = validate_hello(h, expectation());
  EXPECT_EQ(v.status, HelloStatus::kVersionMismatch);
  EXPECT_NE(v.reason.find("v3"), std::string::npos) << v.reason;
}

TEST(Handshake, RejectsEveryMismatchClass) {
  {
    HelloFrame h = good_hello();
    h.magic = 0xdeadbeef;
    EXPECT_EQ(validate_hello(h, expectation()).status,
              HelloStatus::kBadMagic);
  }
  {
    HelloFrame h = good_hello();
    h.version = kClusterProtocolVersion + 1;
    const HelloVerdict v = validate_hello(h, expectation());
    EXPECT_EQ(v.status, HelloStatus::kVersionMismatch);
    EXPECT_NE(v.reason.find("version"), std::string::npos);
  }
  {
    HelloFrame h = good_hello();
    h.cluster_size = 4;
    EXPECT_EQ(validate_hello(h, expectation()).status,
              HelloStatus::kClusterSizeMismatch);
  }
  {
    HelloFrame h = good_hello();
    h.node_id = 3;
    EXPECT_EQ(validate_hello(h, expectation()).status,
              HelloStatus::kNodeIdOutOfRange);
  }
  {
    HelloFrame h = good_hello();
    h.node_id = 0;  // the acceptor's own id
    EXPECT_EQ(validate_hello(h, expectation()).status,
              HelloStatus::kNodeIdCollision);
  }
  {
    HelloExpectation e = expectation();
    e.already_connected = true;  // two processes launched with --node=1
    EXPECT_EQ(validate_hello(good_hello(), e).status,
              HelloStatus::kNodeIdCollision);
  }
  {
    HelloFrame h = good_hello();
    h.shard_fingerprint = 43;
    const HelloVerdict v = validate_hello(h, expectation());
    EXPECT_EQ(v.status, HelloStatus::kShardMapMismatch);
    EXPECT_NE(v.reason.find("identical cluster configs"),
              std::string::npos);
  }
  {
    HelloFrame h = good_hello();
    h.shard_epoch = 9;
    EXPECT_EQ(validate_hello(h, expectation()).status,
              HelloStatus::kShardMapMismatch);
  }
}

// ---------------------------------------------------------------------------
// TcpTransport: in-process mesh over loopback ephemeral ports

struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> messages;

  void push(Message m) {
    const std::lock_guard<std::mutex> lock(mu);
    messages.push_back(std::move(m));
    cv.notify_all();
  }
  Message wait_for_one() {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [this] { return !messages.empty(); }));
    Message m = std::move(messages.front());
    messages.erase(messages.begin());
    return m;
  }
};

Message make_request(int src, int dst, std::uint64_t call_id) {
  Message m;
  m.call_id = call_id;
  m.kind = MessageKind::kRequest;
  m.src_machine = src;
  m.dst_machine = dst;
  m.service = "svc";
  m.method = "echo";
  m.payload = {1, 2, 3, 4, 5};
  return m;
}

TEST(TcpTransportMesh, ThreeNodeDeliveryAndDeparture) {
  auto ts = make_mesh(3);
  Inbox inbox[3];
  for (int i = 0; i < 3; ++i) {
    ts[static_cast<std::size_t>(i)]->start(
        i, [&inbox, i](Message m) { inbox[i].push(std::move(m)); });
  }

  // Readiness rendezvous: all three must reach the barrier concurrently;
  // none returns before the coordinator has seen every READY.
  {
    std::exception_ptr barrier_error;
    std::mutex err_mu;
    std::vector<std::thread> waiters;
    for (auto& t : ts) {
      waiters.emplace_back([&t, &barrier_error, &err_mu] {
        try {
          t->barrier();
        } catch (...) {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!barrier_error) barrier_error = std::current_exception();
        }
      });
    }
    for (auto& th : waiters) th.join();
    if (barrier_error) std::rethrow_exception(barrier_error);
  }

  // Cross-node, reverse direction, and the socketpair self loop.
  ts[0]->send(make_request(0, 2, 7));
  ts[2]->send(make_request(2, 0, 8));
  ts[1]->send(make_request(1, 1, 9));

  const Message at2 = inbox[2].wait_for_one();
  EXPECT_EQ(at2.call_id, 7u);
  EXPECT_EQ(at2.src_machine, 0);
  EXPECT_EQ(at2.service, "svc");
  EXPECT_EQ(at2.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(inbox[0].wait_for_one().call_id, 8u);
  EXPECT_EQ(inbox[1].wait_for_one().call_id, 9u);

  // Routing discipline: a transport only sends on behalf of its own node.
  EXPECT_THROW(ts[0]->send(make_request(1, 2, 10)), InvalidArgument);

  // Orderly departure: LEAVE propagates, later sends to the peer fail.
  ts[0]->announce_leave();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ts[1]->peer_departed(0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ts[1]->peer_departed(0));
  EXPECT_THROW(ts[1]->send(make_request(1, 0, 11)), RpcError);
  // Nodes 1 and 2 still talk to each other after 0 left.
  ts[1]->send(make_request(1, 2, 12));
  EXPECT_EQ(inbox[2].wait_for_one().call_id, 12u);

  for (auto& t : ts) t->stop();
}

TEST(TcpTransportMesh, MismatchedShardFingerprintRefusesToMesh) {
  const std::vector<TcpPeer> peers(2, TcpPeer{"127.0.0.1", 0});
  TcpTransportOptions a;
  a.shard_epoch = 1;
  a.shard_fingerprint = 100;
  // Short budget: both sides reject instantly, the timeout only bounds
  // how long each keeps re-knocking before giving up.
  a.connect_timeout_s = 2.0;
  TcpTransportOptions b = a;
  b.shard_fingerprint = 200;  // booted from a diverged config

  TcpTransport t0(0, peers, a);
  TcpTransport t1(1, peers, b);
  t0.set_peer_port(1, t1.listen_port());
  t1.set_peer_port(0, t0.listen_port());

  std::atomic<int> failures{0};
  auto run = [&failures](TcpTransport& t) {
    try {
      t.connect_mesh();
    } catch (const RpcError&) {
      failures.fetch_add(1);
    }
  };
  std::thread th0(run, std::ref(t0));
  std::thread th1(run, std::ref(t1));
  th0.join();
  th1.join();
  // Both outbound HELLOs are rejected (each side sees the other's foreign
  // fingerprint), so neither node ever reaches the barrier.
  EXPECT_EQ(failures.load(), 2);
}

TEST(TcpTransportMesh, ConnectTimesOutWhenPeerNeverAppears) {
  // Reserve a port nobody will listen on by binding + closing it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  std::vector<TcpPeer> peers = {TcpPeer{"127.0.0.1", 0},
                                TcpPeer{"127.0.0.1", dead_port}};
  TcpTransportOptions options;
  options.connect_timeout_s = 0.3;
  TcpTransport t0(0, peers, options);
  EXPECT_THROW(t0.connect_mesh(), RpcError);
}

// ---------------------------------------------------------------------------
// Wire-level handshake: forged HELLOs against a live bootstrap

void write_all_raw(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send: " << std::strerror(errno);
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void read_all_raw(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    ASSERT_GT(r, 0) << "read: " << std::strerror(errno);
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  return fd;
}

// Sends `hello` on a fresh connection to `port`, returns the reply status
// after reading (and discarding) any reason bytes.
HelloStatus probe_handshake(std::uint16_t port, const HelloFrame& hello,
                            std::string* reason_out = nullptr) {
  const int fd = connect_loopback(port);
  write_all_raw(fd, &hello, sizeof(hello));
  HelloReply reply{};
  read_all_raw(fd, &reply, sizeof(reply));
  EXPECT_EQ(reply.magic, kHelloMagic);
  std::string reason(reply.reason_len, '\0');
  if (reply.reason_len > 0) read_all_raw(fd, reason.data(), reason.size());
  if (reason_out != nullptr) *reason_out = reason;
  ::close(fd);
  return static_cast<HelloStatus>(reply.status);
}

/// A loopback listener standing in for a hand-rolled node 1; `port`
/// receives its ephemeral port.
int fake_node_listener(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  port = ntohs(addr.sin_port);
  return fd;
}

TEST(TcpTransportWire, RejectsForgedHellosAndRunsBarrier) {
  // Play node 1 by hand against a real node-0 bootstrap: a fake listener
  // accepts T0's outbound link, forged HELLOs probe T0's acceptor, and
  // the barrier control frames are exchanged manually.
  std::uint16_t fake_port = 0;
  const int fake_listener = fake_node_listener(fake_port);

  TcpTransportOptions options;
  options.shard_epoch = 1;
  options.shard_fingerprint = 77;
  options.connect_timeout_s = 20.0;
  std::vector<TcpPeer> peers = {TcpPeer{"127.0.0.1", 0},
                                TcpPeer{"127.0.0.1", fake_port}};
  TcpTransport t0(0, peers, options);

  std::exception_ptr mesh_error;
  std::thread mesh([&t0, &mesh_error] {
    try {
      t0.connect_mesh();
    } catch (...) {
      mesh_error = std::current_exception();
    }
  });

  // T0 dials our fake listener and introduces itself.
  const int from_t0 = ::accept(fake_listener, nullptr, nullptr);
  ASSERT_GE(from_t0, 0);
  HelloFrame t0_hello{};
  read_all_raw(from_t0, &t0_hello, sizeof(t0_hello));
  EXPECT_EQ(t0_hello.magic, kHelloMagic);
  EXPECT_EQ(t0_hello.version, kClusterProtocolVersion);
  EXPECT_EQ(t0_hello.node_id, 0);
  EXPECT_EQ(t0_hello.cluster_size, 2);
  EXPECT_EQ(t0_hello.shard_epoch, 1u);
  EXPECT_EQ(t0_hello.shard_fingerprint, 77u);
  const HelloReply welcome{};
  write_all_raw(from_t0, &welcome, sizeof(welcome));

  // Forged HELLOs, each refused with the right status while the acceptor
  // keeps waiting for a legitimate node 1.
  HelloFrame valid{};
  valid.node_id = 1;
  valid.cluster_size = 2;
  valid.shard_epoch = 1;
  valid.shard_fingerprint = 77;

  const std::uint16_t port = t0.listen_port();
  {
    HelloFrame h = valid;
    h.version = 99;
    std::string reason;
    EXPECT_EQ(probe_handshake(port, h, &reason),
              HelloStatus::kVersionMismatch);
    EXPECT_NE(reason.find("version mismatch"), std::string::npos);
  }
  {
    HelloFrame h = valid;
    h.magic = 0x12345678;
    EXPECT_EQ(probe_handshake(port, h), HelloStatus::kBadMagic);
  }
  {
    HelloFrame h = valid;
    h.cluster_size = 5;
    EXPECT_EQ(probe_handshake(port, h),
              HelloStatus::kClusterSizeMismatch);
  }
  {
    HelloFrame h = valid;
    h.node_id = 7;
    EXPECT_EQ(probe_handshake(port, h), HelloStatus::kNodeIdOutOfRange);
  }
  {
    HelloFrame h = valid;
    h.node_id = 0;  // claims T0's own slot
    std::string reason;
    EXPECT_EQ(probe_handshake(port, h, &reason),
              HelloStatus::kNodeIdCollision);
    EXPECT_NE(reason.find("collision"), std::string::npos);
  }
  {
    HelloFrame h = valid;
    h.shard_fingerprint = 78;
    EXPECT_EQ(probe_handshake(port, h), HelloStatus::kShardMapMismatch);
  }

  // The real node 1 link: welcomed, which completes the mesh.
  const int to_t0 = connect_loopback(port);
  write_all_raw(to_t0, &valid, sizeof(valid));
  HelloReply reply{};
  read_all_raw(to_t0, &reply, sizeof(reply));
  EXPECT_EQ(static_cast<HelloStatus>(reply.status), HelloStatus::kWelcome);
  mesh.join();
  EXPECT_FALSE(mesh_error) << "connect_mesh failed";

  // Barrier — a separate post-start() step: node 1 reports READY on its
  // outbound link; the coordinator answers GO on its own outbound link
  // once it has both started serving and collected every READY.
  t0.start(0, [](Message) {});
  std::exception_ptr barrier_error;
  std::thread barrier([&t0, &barrier_error] {
    try {
      t0.barrier();
    } catch (...) {
      barrier_error = std::current_exception();
    }
  });
  const std::uint64_t ready[2] = {
      frame_io::kControlTag,
      static_cast<std::uint64_t>(frame_io::ControlCode::kReady)};
  write_all_raw(to_t0, ready, sizeof(ready));
  std::uint64_t go[2] = {0, 0};
  read_all_raw(from_t0, go, sizeof(go));
  EXPECT_EQ(go[0], frame_io::kControlTag);
  EXPECT_EQ(go[1], static_cast<std::uint64_t>(frame_io::ControlCode::kGo));
  barrier.join();
  EXPECT_FALSE(barrier_error) << "barrier failed";

  t0.stop();
  ::close(to_t0);
  ::close(from_t0);
  ::close(fake_listener);
}

// A mesh member that sends a malformed frame after the barrier loses its
// link — the call pending on it fails instead of hanging, and later sends
// to it raise RpcError — while the node keeps serving.
TEST(TcpTransportWire, MalformedFrameClosesOnlyThatLink) {
  std::uint16_t fake_port = 0;
  const int fake_listener = fake_node_listener(fake_port);
  TcpTransportOptions options;
  options.connect_timeout_s = 20.0;
  std::vector<TcpPeer> peers = {TcpPeer{"127.0.0.1", 0},
                                TcpPeer{"127.0.0.1", fake_port}};
  auto t0 = std::make_shared<TcpTransport>(0, peers, options);

  std::exception_ptr mesh_error;
  std::thread mesh([&t0, &mesh_error] {
    try {
      t0->connect_mesh();
    } catch (...) {
      mesh_error = std::current_exception();
    }
  });
  const int from_t0 = ::accept(fake_listener, nullptr, nullptr);
  ASSERT_GE(from_t0, 0);
  HelloFrame t0_hello{};
  read_all_raw(from_t0, &t0_hello, sizeof(t0_hello));
  const HelloReply welcome{};
  write_all_raw(from_t0, &welcome, sizeof(welcome));
  HelloFrame hello{};
  hello.node_id = 1;
  hello.cluster_size = 2;
  const int to_t0 = connect_loopback(t0->listen_port());
  write_all_raw(to_t0, &hello, sizeof(hello));
  HelloReply reply{};
  read_all_raw(to_t0, &reply, sizeof(reply));
  ASSERT_EQ(static_cast<HelloStatus>(reply.status), HelloStatus::kWelcome);
  mesh.join();
  ASSERT_FALSE(mesh_error) << "connect_mesh failed";

  RpcEndpoint endpoint(t0, 0);
  endpoint.register_service(
      "echo", [](const std::string&, std::span<const std::uint8_t> p) {
        return std::vector<std::uint8_t>(p.begin(), p.end());
      });
  std::exception_ptr barrier_error;
  std::thread barrier([&t0, &barrier_error] {
    try {
      t0->barrier();
    } catch (...) {
      barrier_error = std::current_exception();
    }
  });
  const std::uint64_t ready[2] = {
      frame_io::kControlTag,
      static_cast<std::uint64_t>(frame_io::ControlCode::kReady)};
  write_all_raw(to_t0, ready, sizeof(ready));
  std::uint64_t go[2] = {0, 0};
  read_all_raw(from_t0, go, sizeof(go));
  barrier.join();
  ASSERT_FALSE(barrier_error) << "barrier failed";

  // Node 1 never answers this call; instead it sends a frame whose header
  // length no node could hold.
  RpcFuture pending = endpoint.async_call(1, "echo", "m", {1});
  const std::uint64_t garbage[2] = {std::uint64_t{1} << 40, 0};
  write_all_raw(to_t0, garbage, sizeof(garbage));
  ASSERT_TRUE(pending.wait_ready_for(std::chrono::seconds(20)));
  EXPECT_THROW(pending.wait(), RpcError);
  EXPECT_TRUE(t0->peer_departed(1));
  EXPECT_THROW((void)endpoint.async_call(1, "echo", "m", {2}), RpcError);
  // The node itself still serves.
  EXPECT_EQ(endpoint.sync_call(0, "echo", "m", {3}),
            (std::vector<std::uint8_t>{3}));

  t0->stop();
  ::close(to_t0);
  ::close(from_t0);
  ::close(fake_listener);
}

// ---------------------------------------------------------------------------
// 3-process end-to-end: real graph_engine_node processes vs the in-process
// simulated cluster, bit-identical answers.

#ifdef GE_NODE_BIN

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "cluster_test.XXXXXX")
            .string();
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// Base ports are drawn below Linux's default ephemeral range (32768 and
/// up), so an outbound connection cannot hold one; a boot attempt that
/// still loses its port gives up after the connect timeout and retries.
constexpr int kBootPortLow = 20000;
constexpr int kBootPortSpan = 12000;
constexpr double kBootConnectTimeoutS = 20.0;

pid_t spawn_node(const std::string& config_path, int node_id,
                 const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    const std::string config_arg = "--config=" + config_path;
    const std::string node_arg = "--node=" + std::to_string(node_id);
    ::execl(GE_NODE_BIN, "graph_engine_node", config_arg.c_str(),
            node_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

TEST(ClusterEndToEnd, ThreeProcessesMatchInProcessAnswers) {
  TempDir dir;
  const Graph g = generate_clustered(500, 3, 2500, 400, 1.6, 11);
  const std::string graph_path = dir.path + "/graph.pgrf";
  save_graph(g, graph_path);

  // Boot 3 node processes + the mesh-member client; a fixed port can be
  // stolen between selection and bind, so retry the whole bootstrap. The
  // nodes keep halo rows and an adjacency cache, so the mutated answers
  // below hold only if every peer learns which rows each batch changed.
  std::unique_ptr<cluster::ClusterClient> client;
  ClusterConfig config;
  std::vector<pid_t> pids;
  std::mt19937 rng(static_cast<unsigned>(::getpid()));
  for (int attempt = 0; attempt < 3 && client == nullptr; ++attempt) {
    const int base = kBootPortLow + static_cast<int>(rng() % kBootPortSpan);
    std::string text;
    text += "cluster_name = e2e\n";
    text += "graph = " + graph_path + "\n";
    text += "partition = hash\n";
    text += "server_threads = 2\nquery_threads = 2\nexecutors = 1\n";
    text += "cache_halo_adjacency = true\nadjacency_cache_rows = 64\n";
    for (int i = 0; i < 3; ++i) {
      text += "node " + std::to_string(i) + " 127.0.0.1 " +
              std::to_string(base + i) + " storage\n";
    }
    text += "node 3 127.0.0.1 " + std::to_string(base + 3) + " client\n";
    const std::string config_path = dir.path + "/cluster.conf";
    std::ofstream(config_path) << text;
    config = ClusterConfig::parse_string(text, config_path);

    for (int i = 0; i < 3; ++i) {
      pids.push_back(spawn_node(config_path, i,
                                dir.path + "/node-" + std::to_string(i) +
                                    ".log"));
    }
    try {
      TcpTransportOptions net;
      net.connect_timeout_s = kBootConnectTimeoutS;
      client = std::make_unique<cluster::ClusterClient>(config, 3, net);
    } catch (const EngineError& e) {
      GE_LOG(kWarn) << "cluster boot attempt " << attempt
                    << " failed: " << e.what();
      for (const pid_t pid : pids) ::kill(pid, SIGKILL);
      for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
      pids.clear();
    }
  }
  ASSERT_NE(client, nullptr) << "cluster never booted";

  // In-process reference: same graph, same deterministic partition, same
  // serving options, over the in-process transport.
  const PartitionAssignment assignment = load_cluster_partition(config, g);
  ClusterOptions ref_options;
  ref_options.num_machines = 3;
  ref_options.network = no_network_cost();
  ref_options.server_threads = 2;
  ref_options.cache_halo_adjacency = config.cache_halo_adjacency;
  ref_options.adjacency_cache_rows = config.adjacency_cache_rows;
  Cluster reference(g, assignment, ref_options);

  serve::ServeOptions serve_options;
  serve_options.ppr.alpha = config.ppr_alpha;
  serve_options.ppr.epsilon = config.ppr_epsilon;
  serve_options.executors_per_machine = config.executors;
  std::vector<std::unique_ptr<serve::ServiceStats>> stats;
  std::vector<std::unique_ptr<serve::MachineScheduler>> schedulers;
  for (int m = 0; m < 3; ++m) {
    stats.push_back(std::make_unique<serve::ServiceStats>());
    schedulers.push_back(std::make_unique<serve::MachineScheduler>(
        reference.storage(m), serve_options, *stats.back()));
  }

  const NodeId sources[] = {0, 1, 137, 499};
  for (const NodeId source : sources) {
    const NodeRef ref = reference.locate(source);
    const int owner = client->owner_of(source);
    ASSERT_EQ(owner, ref.shard);  // identity placement

    // SSPPR through the real processes vs the reference scheduler.
    const cluster::SspprReply tcp = client->ssppr(source);
    serve::PendingQuery q;
    q.source = ref;
    q.enqueue_time = std::chrono::steady_clock::now();
    q.deadline = std::chrono::steady_clock::time_point::max();
    serve::QueryFuture future = q.promise.get_future();
    ASSERT_TRUE(schedulers[static_cast<std::size_t>(owner)]->try_enqueue(
        std::move(q)));
    const serve::QueryResult expected = future.wait();

    ASSERT_EQ(tcp.status, static_cast<std::uint8_t>(expected.status));
    ASSERT_EQ(expected.status, serve::QueryStatus::kOk);
    EXPECT_EQ(tcp.num_pushes, expected.num_pushes);
    std::vector<std::pair<NodeId, double>> want;
    want.reserve(expected.ppr.size());
    for (const auto& [node_ref, value] : expected.ppr) {
      want.emplace_back(reference.mapping().to_global(node_ref), value);
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(tcp.entries.size(), want.size()) << "source " << source;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(tcp.entries[i].first, want[i].first);
      // Bit-identical: same partition, same shard-local execution order,
      // same IEEE operations — not approximately equal, equal.
      EXPECT_EQ(tcp.entries[i].second, want[i].second)
          << "source " << source << " entry " << i;
    }

    // BFS.
    const cluster::BfsReply bfs_tcp = client->bfs(source);
    const NodeId bfs_sources[1] = {ref.local};
    const BfsResult bfs_ref =
        distributed_bfs(reference.storage(owner), bfs_sources, {});
    EXPECT_EQ(bfs_tcp.num_levels, bfs_ref.num_levels);
    std::vector<std::pair<NodeId, std::int32_t>> bfs_want;
    bfs_want.reserve(bfs_ref.distances.size());
    for (const auto& [node_ref, dist] : bfs_ref.distances) {
      bfs_want.emplace_back(reference.mapping().to_global(node_ref),
                            dist);
    }
    std::sort(bfs_want.begin(), bfs_want.end());
    EXPECT_EQ(bfs_tcp.distances, bfs_want) << "source " << source;

    // Random walk (fixed seed).
    const cluster::WalkReply walk_tcp = client->walk(source, 12, 99);
    RandomWalkOptions walk_options;
    walk_options.walk_length = 12;
    walk_options.seed = 99;
    const NodeId roots[1] = {ref.local};
    const RandomWalkResult walk_ref = distributed_random_walk(
        reference.storage(owner), roots, walk_options);
    EXPECT_EQ(walk_tcp.steps, walk_ref.walks) << "source " << source;
  }

  // Liveness + obs plane over the wire.
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(client->ping(node), node);
  }
  const std::string metrics = client->metrics_json(0);
  EXPECT_NE(metrics.find("rpc.tcp.frames_sent"), std::string::npos);
  EXPECT_NE(metrics.find("rpc.tcp.bytes_received"), std::string::npos);

  // Streaming mutations over the real wire (DESIGN.md §15): every batch
  // lands through the coordinator and is mirrored onto the in-process
  // reference; all answers must stay bit-identical afterwards, before
  // AND after folding the deltas with a wire-driven compaction.
  EXPECT_EQ(client->graph_version(0), 0u);
  const auto stream = mutation_stream(g, 2, 25, 0.7, 31);
  for (const auto& batch : stream) {
    const std::uint64_t v = client->mutate_edges(batch);
    reference.apply_edge_mutations(batch);
    EXPECT_EQ(v, reference.graph_version());
  }
  // The mutate reply only returns after the version announcement reached
  // every peer, so all three nodes already publish the new version.
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(client->graph_version(node), stream.size());
  }

  const auto check_mutated_answers = [&](const char* stage) {
    for (const NodeId source : sources) {
      SCOPED_TRACE(::testing::Message() << stage << " source " << source);
      const NodeRef ref = reference.locate(source);
      const int owner = client->owner_of(source);

      const cluster::SspprReply tcp = client->ssppr(source);
      serve::PendingQuery q;
      q.source = ref;
      q.enqueue_time = std::chrono::steady_clock::now();
      q.deadline = std::chrono::steady_clock::time_point::max();
      serve::QueryFuture future = q.promise.get_future();
      ASSERT_TRUE(schedulers[static_cast<std::size_t>(owner)]->try_enqueue(
          std::move(q)));
      const serve::QueryResult expected = future.wait();
      ASSERT_EQ(expected.status, serve::QueryStatus::kOk);
      ASSERT_EQ(tcp.status, static_cast<std::uint8_t>(expected.status));
      EXPECT_EQ(tcp.num_pushes, expected.num_pushes);
      std::vector<std::pair<NodeId, double>> want;
      want.reserve(expected.ppr.size());
      for (const auto& [node_ref, value] : expected.ppr) {
        want.emplace_back(reference.mapping().to_global(node_ref), value);
      }
      std::sort(want.begin(), want.end());
      ASSERT_EQ(tcp.entries.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(tcp.entries[i].first, want[i].first);
        EXPECT_EQ(tcp.entries[i].second, want[i].second) << "entry " << i;
      }

      const cluster::BfsReply bfs_tcp = client->bfs(source);
      const NodeId bfs_sources[1] = {ref.local};
      const BfsResult bfs_ref =
          distributed_bfs(reference.storage(owner), bfs_sources, {});
      EXPECT_EQ(bfs_tcp.num_levels, bfs_ref.num_levels);
      std::vector<std::pair<NodeId, std::int32_t>> bfs_want;
      bfs_want.reserve(bfs_ref.distances.size());
      for (const auto& [node_ref, dist] : bfs_ref.distances) {
        bfs_want.emplace_back(reference.mapping().to_global(node_ref),
                              dist);
      }
      std::sort(bfs_want.begin(), bfs_want.end());
      EXPECT_EQ(bfs_tcp.distances, bfs_want);

      const cluster::WalkReply walk_tcp = client->walk(source, 12, 99);
      RandomWalkOptions walk_options;
      walk_options.walk_length = 12;
      walk_options.seed = 99;
      const NodeId roots[1] = {ref.local};
      const RandomWalkResult walk_ref = distributed_random_walk(
          reference.storage(owner), roots, walk_options);
      EXPECT_EQ(walk_tcp.steps, walk_ref.walks);
    }
  };
  check_mutated_answers("post-mutation");

  for (ShardId s = 0; s < 3; ++s) client->compact_shard(s);
  reference.compact_all();
  check_mutated_answers("post-compaction");
  const std::string mutated_metrics = client->metrics_json(0);
  EXPECT_NE(mutated_metrics.find("storage.delta_edges"), std::string::npos);
  EXPECT_NE(mutated_metrics.find("storage.compactions"), std::string::npos);

  // Graceful teardown: every node process must drain and exit 0.
  client->shutdown_cluster();
  client->leave();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[i], &status, 0), pids[i]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "node " << i << " exited abnormally (status " << status << ")";
  }
}

#endif  // GE_NODE_BIN

}  // namespace
}  // namespace ppr
