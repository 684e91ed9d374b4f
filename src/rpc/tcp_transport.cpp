#include "rpc/tcp_transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "rpc/frame_io.hpp"
#include "rpc/wire_protocol.hpp"

namespace ppr {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw RpcError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  // Best effort: the mesh still works with Nagle on, just slower for the
  // small control/header writes.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_recv_timeout(int fd, double seconds) {
  struct timeval tv {};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void clear_recv_timeout(int fd) {
  struct timeval tv {};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

struct AddrInfo {
  struct addrinfo* res = nullptr;
  ~AddrInfo() {
    if (res != nullptr) ::freeaddrinfo(res);
  }
};

double remaining_s(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

}  // namespace

TcpTransport::TcpTransport(int local_node, std::vector<TcpPeer> peers,
                           TcpTransportOptions options)
    : local_node_(local_node),
      peers_(std::move(peers)),
      options_(options),
      departed_(peers_.size()) {
  GE_REQUIRE(!peers_.empty(), "cluster needs at least one node");
  GE_REQUIRE(local_node_ >= 0 &&
                 local_node_ < static_cast<int>(peers_.size()),
             "local node id out of range");

  // Bind + listen immediately so peers that boot earlier can start
  // knocking; connections queue in the backlog until connect_mesh().
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("tcp listener socket failed");
  int one = 1;
  // SO_REUSEADDR: restarted nodes must rebind their port without waiting
  // out TIME_WAIT from the previous incarnation.
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port =
      htons(peers_[static_cast<std::size_t>(local_node_)].port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string what =
        "tcp bind failed on port " +
        std::to_string(peers_[static_cast<std::size_t>(local_node_)].port);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw RpcError(what + ": " + std::strerror(errno));
  }
  const int backlog =
      std::max(16, static_cast<int>(peers_.size()) * 2);
  if (::listen(listen_fd_, backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("tcp listen failed");
  }
  struct sockaddr_in bound {};
  socklen_t blen = sizeof(bound);
  GE_CHECK(::getsockname(listen_fd_,
                         reinterpret_cast<struct sockaddr*>(&bound),
                         &blen) == 0,
           "getsockname failed");
  listen_port_ = ntohs(bound.sin_port);

  const obs::Labels labels{{"node", std::to_string(local_node_)}};
  auto& reg = obs::MetricRegistry::global();
  metric_regs_.push_back(
      reg.attach("rpc.tcp.frames_sent", labels, frames_sent_));
  metric_regs_.push_back(
      reg.attach("rpc.tcp.frames_received", labels, frames_received_));
  metric_regs_.push_back(
      reg.attach("rpc.tcp.bytes_sent", labels, bytes_sent_));
  metric_regs_.push_back(
      reg.attach("rpc.tcp.bytes_received", labels, bytes_received_));
  metric_regs_.push_back(
      reg.attach("rpc.tcp.peers_departed", labels, peers_departed_));
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::set_peer_port(int node, std::uint16_t port) {
  GE_REQUIRE(!meshed_, "peer ports are frozen once the mesh is up");
  GE_REQUIRE(node >= 0 && node < static_cast<int>(peers_.size()),
             "peer id out of range");
  peers_[static_cast<std::size_t>(node)].port = port;
}

int TcpTransport::connect_to_peer(int peer) const {
  const TcpPeer& spec = peers_[static_cast<std::size_t>(peer)];
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.connect_timeout_s));

  AddrInfo ai;
  struct addrinfo hints {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  const int gai = ::getaddrinfo(spec.host.c_str(),
                                std::to_string(spec.port).c_str(), &hints,
                                &ai.res);
  if (gai != 0) {
    throw RpcError("cannot resolve peer " + std::to_string(peer) + " (" +
                   spec.host + "): " + ::gai_strerror(gai));
  }

  for (;;) {
    const int fd = ::socket(ai.res->ai_family, SOCK_STREAM | SOCK_NONBLOCK,
                            0);
    if (fd < 0) throw_errno("tcp socket failed");
    int rc = ::connect(fd, ai.res->ai_addr, ai.res->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      struct pollfd pfd {};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      const double left = remaining_s(deadline);
      const int pr =
          ::poll(&pfd, 1, std::max(1, static_cast<int>(left * 1e3)));
      if (pr > 0) {
        int err = 0;
        socklen_t elen = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
        if (err == 0) {
          rc = 0;
        } else {
          errno = err;
          rc = -1;
        }
      } else {
        errno = ETIMEDOUT;
        rc = -1;
      }
    }
    if (rc == 0) {
      // Back to blocking mode: reader threads and the handshake use
      // plain blocking reads with SO_RCVTIMEO where needed.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      set_nodelay(fd);
      return fd;
    }
    const int saved = errno;
    ::close(fd);
    // The peer's listener may simply not be up yet — start order is free.
    const bool retryable = saved == ECONNREFUSED || saved == ETIMEDOUT ||
                           saved == EHOSTUNREACH || saved == ENETUNREACH ||
                           saved == ECONNRESET || saved == EAGAIN;
    if (!retryable || remaining_s(deadline) <= 0) {
      errno = saved;
      throw_errno("cannot connect to peer " + std::to_string(peer) + " (" +
                  spec.host + ":" + std::to_string(spec.port) + ")");
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.connect_retry_ms));
  }
}

void TcpTransport::accept_inbound() {
  const int n = static_cast<int>(peers_.size());
  int pending = n - 1;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.connect_timeout_s));
  while (pending > 0) {
    struct pollfd pfd {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const double left = remaining_s(deadline);
    if (left <= 0) {
      throw RpcError("bootstrap timed out: " + std::to_string(pending) +
                     " peer(s) never connected to node " +
                     std::to_string(local_node_));
    }
    const int pr =
        ::poll(&pfd, 1, std::max(1, static_cast<int>(left * 1e3)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll on tcp listener failed");
    }
    if (pr == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw_errno("tcp accept failed");
    }
    set_nodelay(fd);
    // A connection that stalls mid-handshake (port scanner, wedged peer)
    // must not block bootstrap forever.
    set_recv_timeout(fd, std::max(1.0, remaining_s(deadline)));

    HelloFrame hello;
    if (!frame_io::read_exact(fd, &hello, sizeof(hello))) {
      ::close(fd);
      continue;  // closed before completing a HELLO — ignore
    }
    HelloExpectation expect;
    expect.local_node = local_node_;
    expect.cluster_size = n;
    expect.shard_epoch = options_.shard_epoch;
    expect.shard_fingerprint = options_.shard_fingerprint;
    expect.already_connected =
        hello.node_id >= 0 && hello.node_id < n &&
        in_fds_[static_cast<std::size_t>(hello.node_id)] >= 0;
    const HelloVerdict verdict = validate_hello(hello, expect);

    HelloReply reply;
    reply.status = static_cast<std::uint16_t>(verdict.status);
    reply.reason_len = static_cast<std::uint32_t>(verdict.reason.size());
    struct iovec iov[2];
    iov[0] = {&reply, sizeof(reply)};
    iov[1] = {const_cast<char*>(verdict.reason.data()),
              verdict.reason.size()};
    try {
      frame_io::writev_all(fd, iov, verdict.reason.empty() ? 1 : 2);
    } catch (const RpcError&) {
      ::close(fd);
      continue;  // peer vanished mid-handshake
    }
    if (!verdict.ok()) {
      GE_LOG(kWarn) << "node " << local_node_
                    << " rejected a peer HELLO: " << verdict.reason;
      ::close(fd);
      continue;
    }
    clear_recv_timeout(fd);
    in_fds_[static_cast<std::size_t>(hello.node_id)] = fd;
    --pending;
  }
}

void TcpTransport::barrier() {
  // The barrier deliberately runs AFTER start(): "sockets connected" is
  // not "ready to serve", and the window between the two is exactly where
  // a too-eager peer races requests into an unregistered service. READY
  // and GO frames are therefore observed by the reader threads, which
  // feed the rendezvous state below.
  GE_REQUIRE(started_, "call start() before barrier()");
  const int n = static_cast<int>(peers_.size());
  if (n == 1) return;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.connect_timeout_s));
  if (local_node_ == 0) {
    // Collect one kReady per peer (their outbound link to us), then
    // release everyone.
    {
      std::unique_lock<std::mutex> lock(barrier_mutex_);
      if (!barrier_cv_.wait_until(lock, deadline, [this, n] {
            return readies_seen_ >= n - 1;
          })) {
        throw RpcError("bootstrap barrier: only " +
                       std::to_string(readies_seen_) + "/" +
                       std::to_string(n - 1) +
                       " peer(s) reported READY in time");
      }
    }
    for (int dst = 1; dst < n; ++dst) {
      Link& link = *out_links_[static_cast<std::size_t>(dst)];
      frame_io::write_control(link.fd, link.write_mutex,
                              frame_io::ControlCode::kGo);
    }
  } else {
    Link& link = *out_links_[0];
    frame_io::write_control(link.fd, link.write_mutex,
                            frame_io::ControlCode::kReady);
    std::unique_lock<std::mutex> lock(barrier_mutex_);
    if (!barrier_cv_.wait_until(lock, deadline,
                                [this] { return go_seen_; })) {
      throw RpcError("bootstrap barrier: coordinator never sent GO");
    }
  }
}

void TcpTransport::connect_mesh() {
  GE_REQUIRE(!meshed_, "connect_mesh() already ran");
  const int n = static_cast<int>(peers_.size());
  out_links_.resize(static_cast<std::size_t>(n));
  for (auto& l : out_links_) l = std::make_unique<Link>();
  in_fds_.assign(static_cast<std::size_t>(n), -1);

  // Self loop: a local socketpair speaking the same framing.
  {
    int fds[2];
    GE_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
             "socketpair failed");
    out_links_[static_cast<std::size_t>(local_node_)]->fd = fds[0];
    in_fds_[static_cast<std::size_t>(local_node_)] = fds[1];
  }

  // Inbound accepts must run concurrently with our outbound connects:
  // every node is doing both at once, and an outbound HELLO only
  // completes when the peer's acceptor answers it.
  std::exception_ptr accept_error;
  std::thread acceptor([&] {
    try {
      accept_inbound();
    } catch (...) {
      accept_error = std::current_exception();
    }
  });

  std::exception_ptr connect_error;
  try {
    for (int dst = 0; dst < n; ++dst) {
      if (dst == local_node_) continue;
      const int fd = connect_to_peer(dst);
      HelloFrame hello;
      hello.node_id = local_node_;
      hello.cluster_size = n;
      hello.shard_epoch = options_.shard_epoch;
      hello.shard_fingerprint = options_.shard_fingerprint;
      struct iovec iov[1];
      iov[0] = {&hello, sizeof(hello)};
      frame_io::writev_all(fd, iov, 1);

      set_recv_timeout(fd, options_.connect_timeout_s);
      HelloReply reply;
      if (!frame_io::read_exact(fd, &reply, sizeof(reply))) {
        ::close(fd);
        throw RpcError("peer " + std::to_string(dst) +
                       " closed the link during the handshake");
      }
      if (reply.magic != kHelloMagic) {
        ::close(fd);
        throw RpcError("peer " + std::to_string(dst) +
                       " sent a malformed handshake reply");
      }
      if (reply.status != 0) {
        std::string reason(reply.reason_len, '\0');
        if (reply.reason_len != 0 &&
            !frame_io::read_exact(fd, reason.data(), reason.size())) {
          reason = "(reason truncated)";
        }
        ::close(fd);
        throw RpcError("peer " + std::to_string(dst) +
                       " rejected the handshake: " + reason);
      }
      clear_recv_timeout(fd);
      out_links_[static_cast<std::size_t>(dst)]->fd = fd;
    }
  } catch (...) {
    connect_error = std::current_exception();
  }
  acceptor.join();

  auto fail = [&](std::exception_ptr err) {
    // Tear down whatever half-mesh exists so the process can exit (or
    // retry with a fresh transport) cleanly.
    for (auto& l : out_links_) {
      if (l && l->fd >= 0) {
        ::close(l->fd);
        l->fd = -1;
      }
    }
    for (int& fd : in_fds_) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
    std::rethrow_exception(err);
  };
  if (connect_error) fail(connect_error);
  if (accept_error) fail(accept_error);
  meshed_ = true;
}

void TcpTransport::start(int machine_id, MessageHandler handler) {
  GE_REQUIRE(machine_id == local_node_,
             "a TcpTransport hosts exactly its own node");
  GE_REQUIRE(meshed_, "call connect_mesh() before start()");
  GE_REQUIRE(!started_, "node already started");
  handler_ = std::move(handler);
  started_ = true;
  for (int src = 0; src < static_cast<int>(peers_.size()); ++src) {
    const int fd = in_fds_[static_cast<std::size_t>(src)];
    readers_.emplace_back([this, src, fd] { reader_loop(src, fd); });
  }
}

void TcpTransport::send(Message msg) {
  const int n = static_cast<int>(peers_.size());
  GE_REQUIRE(msg.src_machine == local_node_,
             "send() from a foreign node id");
  GE_REQUIRE(msg.dst_machine >= 0 && msg.dst_machine < n,
             "dst_machine out of range");
  if (departed_[static_cast<std::size_t>(msg.dst_machine)].load(
          std::memory_order_acquire)) {
    throw RpcError("peer " + std::to_string(msg.dst_machine) +
                   " has left the cluster");
  }
  Link& link = *out_links_[static_cast<std::size_t>(msg.dst_machine)];
  const std::size_t wire = msg.wire_size();
  frame_io::write_message(link.fd, link.write_mutex, std::move(msg));
  frames_sent_.add(1);
  bytes_sent_.add(wire);
}

void TcpTransport::reader_loop(int peer, int fd) {
  std::vector<std::uint8_t> header;
  for (;;) {
    Message msg;
    frame_io::ControlCode control{};
    frame_io::ReadStatus status{};
    try {
      status = frame_io::read_frame(fd, header, msg, control);
    } catch (const InvalidArgument& e) {
      // The stream is out of sync past a malformed frame: close the link
      // as if the peer had died, so its pending calls fail instead of
      // hanging and this node keeps serving everyone else.
      GE_LOG(kWarn) << "node " << local_node_ << ": closing the link from "
                    << "peer " << peer << " after a malformed frame: "
                    << e.what();
      ::shutdown(fd, SHUT_RDWR);
      if (peer != local_node_) {
        if (!departed_[static_cast<std::size_t>(peer)].exchange(
                true, std::memory_order_acq_rel)) {
          peers_departed_.add(1);
        }
        if (peer_down_) peer_down_(peer);
      }
      return;
    }
    switch (status) {
      case frame_io::ReadStatus::kClosed:
        // EOF without a LEAVE is only suspicious while WE are still a
        // mesh member — our own leave/detach/stop shuts these fds too.
        if (!departed_[static_cast<std::size_t>(peer)].load(
                std::memory_order_acquire) &&
            !stopped_.load(std::memory_order_acquire) &&
            !left_.load(std::memory_order_acquire) &&
            !detached_.load(std::memory_order_acquire) &&
            peer != local_node_) {
          GE_LOG(kWarn) << "node " << local_node_ << ": peer " << peer
                        << " disconnected without LEAVE";
          departed_[static_cast<std::size_t>(peer)].store(
              true, std::memory_order_release);
          peers_departed_.add(1);
        }
        // Only EOF proves no response can ever arrive from this peer;
        // fail whatever is still waiting on one.
        if (peer != local_node_ && peer_down_) peer_down_(peer);
        return;
      case frame_io::ReadStatus::kControl:
        if (control == frame_io::ControlCode::kLeave) {
          // The peer will send nothing NEW, but replies it wrote
          // concurrently with the LEAVE may still be in the pipe — keep
          // draining until EOF so no in-flight response is stranded
          // (losing one would hang its future forever).
          departed_[static_cast<std::size_t>(peer)].store(
              true, std::memory_order_release);
          peers_departed_.add(1);
        } else if (control == frame_io::ControlCode::kReady) {
          const std::lock_guard<std::mutex> lock(barrier_mutex_);
          ++readies_seen_;
          barrier_cv_.notify_all();
        } else if (control == frame_io::ControlCode::kGo) {
          const std::lock_guard<std::mutex> lock(barrier_mutex_);
          go_seen_ = true;
          barrier_cv_.notify_all();
        }
        break;
      case frame_io::ReadStatus::kMessage:
        frames_received_.add(1);
        bytes_received_.add(msg.wire_size());
        handler_(std::move(msg));
        break;
    }
  }
}

void TcpTransport::announce_leave() {
  if (left_.exchange(true)) return;
  if (!meshed_) return;
  for (int dst = 0; dst < static_cast<int>(peers_.size()); ++dst) {
    if (dst == local_node_) continue;
    Link& link = *out_links_[static_cast<std::size_t>(dst)];
    if (link.fd < 0) continue;
    if (departed_[static_cast<std::size_t>(dst)].load(
            std::memory_order_acquire)) {
      continue;  // they left first; nobody is reading that link
    }
    try {
      frame_io::write_control(link.fd, link.write_mutex,
                              frame_io::ControlCode::kLeave);
    } catch (const RpcError&) {
      // Peer already gone — leaving is best-effort by construction.
    }
  }
}

void TcpTransport::set_peer_down_handler(int machine_id,
                                         std::function<void(int)> on_down) {
  GE_REQUIRE(machine_id == local_node_,
             "a TcpTransport hosts exactly its own node");
  GE_REQUIRE(!started_, "peer-down handler must be set before start()");
  peer_down_ = std::move(on_down);
}

void TcpTransport::detach(int machine_id) {
  GE_REQUIRE(machine_id == local_node_,
             "a TcpTransport hosts exactly its own node");
  if (!started_) return;
  detached_.store(true, std::memory_order_release);
  for (const int fd : in_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
}

void TcpTransport::stop() {
  if (stopped_.exchange(true)) return;
  announce_leave();
  for (auto& l : out_links_) {
    if (l && l->fd >= 0) ::shutdown(l->fd, SHUT_RDWR);
  }
  for (const int fd : in_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : readers_) {
    if (t.joinable()) t.join();
  }
  for (auto& l : out_links_) {
    if (l && l->fd >= 0) {
      ::close(l->fd);
      l->fd = -1;
    }
  }
  for (int& fd : in_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace ppr
