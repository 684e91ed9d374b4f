#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"
#include "rpc/endpoint.hpp"
#include "rpc/frame_io.hpp"
#include "rpc/inproc_transport.hpp"
#include "tcp_mesh.hpp"

namespace ppr {
namespace {

TEST(Message, EncodeDecodeRoundTrip) {
  Message m;
  m.call_id = 77;
  m.kind = MessageKind::kResponse;
  m.src_machine = 2;
  m.dst_machine = 3;
  m.service = "storage";
  m.method = "get_neighbor_infos";
  m.error = "oops";
  m.payload = {1, 2, 3, 4, 5};
  const Message d = Message::decode(m.encode());
  EXPECT_EQ(d.call_id, 77u);
  EXPECT_EQ(d.kind, MessageKind::kResponse);
  EXPECT_EQ(d.src_machine, 2);
  EXPECT_EQ(d.dst_machine, 3);
  EXPECT_EQ(d.service, "storage");
  EXPECT_EQ(d.method, "get_neighbor_infos");
  EXPECT_EQ(d.error, "oops");
  EXPECT_EQ(d.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Message, TraceContextRoundTrips) {
  Message m;
  m.service = "s";
  m.trace_id = 0xdeadbeefcafe1234ULL;
  m.parent_span = 42;
  const Message d = Message::decode(m.encode());
  EXPECT_EQ(d.trace_id, 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(d.parent_span, 42u);
}

TEST(Message, UntracedFramesDecodeWithZeroIds) {
  // A frame from an untraced caller carries zeroed trace fields; decoding
  // must yield the "no trace" context, not garbage.
  Message m;
  m.service = "s";
  m.payload = {9};
  const Message d = Message::decode(m.encode());
  EXPECT_EQ(d.trace_id, 0u);
  EXPECT_EQ(d.parent_span, 0u);
}

TEST(Message, WireSizeTracksPayload) {
  Message m;
  m.service = "s";
  const std::size_t base = m.wire_size();
  m.payload.assign(1000, 0);
  EXPECT_EQ(m.wire_size(), base + 1000);
}

TEST(Future, SetValueThenWait) {
  RpcPromise p;
  RpcFuture f = p.get_future();
  EXPECT_FALSE(f.ready());
  p.set_value({9, 8, 7});
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.wait(), (std::vector<std::uint8_t>{9, 8, 7}));
}

TEST(Future, WaitBlocksUntilValue) {
  RpcPromise p;
  RpcFuture f = p.get_future();
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    p.set_value({1});
  });
  EXPECT_EQ(f.wait().size(), 1u);
  setter.join();
}

TEST(Future, ErrorPropagates) {
  RpcPromise p;
  RpcFuture f = p.get_future();
  p.set_error("remote handler failed");
  EXPECT_THROW(f.wait(), RpcError);
}

TEST(Future, InvalidFutureThrows) {
  RpcFuture f;
  EXPECT_FALSE(f.valid());
  EXPECT_THROW(f.wait(), InvalidArgument);
}

TEST(Future, WaitConsumesTheHandle) {
  RpcPromise p;
  RpcFuture f = p.get_future();
  p.set_value({4, 2});
  EXPECT_EQ(f.wait(), (std::vector<std::uint8_t>{4, 2}));
  // wait() moved the payload out and invalidated this handle; a second
  // wait() must fail loudly instead of returning a moved-out vector.
  EXPECT_FALSE(f.valid());
  EXPECT_THROW(f.wait(), InvalidArgument);
}

TEST(Future, CopySharingConsumedStateCannotWaitAgain) {
  RpcPromise p;
  RpcFuture f = p.get_future();
  RpcFuture copy = f;
  p.set_value({1, 2, 3});
  EXPECT_EQ(f.wait(), (std::vector<std::uint8_t>{1, 2, 3}));
  // The copy still reads as valid (it holds the shared state), but the
  // value was consumed through the other handle.
  EXPECT_TRUE(copy.valid());
  EXPECT_THROW(copy.wait(), InvalidArgument);
}

TEST(Future, ErrorObservableThroughEveryCopy) {
  RpcPromise p;
  RpcFuture f = p.get_future();
  RpcFuture copy = f;
  p.set_error("remote handler failed");
  EXPECT_THROW(f.wait(), RpcError);
  // Errors are not consumed: every copy sees the same failure.
  EXPECT_THROW(copy.wait(), RpcError);
}

TEST(NetworkModel, DelayScalesWithSize) {
  NetworkModel model{10.0, 1.0};  // 10µs + 1 Gbps
  EXPECT_NEAR(model.delay_us(0), 10.0, 1e-9);
  // 1 Gbps = 125 bytes/µs.
  EXPECT_NEAR(model.delay_us(125000), 10.0 + 1000.0, 1e-6);
  NetworkModel off{0.0, 0.0};
  EXPECT_FALSE(off.enabled());
}

/// One transport per machine: `n` handles on one InProcTransport, or the
/// `n` members of a loopback TCP mesh (one TcpTransport per node).
using Transports = std::vector<std::shared_ptr<Transport>>;

Transports inproc(int n, NetworkModel model = NetworkModel{0, 0}) {
  return Transports(static_cast<std::size_t>(n),
                    std::make_shared<InProcTransport>(n, model));
}

Transports tcp(int n) {
  const auto mesh = make_mesh(n);
  return Transports(mesh.begin(), mesh.end());
}

class EchoFixture {
 public:
  explicit EchoFixture(Transports transports)
      : transports_(std::move(transports)) {
    for (int m = 0; m < static_cast<int>(transports_.size()); ++m) {
      endpoints_.push_back(std::make_unique<RpcEndpoint>(
          transports_[static_cast<std::size_t>(m)], m, 2));
      endpoints_.back()->register_service(
          "echo", [m](const std::string& method,
                      std::span<const std::uint8_t> payload) {
            if (method == "fail") throw std::runtime_error("echo failure");
            std::vector<std::uint8_t> out(payload.begin(), payload.end());
            out.push_back(static_cast<std::uint8_t>(m));  // tag responder
            return out;
          });
    }
  }
  RpcEndpoint& endpoint(int m) { return *endpoints_[static_cast<std::size_t>(m)]; }

 private:
  Transports transports_;
  std::vector<std::unique_ptr<RpcEndpoint>> endpoints_;
};

void run_echo_suite(EchoFixture& fx) {
  // Basic request/response.
  auto reply = fx.endpoint(0).sync_call(1, "echo", "m", {10, 20});
  EXPECT_EQ(reply, (std::vector<std::uint8_t>{10, 20, 1}));

  // Self-call through the transport.
  reply = fx.endpoint(0).sync_call(0, "echo", "m", {5});
  EXPECT_EQ(reply, (std::vector<std::uint8_t>{5, 0}));

  // Many in-flight async calls complete with the right payloads.
  std::vector<RpcFuture> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(fx.endpoint(0).async_call(
        1, "echo", "m", {static_cast<std::uint8_t>(i)}));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].wait(),
              (std::vector<std::uint8_t>{static_cast<std::uint8_t>(i), 1}));
  }

  // Handler exceptions surface as RpcError at the caller.
  EXPECT_THROW(fx.endpoint(0).sync_call(1, "echo", "fail", {}), RpcError);
  // Unknown service also surfaces as an error.
  EXPECT_THROW(fx.endpoint(0).sync_call(1, "nosuch", "m", {}), RpcError);

  // Concurrent callers from several threads.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fx, t, &failures] {
      for (int i = 0; i < 50; ++i) {
        const auto r = fx.endpoint(0).sync_call(
            1, "echo", "m", {static_cast<std::uint8_t>(t)});
        if (r != std::vector<std::uint8_t>{static_cast<std::uint8_t>(t), 1}) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(InProcTransport, EchoSuite) {
  EchoFixture fx(inproc(2));
  run_echo_suite(fx);
}

TEST(InProcTransport, EchoSuiteWithNetworkModel) {
  EchoFixture fx(inproc(2, NetworkModel{5.0, 8.0}));
  run_echo_suite(fx);
}

// Closing a machine delivers what is already queued for it, even before
// its due time, and drops every later send instead of failing it.
TEST(InProcTransport, DetachDrainsQueuedThenDropsLateSends) {
  InProcTransport transport(2, NetworkModel{5000.0, 0.0});
  std::atomic<int> delivered{0};
  transport.start(0, [](Message) {});
  transport.start(1, [&delivered](Message) { delivered.fetch_add(1); });
  const auto send = [&transport] {
    Message msg;
    msg.src_machine = 0;
    msg.dst_machine = 1;
    transport.send(std::move(msg));
  };
  for (int i = 0; i < 5; ++i) send();
  transport.detach(1);
  EXPECT_EQ(delivered.load(), 5);
  EXPECT_NO_THROW(send());
  transport.stop();
  EXPECT_EQ(delivered.load(), 5);
}

TEST(TcpTransportLoopback, EchoSuite) {
  EchoFixture fx(tcp(2));
  run_echo_suite(fx);
}

TEST(TcpTransportLoopback, FourMachineMesh) {
  EchoFixture fx(tcp(4));
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      const auto r = fx.endpoint(src).sync_call(dst, "echo", "m", {42});
      EXPECT_EQ(r, (std::vector<std::uint8_t>{42,
                                              static_cast<std::uint8_t>(dst)}));
    }
  }
}

// The online serving path leans on the transport staying correct when
// many client threads issue interleaved requests: concurrent writers on
// the same link must not interleave frames, and responses must never get
// crossed between callers. Payloads carry a per-(thread, call) pattern of
// varying size so any frame corruption or mis-association shows up as a
// content mismatch, not just a wrong length.
TEST(TcpTransportLoopback, ConcurrentMultiClientLoad) {
  constexpr int kMachines = 4;
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 64;
  EchoFixture fx(tcp(kMachines));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fx, t, &mismatches] {
      const int src = t % kMachines;
      std::vector<RpcFuture> futures;
      std::vector<int> dsts;
      std::vector<std::vector<std::uint8_t>> sent;
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int dst = (t + i) % kMachines;
        // Size varies 1..~2000 bytes; contents depend on (t, i, position).
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>((t * 131 + i * 37) % 2000 + 1));
        for (std::size_t k = 0; k < payload.size(); ++k) {
          payload[k] = static_cast<std::uint8_t>(t * 7 + i * 3 + k);
        }
        futures.push_back(
            fx.endpoint(src).async_call(dst, "echo", "m", payload));
        dsts.push_back(dst);
        sent.push_back(std::move(payload));
        // Interleave: resolve half the calls while others are in flight.
        if (i % 2 == 1) {
          const std::size_t j = futures.size() - 2;
          auto reply = futures[j].wait();
          auto want = sent[j];
          want.push_back(static_cast<std::uint8_t>(dsts[j]));
          if (reply != want) mismatches.fetch_add(1);
          futures[j] = RpcFuture();  // consumed
        }
      }
      for (std::size_t j = 0; j < futures.size(); ++j) {
        if (!futures[j].valid()) continue;
        auto reply = futures[j].wait();
        auto want = sent[j];
        want.push_back(static_cast<std::uint8_t>(dsts[j]));
        if (reply != want) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "frame interleaving or response mis-association under load";
}

TEST(TcpTransportLoopback, LargePayload) {
  EchoFixture fx(tcp(2));
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto reply = fx.endpoint(0).sync_call(1, "echo", "m", big);
  ASSERT_EQ(reply.size(), big.size() + 1);
  reply.pop_back();
  EXPECT_EQ(reply, big);
}

// The RPC layer ships the caller's trace context in the frame header and
// binds it around the server-side handler, so one query's spans connect
// across "machines". The service below reports the trace id the handler
// observed; the suite checks it matches the client's span and that the
// tracer recorded a server span parented under the client span.
void run_trace_suite(const Transports& transports) {
  obs::Tracer::global().clear();
  obs::Tracer::global().set_enabled(true);

  std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
  for (int m = 0; m < static_cast<int>(transports.size()); ++m) {
    endpoints.push_back(std::make_unique<RpcEndpoint>(
        transports[static_cast<std::size_t>(m)], m, 2));
    endpoints.back()->register_service(
        "tracectx",
        [](const std::string&, std::span<const std::uint8_t>) {
          const obs::TraceContext ctx = obs::current_trace();
          std::vector<std::uint8_t> out(sizeof(ctx.trace_id));
          std::memcpy(out.data(), &ctx.trace_id, sizeof(ctx.trace_id));
          return out;
        });
  }

  std::uint64_t client_trace = 0;
  std::uint64_t client_span = 0;
  {
    obs::ScopedSpan span("client.op");
    client_trace = span.trace_id();
    client_span = span.span_id();
    const auto reply = endpoints[0]->sync_call(1, "tracectx", "m", {});
    ASSERT_EQ(reply.size(), sizeof(std::uint64_t));
    std::uint64_t observed = 0;
    std::memcpy(&observed, reply.data(), sizeof(observed));
    EXPECT_EQ(observed, client_trace)
        << "server handler must run under the client's trace";
  }

  const std::vector<obs::SpanRecord> spans = obs::Tracer::global().spans();
  const obs::SpanRecord* server = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "rpc.server.m") server = &s;
  }
  ASSERT_NE(server, nullptr) << "server side must record its own span";
  EXPECT_EQ(server->trace_id, client_trace);
  EXPECT_EQ(server->parent_id, client_span);

  // Untraced callers stay untraced on the server: no context leaks in.
  obs::Tracer::global().set_enabled(false);
  const auto reply = endpoints[0]->sync_call(1, "tracectx", "m", {});
  std::uint64_t observed = 1;
  std::memcpy(&observed, reply.data(), sizeof(observed));
  EXPECT_EQ(observed, 0u);
  obs::Tracer::global().clear();
}

TEST(InProcTransport, TracePropagatesToServerSpans) {
  run_trace_suite(inproc(2));
}

TEST(TcpTransportLoopback, TracePropagatesToServerSpans) {
  run_trace_suite(tcp(2));
}

// ---------------------------------------------------------------------------
// Hostile frames read off a socketpair: every malformed frame throws
// InvalidArgument (never bad_alloc), and EOF mid-frame reads as kClosed.

class FramePipe {
 public:
  FramePipe() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~FramePipe() {
    ::close(fds_[0]);
    ::close(fds_[1]);
  }

  void write(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (n > 0) {
      const ssize_t w = ::write(fds_[1], p, n);
      ASSERT_GT(w, 0) << std::strerror(errno);
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  void write_lens(std::uint64_t header_len, std::uint64_t payload_len) {
    const std::uint64_t lens[2] = {header_len, payload_len};
    write(lens, sizeof(lens));
  }
  void close_writer() { ::shutdown(fds_[1], SHUT_WR); }
  int writer_fd() const { return fds_[1]; }

  frame_io::ReadStatus read(Message& out) {
    frame_io::ControlCode control{};
    return frame_io::read_frame(fds_[0], scratch_, out, control);
  }

 private:
  int fds_[2] = {-1, -1};
  std::vector<std::uint8_t> scratch_;
};

/// The encoded header of a message from 1 to 0 whose header claims a
/// payload of `payload_len` bytes (the length is the header's last field).
std::vector<std::uint8_t> header_claiming(std::uint64_t payload_len) {
  Message m;
  m.src_machine = 1;
  m.service = "svc";
  m.method = "m";
  std::vector<std::uint8_t> header = m.encode_view().header;
  std::memcpy(header.data() + header.size() - sizeof(payload_len),
              &payload_len, sizeof(payload_len));
  return header;
}

TEST(FrameIo, RejectsHugeHeaderLengths) {
  for (const std::uint64_t len :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62,
        frame_io::kMaxHeaderBytes + 1}) {
    FramePipe pipe;
    pipe.write_lens(len, 0);
    pipe.close_writer();
    Message out;
    EXPECT_THROW(pipe.read(out), InvalidArgument) << "header length " << len;
  }
}

TEST(FrameIo, RejectsHeadersThatDoNotDecode) {
  {  // too short for its fields: the strings' lengths are cut off
    FramePipe pipe;
    const std::vector<std::uint8_t> header(40, 0);
    pipe.write_lens(header.size(), 0);
    pipe.write(header.data(), header.size());
    pipe.close_writer();
    Message out;
    EXPECT_THROW(pipe.read(out), InvalidArgument);
  }
  {  // trailing bytes after the payload length
    FramePipe pipe;
    std::vector<std::uint8_t> header = header_claiming(0);
    header.resize(header.size() + 3, 0);
    pipe.write_lens(header.size(), 0);
    pipe.write(header.data(), header.size());
    pipe.close_writer();
    Message out;
    EXPECT_THROW(pipe.read(out), InvalidArgument);
  }
  {  // a string length past the header's end
    FramePipe pipe;
    std::vector<std::uint8_t> header = header_claiming(0);
    const std::uint64_t huge = std::uint64_t{1} << 62;
    std::memcpy(header.data() + 33, &huge, sizeof(huge));  // service length
    pipe.write_lens(header.size(), 0);
    pipe.write(header.data(), header.size());
    pipe.close_writer();
    Message out;
    EXPECT_THROW(pipe.read(out), InvalidArgument);
  }
}

TEST(FrameIo, RejectsMismatchedPayloadLength) {
  FramePipe pipe;
  const std::vector<std::uint8_t> header = header_claiming(10);
  pipe.write_lens(header.size(), 20);
  pipe.write(header.data(), header.size());
  pipe.close_writer();
  Message out;
  EXPECT_THROW(pipe.read(out), InvalidArgument);
}

TEST(FrameIo, HugePayloadLengthReadsAsClosedAtEof) {
  for (const std::uint64_t len :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    FramePipe pipe;
    const std::vector<std::uint8_t> header = header_claiming(len);
    pipe.write_lens(header.size(), len);
    pipe.write(header.data(), header.size());
    const std::uint8_t some[7] = {1, 2, 3, 4, 5, 6, 7};
    pipe.write(some, sizeof(some));
    pipe.close_writer();
    Message out;
    EXPECT_EQ(pipe.read(out), frame_io::ReadStatus::kClosed)
        << "payload length " << len;
  }
}

TEST(FrameIo, EofMidFrameReadsAsClosed) {
  const std::vector<std::uint8_t> header = header_claiming(100);
  for (const std::size_t sent : {std::size_t{4}, std::size_t{16 + 5},
                                 16 + header.size() + 50}) {
    FramePipe pipe;
    std::vector<std::uint8_t> frame(16 + header.size() + 50, 9);
    const std::uint64_t lens[2] = {header.size(), 100};
    std::memcpy(frame.data(), lens, sizeof(lens));
    std::memcpy(frame.data() + 16, header.data(), header.size());
    pipe.write(frame.data(), sent);
    pipe.close_writer();
    Message out;
    EXPECT_EQ(pipe.read(out), frame_io::ReadStatus::kClosed)
        << sent << " bytes sent";
  }
}

TEST(FrameIo, PayloadsPastTheFirstChunkArriveWhole) {
  FramePipe pipe;
  Message msg;
  msg.src_machine = 1;
  msg.service = "svc";
  msg.payload.resize(3 * frame_io::kPayloadChunkBytes + 5);
  for (std::size_t i = 0; i < msg.payload.size(); ++i) {
    msg.payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const std::vector<std::uint8_t> sent = msg.payload;
  std::mutex write_mutex;
  std::thread writer([&] {
    frame_io::write_message(pipe.writer_fd(), write_mutex, std::move(msg));
  });
  Message out;
  EXPECT_EQ(pipe.read(out), frame_io::ReadStatus::kMessage);
  writer.join();
  EXPECT_EQ(out.service, "svc");
  EXPECT_EQ(out.payload, sent);
}

TEST(Endpoint, LocalCallBypassesTransport) {
  auto transport = std::make_shared<InProcTransport>(1, NetworkModel{0, 0});
  RpcEndpoint ep(transport, 0);
  int invocations = 0;
  ep.register_service("svc", [&](const std::string&,
                                 std::span<const std::uint8_t> p) {
    ++invocations;
    return std::vector<std::uint8_t>(p.begin(), p.end());
  });
  const std::vector<std::uint8_t> payload{1, 2};
  EXPECT_EQ(ep.local_call("svc", "m", payload), payload);
  EXPECT_EQ(invocations, 1);
  EXPECT_THROW(ep.local_call("unknown", "m", payload), InvalidArgument);
}

TEST(Endpoint, DuplicateServiceRejected) {
  auto transport = std::make_shared<InProcTransport>(1, NetworkModel{0, 0});
  RpcEndpoint ep(transport, 0);
  auto handler = [](const std::string&, std::span<const std::uint8_t>) {
    return std::vector<std::uint8_t>{};
  };
  ep.register_service("svc", handler);
  EXPECT_THROW(ep.register_service("svc", handler), InvalidArgument);
}

TEST(RemoteRef, LocalRefUsesDirectPath) {
  auto transport = std::make_shared<InProcTransport>(2, NetworkModel{0, 0});
  RpcEndpoint ep0(transport, 0);
  RpcEndpoint ep1(transport, 1);
  auto handler = [](const std::string&, std::span<const std::uint8_t> p) {
    return std::vector<std::uint8_t>(p.begin(), p.end());
  };
  ep0.register_service("svc", handler);
  ep1.register_service("svc", handler);

  RemoteRef local_ref(&ep0, 0, "svc");
  RemoteRef remote_ref(&ep0, 1, "svc");
  EXPECT_TRUE(local_ref.is_local());
  EXPECT_FALSE(remote_ref.is_local());

  const std::vector<std::uint8_t> payload{7};
  EXPECT_EQ(local_ref.call("m", payload), payload);
  EXPECT_EQ(remote_ref.call("m", payload), payload);
  EXPECT_EQ(remote_ref.async_call("m", {8}).wait(),
            (std::vector<std::uint8_t>{8}));
}

}  // namespace
}  // namespace ppr
