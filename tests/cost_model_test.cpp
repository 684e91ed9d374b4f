// Tests for the simulated-substrate cost models: the per-tensor-op
// dispatch charge, the per-tensor RPC marshalling charge, and the
// in-process transport's network delay. These are the knobs DESIGN.md
// §2.1 documents; correctness here means "off by default, measurably on
// when enabled, and restored by the RAII guard".
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>

#include "common/serialize.hpp"
#include "common/timer.hpp"
#include "rpc/endpoint.hpp"
#include "rpc/inproc_transport.hpp"
#include "tensor/dispatch.hpp"
#include "tensor/ops.hpp"

namespace ppr {
namespace {

TEST(DispatchModel, OffByDefault) {
  EXPECT_EQ(ops::dispatch_overhead_us(), 0.0);
}

TEST(DispatchModel, GuardSetsAndRestores) {
  {
    ops::DispatchOverheadGuard guard(7.5);
    EXPECT_EQ(ops::dispatch_overhead_us(), 7.5);
    {
      ops::DispatchOverheadGuard inner(1.0);
      EXPECT_EQ(ops::dispatch_overhead_us(), 1.0);
    }
    EXPECT_EQ(ops::dispatch_overhead_us(), 7.5);
  }
  EXPECT_EQ(ops::dispatch_overhead_us(), 0.0);
}

TEST(DispatchModel, ChargesEveryKernel) {
  const FloatTensor t = FloatTensor::full(8, 1.0f);
  constexpr int kOps = 50;
  WallTimer baseline_timer;
  for (int i = 0; i < kOps; ++i) (void)ops::sum(t);
  const double baseline = baseline_timer.seconds();

  ops::DispatchOverheadGuard guard(200.0);  // 200µs, far above noise
  WallTimer charged_timer;
  for (int i = 0; i < kOps; ++i) (void)ops::sum(t);
  const double charged = charged_timer.seconds();
  EXPECT_GT(charged, baseline + kOps * 150e-6)
      << "each op must pay the dispatch cost";
}

TEST(DispatchModel, DoesNotChangeResults) {
  const FloatTensor t = FloatTensor::from_vector({3, 1, 2});
  const auto without = ops::argsort_desc(t);
  ops::DispatchOverheadGuard guard(20.0);
  EXPECT_EQ(ops::argsort_desc(t).vec(), without.vec());
}

TEST(MarshalModel, OffByDefault) {
  EXPECT_EQ(tensor_marshal_overhead_us(), 0.0);
}

TEST(MarshalModel, ChargesTensorWrappedOnly) {
  const std::vector<std::int32_t> payload(64, 7);
  set_tensor_marshal_overhead_us(200.0);
  constexpr int kArrays = 20;

  WallTimer flat_timer;
  {
    ByteWriter w;
    for (int i = 0; i < kArrays; ++i) w.write_vec(payload);
  }
  const double flat = flat_timer.seconds();

  WallTimer wrapped_timer;
  {
    ByteWriter w;
    for (int i = 0; i < kArrays; ++i) w.write_tensor(payload);
  }
  const double wrapped = wrapped_timer.seconds();
  set_tensor_marshal_overhead_us(0.0);

  EXPECT_GT(wrapped, flat + kArrays * 150e-6)
      << "only the tensor-list format pays marshalling";
}

TEST(NetworkModelDelay, SlowsCrossMachineMessagesOnly) {
  // Self-messages bypass the network model entirely. The modelled delay
  // sits well above scheduler noise: on a loaded host (a sanitizer run
  // next to spinning OpenMP tests) one self call alone can take ~12 ms.
  constexpr double kDelayUs = 20000.0;
  auto transport =
      std::make_shared<InProcTransport>(2, NetworkModel{kDelayUs, 0.0});
  RpcEndpoint ep0(transport, 0);
  RpcEndpoint ep1(transport, 1);
  const auto echo = [](const std::string&, std::span<const std::uint8_t> p) {
    return std::vector<std::uint8_t>(p.begin(), p.end());
  };
  ep0.register_service("echo", echo);
  ep1.register_service("echo", echo);

  // Best of a few calls per path: the modelled delay is a floor under
  // every cross-machine call, while the host can stall any single call.
  const auto best_call_seconds = [&](int dst) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i) {
      WallTimer timer;
      (void)ep0.sync_call(dst, "echo", "m", {1});
      best = std::min(best, timer.seconds());
    }
    return best;
  };
  const double self_time = best_call_seconds(0);
  const double cross_time = best_call_seconds(1);

  // Cross-machine pays 2 x the delay (request + response); self pays
  // neither.
  EXPECT_GT(cross_time, 1.75 * kDelayUs * 1e-6);
  EXPECT_LT(self_time, cross_time);
}

/// Two machines on one InProcTransport, each serving an `echo` service
/// whose method `echo` returns the request and whose method `sink`
/// returns nothing.
class ModeledPair {
 public:
  explicit ModeledPair(NetworkModel model)
      : transport_(std::make_shared<InProcTransport>(2, model)),
        ep0_(transport_, 0),
        ep1_(transport_, 1) {
    for (RpcEndpoint* ep : {&ep0_, &ep1_}) {
      ep->register_service("echo", [](const std::string& method,
                                      std::span<const std::uint8_t> p) {
        if (method == "sink") return std::vector<std::uint8_t>{};
        return std::vector<std::uint8_t>(p.begin(), p.end());
      });
    }
  }

  /// Best wall time, over `trials`, of `k` concurrent calls from machine 0
  /// to machine 1 carrying `bytes` each.
  double best_seconds(int k, std::size_t bytes, const char* method = "echo",
                      int trials = 3) {
    double best = std::numeric_limits<double>::infinity();
    for (int t = 0; t < trials; ++t) {
      WallTimer timer;
      std::vector<RpcFuture> calls;
      for (int i = 0; i < k; ++i) {
        calls.push_back(ep0_.async_call(1, "echo", method,
                                        std::vector<std::uint8_t>(bytes, 1)));
      }
      for (RpcFuture& call : calls) (void)call.wait();
      best = std::min(best, timer.seconds());
    }
    return best;
  }

 private:
  std::shared_ptr<InProcTransport> transport_;
  RpcEndpoint ep0_;
  RpcEndpoint ep1_;
};

// Latency overlaps: calls in flight together pay one round trip between
// them, as on a real network, instead of one delay each in turn.
TEST(NetworkModelDelay, ConcurrentCallsOverlapTheirLatency) {
  ModeledPair pair(NetworkModel{20000.0, 0.0});
  const double one = pair.best_seconds(1, 64);
  const double sixteen = pair.best_seconds(16, 64);
  EXPECT_GT(one, 1.75 * 20000.0 * 1e-6);
  EXPECT_LT(sixteen, 1.5 * one) << "one call " << one << " s";
}

// A model with only the bandwidth term adds a transfer time of a fraction
// of a microsecond to a small call, not a timer wake-up per message.
TEST(NetworkModelDelay, BandwidthOnlyRoundTripCostsAboutAnUnmodeledOne) {
  ModeledPair off(NetworkModel{0.0, 0.0});
  ModeledPair bandwidth(NetworkModel{0.0, 8.0});
  // Interleave the two, so a host slowdown hits both alike.
  double off_best = std::numeric_limits<double>::infinity();
  double bandwidth_best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 5; ++round) {
    off_best = std::min(off_best, off.best_seconds(1, 64, "echo", 20));
    bandwidth_best =
        std::min(bandwidth_best, bandwidth.best_seconds(1, 64, "echo", 20));
  }
  EXPECT_LT(bandwidth_best, 2.0 * off_best)
      << "model off " << off_best << " s";
}

// Bytes still serialize per destination: four 64 KiB requests arriving
// together stream in one after another. The replies are empty, so they
// add no transfer time of their own.
TEST(NetworkModelDelay, BytesSerializePerDestination) {
  constexpr std::size_t kBytes = 64 * 1024;
  constexpr double kGbps = 0.1;
  const double transfer_s = NetworkModel{0.0, kGbps}.transfer_us(kBytes) * 1e-6;
  ModeledPair pair(NetworkModel{0.0, kGbps});
  const double four = pair.best_seconds(4, kBytes, "sink");
  EXPECT_GE(four, 3.5 * transfer_s) << "one transfer " << transfer_s << " s";
}

// Messages from one source reach a destination in send order, whatever
// their sizes: a small message never overtakes a large one sent before it.
TEST(NetworkModelDelay, DeliversInSendOrderAcrossSizes) {
  InProcTransport transport(2, NetworkModel{100.0, 1.0});
  constexpr int kMessages = 24;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint64_t> order;
  transport.start(0, [](Message) {});
  transport.start(1, [&](Message msg) {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(msg.call_id);
    cv.notify_all();
  });
  for (int i = 0; i < kMessages; ++i) {
    Message msg;
    msg.call_id = static_cast<std::uint64_t>(i);
    msg.src_machine = 0;
    msg.dst_machine = 1;
    msg.payload.resize(i % 3 == 0 ? 32 * 1024 : (i % 3 == 1 ? 1 : 4096));
    transport.send(std::move(msg));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] {
      return order.size() == static_cast<std::size_t>(kMessages);
    }));
  }
  transport.stop();
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(i));
  }
}

}  // namespace
}  // namespace ppr
