// Tests for the simulated-substrate cost models: the per-tensor-op
// dispatch charge, the per-tensor RPC marshalling charge, and the
// in-process transport's network delay. These are the knobs DESIGN.md
// §2.1 documents; correctness here means "off by default, measurably on
// when enabled, and restored by the RAII guard".
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

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

}  // namespace
}  // namespace ppr
