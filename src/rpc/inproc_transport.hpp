#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rpc/transport.hpp"

namespace ppr {

/// In-process transport: one due-time heap + dispatcher thread per
/// machine. `send` stamps each cross-machine message with the time the
/// NetworkModel says it arrives: it lands after the model's latency, and
/// its bytes then stream through the destination's receive link at the
/// model's bandwidth, one message after another. Latency therefore
/// overlaps (k concurrent calls cost about one round trip, as on a real
/// network), while bytes serialize per destination. The dispatcher sleeps
/// until the earliest due time and delivers outside the lock. Messages
/// between a machine and itself bypass the network model (shared-memory
/// access in the paper's setup), as does every message when the model is
/// off; both are due at once.
///
/// Due times never decrease per destination, so messages from one source
/// to one destination are delivered in send order.
///
/// Delivery is frame-free: the Message moves through the heap intact, so
/// neither end pays an encode/decode or a payload copy. The cost model
/// still charges Message::wire_size() — the exact header + payload bytes
/// the frame *would* occupy — so simulated bandwidth matches the TCP
/// transport's scatter-gather framing byte for byte.
class InProcTransport final : public Transport {
 public:
  InProcTransport(int num_machines, NetworkModel model = NetworkModel{});
  ~InProcTransport() override;

  void start(int machine_id, MessageHandler handler) override;
  void send(Message msg) override;
  void detach(int machine_id) override;
  void stop() override;
  int num_machines() const override { return static_cast<int>(boxes_.size()); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Clock::time_point due;
    std::uint64_t seq;  // send order, the tie-break between equal dues
    Message msg;
  };

  struct Box {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Pending> heap;  // min-heap on (due, seq)
    Clock::time_point nic_free{};  // when the receive link is idle again
    std::uint64_t next_seq = 0;
    bool closed = false;
    MessageHandler handler;
    std::thread dispatcher;
    bool started = false;
  };

  void dispatch_loop(Box& box);
  /// Refuse further sends; the dispatcher drains what is queued, then
  /// exits.
  static void close(Box& box);

  NetworkModel model_;
  std::vector<std::unique_ptr<Box>> boxes_;
  bool stopped_ = false;
};

}  // namespace ppr
