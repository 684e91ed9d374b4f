#include "rpc/inproc_transport.hpp"

#include <sys/prctl.h>

#include <algorithm>

#include "common/check.hpp"

namespace ppr {

namespace {
using Clock = std::chrono::steady_clock;

/// Due time of a message the network model does not delay. It precedes
/// every real time, so the dispatcher delivers it without a clock read.
constexpr Clock::time_point kDueNow = Clock::time_point::min();

/// (due, seq) ordering that turns the std max-heap algorithms into a
/// min-heap.
struct Later {
  template <typename P>
  bool operator()(const P& a, const P& b) const {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }
};

Clock::duration micros(double us) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}
}  // namespace

InProcTransport::InProcTransport(int num_machines, NetworkModel model)
    : model_(model) {
  GE_REQUIRE(num_machines > 0, "need at least one machine");
  boxes_.reserve(static_cast<std::size_t>(num_machines));
  for (int i = 0; i < num_machines; ++i) {
    boxes_.push_back(std::make_unique<Box>());
  }
}

InProcTransport::~InProcTransport() { stop(); }

void InProcTransport::start(int machine_id, MessageHandler handler) {
  GE_REQUIRE(machine_id >= 0 && machine_id < num_machines(),
             "machine_id out of range");
  Box& box = *boxes_[static_cast<std::size_t>(machine_id)];
  GE_REQUIRE(!box.started, "machine already started");
  box.handler = std::move(handler);
  box.started = true;
  box.dispatcher = std::thread([this, &box] { dispatch_loop(box); });
}

void InProcTransport::send(Message msg) {
  GE_REQUIRE(msg.dst_machine >= 0 && msg.dst_machine < num_machines(),
             "dst_machine out of range");
  Box& box = *boxes_[static_cast<std::size_t>(msg.dst_machine)];
  GE_CHECK(box.started, "destination machine not started");
  const bool modeled =
      model_.enabled() && msg.src_machine != msg.dst_machine;
  Clock::time_point arrival = kDueNow;
  Clock::duration transfer{};
  if (modeled) {
    arrival = Clock::now() + micros(model_.latency_us);
    transfer = micros(model_.transfer_us(msg.wire_size()));
  }
  bool earliest = false;
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    if (box.closed) return;  // the destination detached: drop
    Clock::time_point due = kDueNow;
    if (modeled) {
      // The bytes stream in once the link is free; nic_free only grows,
      // so due times never decrease per destination.
      due = std::max(arrival, box.nic_free) + transfer;
      box.nic_free = due;
    }
    const std::uint64_t seq = box.next_seq++;
    box.heap.push_back(Pending{due, seq, std::move(msg)});
    std::push_heap(box.heap.begin(), box.heap.end(), Later{});
    earliest = box.heap.front().seq == seq;
  }
  // A message that is not the earliest cannot move the dispatcher's
  // wake-up time.
  if (earliest) box.cv.notify_one();
}

void InProcTransport::dispatch_loop(Box& box) {
  // The dispatcher sleeps until a message is due rather than spinning:
  // the simulation may run on fewer cores than it has machine threads,
  // and waiting for the network must leave the CPU to the computing
  // processes. It wakes at the due time itself, not up to the default
  // 50 µs of timer slack later; this sets the slack of this thread only.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;) {
    if (box.heap.empty()) {
      if (box.closed) return;
      box.cv.wait(lock);
      continue;
    }
    const Clock::time_point due = box.heap.front().due;
    if (due != kDueNow && Clock::now() < due) {
      box.cv.wait_until(lock, due);
      continue;
    }
    std::pop_heap(box.heap.begin(), box.heap.end(), Later{});
    Message msg = std::move(box.heap.back().msg);
    box.heap.pop_back();
    lock.unlock();
    box.handler(std::move(msg));
    lock.lock();
  }
}

void InProcTransport::close(Box& box) {
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.closed = true;
  }
  box.cv.notify_all();
}

void InProcTransport::detach(int machine_id) {
  GE_REQUIRE(machine_id >= 0 && machine_id < num_machines(),
             "machine_id out of range");
  Box& box = *boxes_[static_cast<std::size_t>(machine_id)];
  if (!box.started) return;
  // Closing makes the dispatcher deliver what is queued and exit; joining
  // it guarantees no thread is inside box.handler afterwards. `started`
  // stays true so a late peer send is dropped rather than failing the
  // send-side check.
  close(box);
  if (box.dispatcher.joinable()) box.dispatcher.join();
}

void InProcTransport::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& box : boxes_) close(*box);
  for (auto& box : boxes_) {
    if (box->dispatcher.joinable()) box->dispatcher.join();
  }
}

}  // namespace ppr
