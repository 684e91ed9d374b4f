// Transport abstraction: moves Messages between machines.
//
// Two implementations:
//   * InProcTransport — simulated machines inside one process, with a
//     configurable network cost model (per-message latency + bandwidth).
//     Latency overlaps: concurrent calls to one machine pay it once
//     between them, while their bytes serialize on the destination's
//     receive link. This reproduces the paper's single-server simulation
//     of a cluster while keeping the fixed per-RPC overhead that makes
//     small frequent messages expensive (the phenomenon §3.2.3 optimizes
//     away) and that keeping calls in flight together hides (Overlap).
//   * TcpTransport — one node of a real TCP mesh with length-prefixed
//     frames (rpc/tcp_transport.hpp). The K nodes are normally separate
//     processes; tests also run a loopback mesh inside one process.
#pragma once

#include <cstdint>
#include <functional>

#include "rpc/message.hpp"

namespace ppr {

/// Invoked on a transport-owned thread for every delivered message.
using MessageHandler = std::function<void(Message)>;

/// Cost model applied per delivered message by InProcTransport.
/// Defaults approximate a TensorPipe-class RPC stack over fast
/// interconnect: ~100µs fixed cost per call (Python + serialization +
/// transport), multi-GB/s streaming rate. The latency of concurrent
/// messages overlaps; their transfer times queue per destination.
struct NetworkModel {
  double latency_us = 100.0;         // fixed per-message delivery latency
  double bandwidth_gbps = 8.0;       // payload streaming rate
  bool enabled() const { return latency_us > 0 || bandwidth_gbps > 0; }
  /// Time in microseconds that `bytes` bytes occupy the receive link.
  double transfer_us(std::size_t bytes) const {
    return bandwidth_gbps > 0
               ? static_cast<double>(bytes) * 8.0 / (bandwidth_gbps * 1e3)
               : 0.0;
  }
  /// Delivery delay in microseconds of a message of `bytes` bytes sent
  /// over an idle link.
  double delay_us(std::size_t bytes) const {
    return latency_us + transfer_us(bytes);
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Register machine `machine_id`'s receive handler and start delivering
  /// messages to it. Must be called once per machine before any send.
  virtual void start(int machine_id, MessageHandler handler) = 0;

  /// Asynchronously send `msg` to `msg.dst_machine`. Never blocks on the
  /// destination's handler.
  virtual void send(Message msg) = 0;

  /// Stop delivery to one machine and join its delivery threads; after
  /// this returns no thread is inside that machine's handler. Endpoints
  /// call this from their destructor so a handler can never outlive the
  /// state it captures. Idempotent; other machines are unaffected.
  virtual void detach(int machine_id) = 0;

  /// Stop all delivery threads. Idempotent.
  virtual void stop() = 0;

  /// Register a callback invoked (on a transport thread) when the link to
  /// `peer` reaches EOF and no further frames — in particular no pending
  /// responses — can ever arrive from it. Endpoints use this to fail
  /// in-flight calls to a dead peer instead of waiting forever. Must be
  /// called before start(). In-process transports never lose a peer, so
  /// the default is a no-op.
  virtual void set_peer_down_handler(int /*machine_id*/,
                                     std::function<void(int)> /*on_down*/) {}

  virtual int num_machines() const = 0;
};

}  // namespace ppr
