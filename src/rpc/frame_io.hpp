// Frame I/O for TcpTransport's links (TCP connections and the
// self-loop socketpair), which all speak one wire framing:
//
//   data frame:    [u64 header_len][u64 payload_len][header][payload]
//   control frame: [u64 kControlTag][u64 code]
//
// where `header` is Message::encode_view()'s pooled header and `payload`
// is the message's own buffer (scatter-gathered with writev, never copied
// into a flat frame). Control frames reuse the length-prefix slot with a
// tag no data frame can produce (a header can never be 2^64-1 bytes), so
// one reader loop handles both planes. This file holds the hardened
// read/write loops — short reads, short writes, EINTR, SIGPIPE — as one
// audited implementation the transport and the wire-level tests share.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "rpc/message.hpp"

namespace ppr::frame_io {

/// Length-prefix tag marking a control frame; the second u64 carries the
/// control code. Data frames always carry a real header length here.
inline constexpr std::uint64_t kControlTag = ~std::uint64_t{0};

/// Largest frame header read_frame accepts. A header is a few fixed
/// fields plus the service, method and error strings.
inline constexpr std::uint64_t kMaxHeaderBytes = std::uint64_t{1} << 20;

/// Payload bytes read_frame acquires before any arrive; a longer payload
/// grows as its bytes arrive.
inline constexpr std::uint64_t kPayloadChunkBytes = std::uint64_t{1} << 20;

/// Control codes carried by control frames.
enum class ControlCode : std::uint64_t {
  kReady = 1,  // bootstrap barrier: "my mesh links are all up"
  kGo = 2,     // bootstrap barrier release from the coordinator
  kLeave = 3,  // orderly departure; the peer sends no further frames
};

/// Outcome of read_frame().
enum class ReadStatus {
  kMessage,  // a data frame was decoded into `out`
  kControl,  // a control frame arrived; its code is in `out_control`
  kClosed,   // orderly EOF or reset — the link is gone
};

/// Write every byte of `iov[0..iovcnt)`, retrying short writes and EINTR.
/// Uses sendmsg(MSG_NOSIGNAL) so a departed peer surfaces as an RpcError
/// (EPIPE) instead of a process-killing SIGPIPE. Throws RpcError on any
/// unrecoverable error.
void writev_all(int fd, struct iovec* iov, int iovcnt);

/// Read exactly `n` bytes, retrying short reads and EINTR. Returns false
/// on orderly EOF or connection reset (the caller treats the link as
/// closed either way).
bool read_exact(int fd, void* data, std::size_t n);

/// Send `msg` as one scatter-gathered data frame under `write_mutex`
/// (frames from concurrent senders must never interleave). Consumes and
/// recycles both the pooled header and the message payload.
void write_message(int fd, std::mutex& write_mutex, Message msg);

/// Send a control frame under `write_mutex`.
void write_control(int fd, std::mutex& write_mutex, ControlCode code);

/// Read one frame. On kMessage, `out` holds the decoded message with its
/// payload read straight into a pool-recycled buffer; on kControl,
/// `out_control` holds the code; on kClosed the link is finished (EOF,
/// also mid-frame). A malformed frame — a header longer than
/// kMaxHeaderBytes, a header that does not decode, or a payload length
/// the header contradicts — throws InvalidArgument; the stream is then
/// out of sync and the link unusable. `header_scratch` is reused across
/// calls to keep the loop allocation-free once warm.
ReadStatus read_frame(int fd, std::vector<std::uint8_t>& header_scratch,
                      Message& out, ControlCode& out_control);

}  // namespace ppr::frame_io
