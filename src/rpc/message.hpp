// Wire message for the RPC layer.
//
// Mirrors the structure of a PyTorch RPC call: a request names a target
// object (service) and method and carries a serialized payload; a response
// carries the serialized return value or an error string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"

namespace ppr {

enum class MessageKind : std::uint8_t { kRequest = 0, kResponse = 1 };

/// Scatter-gather view of an encoded message: a small owned header (frame
/// fields + string metadata + payload length) plus a *borrowed* span over
/// the message's payload bytes. Writing header and payload as separate
/// spans (writev) is what lets TcpTransport ship a message without ever
/// copying the payload into a flat frame. The view is only valid while the
/// Message it came from is alive and unmodified.
struct FrameView {
  std::vector<std::uint8_t> header;       // pooled; release after the write
  std::span<const std::uint8_t> payload;  // borrowed from the Message

  std::size_t wire_size() const { return header.size() + payload.size(); }
};

struct Message {
  std::uint64_t call_id = 0;
  MessageKind kind = MessageKind::kRequest;
  std::int32_t src_machine = -1;
  std::int32_t dst_machine = -1;
  /// Trace context of the issuing caller (obs/trace.hpp), carried in the
  /// frame header so the server-side handler's spans land in the caller's
  /// trace. 0 = untraced (the default; frames decode identically).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::string service;  // request only
  std::string method;   // request only
  std::string error;    // response only; empty on success
  std::vector<std::uint8_t> payload;

  /// Zero-copy encoding: header bytes (ending in the payload length) in a
  /// pool-recycled buffer, payload as a borrowed span. header ‖ payload
  /// is byte-identical to encode().
  FrameView encode_view() const;

  /// Flat single-buffer frame (header ‖ payload). Kept for tests and the
  /// in-proc cost model; the socket hot path uses encode_view() instead.
  std::vector<std::uint8_t> encode() const;
  static Message decode(std::span<const std::uint8_t> frame);

  /// Decode a header produced by encode_view(); returns the message with
  /// an empty payload and stores the expected payload length, so the
  /// transport can read the payload straight into its own (pooled) buffer.
  static Message decode_header(std::span<const std::uint8_t> header,
                               std::uint64_t* payload_len);

  /// Exact bytes this message occupies on the wire (header + payload,
  /// excluding any transport length prefix); equals encode().size() for
  /// every payload codec, so the bandwidth model and the bench byte
  /// counters never under- or over-charge.
  std::size_t wire_size() const;
};

}  // namespace ppr
