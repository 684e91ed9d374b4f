#include "rpc/message.hpp"

#include "rpc/buffer_pool.hpp"

namespace ppr {

namespace {
/// Header layout (everything but the payload bytes): fixed fields, three
/// length-prefixed strings, then the payload length. Writing the payload
/// length last keeps header ‖ payload byte-identical to the historic flat
/// frame, so decode() still parses either encoding path.
void write_header(ByteWriter& w, const Message& m) {
  w.write(m.call_id);
  w.write(static_cast<std::uint8_t>(m.kind));
  w.write(m.src_machine);
  w.write(m.dst_machine);
  w.write(m.trace_id);
  w.write(m.parent_span);
  w.write_string(m.service);
  w.write_string(m.method);
  w.write_string(m.error);
  w.write<std::uint64_t>(m.payload.size());
}

std::size_t header_size(const Message& m) {
  return 8 + 1 + 4 + 4 + 8 + 8 + 8 * 4 + m.service.size() +
         m.method.size() + m.error.size();
}
}  // namespace

FrameView Message::encode_view() const {
  ByteWriter w(BufferPool::global().acquire(header_size(*this)));
  write_header(w, *this);
  return FrameView{w.take(), std::span<const std::uint8_t>(payload)};
}

std::vector<std::uint8_t> Message::encode() const {
  ByteWriter w;
  w.reserve(header_size(*this) + payload.size());
  write_header(w, *this);
  w.write_bytes(payload.data(), payload.size());
  return w.take();
}

Message Message::decode_header(std::span<const std::uint8_t> header,
                               std::uint64_t* payload_len) {
  ByteReader r(header);
  Message m;
  m.call_id = r.read<std::uint64_t>();
  m.kind = static_cast<MessageKind>(r.read<std::uint8_t>());
  m.src_machine = r.read<std::int32_t>();
  m.dst_machine = r.read<std::int32_t>();
  m.trace_id = r.read<std::uint64_t>();
  m.parent_span = r.read<std::uint64_t>();
  m.service = r.read_string();
  m.method = r.read_string();
  m.error = r.read_string();
  const auto len = r.read<std::uint64_t>();
  GE_REQUIRE(r.done(), "trailing bytes in message header");
  if (payload_len != nullptr) *payload_len = len;
  return m;
}

Message Message::decode(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  Message m;
  m.call_id = r.read<std::uint64_t>();
  m.kind = static_cast<MessageKind>(r.read<std::uint8_t>());
  m.src_machine = r.read<std::int32_t>();
  m.dst_machine = r.read<std::int32_t>();
  m.trace_id = r.read<std::uint64_t>();
  m.parent_span = r.read<std::uint64_t>();
  m.service = r.read_string();
  m.method = r.read_string();
  m.error = r.read_string();
  m.payload = r.read_vec<std::uint8_t>();
  GE_REQUIRE(r.done(), "trailing bytes in message frame");
  return m;
}

std::size_t Message::wire_size() const {
  return header_size(*this) + payload.size();
}

}  // namespace ppr
