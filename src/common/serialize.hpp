// Byte-level serialization used by the RPC layer.
//
// The paper wraps every payload in PyTorch tensors shipped over TensorPipe.
// We reproduce the two serialization regimes the paper's "Compress"
// optimization distinguishes:
//   * "tensor-wrapped": each array is framed with a fixed per-tensor header
//     and alignment padding (mimicking per-tensor metadata + allocation
//     cost of a list of small tensors), via write_tensor()/read_tensor().
//   * "flat": raw length-prefixed arrays with no per-array overhead, via
//     write_vec()/read_vec(). The CSR-compressed response uses a handful of
//     large flat arrays instead of thousands of tiny tensor-wrapped ones.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include <atomic>
#include <chrono>

#include "common/check.hpp"

namespace ppr {

namespace detail {
inline std::atomic<double>& tensor_marshal_us_storage() {
  static std::atomic<double> value{0.0};
  return value;
}
/// Busy-wait model of the per-tensor (un)pickling cost a TensorPipe-class
/// RPC stack pays for each tensor in a message. Zero (disabled) by
/// default; the reproduction benches enable it. This cost is exactly what
/// the paper's Compress optimization avoids by shipping a few large flat
/// arrays instead of thousands of small tensors.
inline void pay_tensor_marshal() {
  const double us =
      tensor_marshal_us_storage().load(std::memory_order_relaxed);
  if (us <= 0) return;
  const auto start = std::chrono::steady_clock::now();
  const auto budget =
      std::chrono::nanoseconds(static_cast<long>(us * 1e3));
  while (std::chrono::steady_clock::now() - start < budget) {
  }
}
}  // namespace detail

inline void set_tensor_marshal_overhead_us(double us) {
  detail::tensor_marshal_us_storage().store(us, std::memory_order_relaxed);
}
inline double tensor_marshal_overhead_us() {
  return detail::tensor_marshal_us_storage().load(std::memory_order_relaxed);
}

/// Fixed header size charged per tensor-wrapped array. PyTorch tensor
/// metadata (dtype, sizes, strides, device, storage offset) serializes to
/// roughly this much per tensor.
inline constexpr std::size_t kTensorHeaderBytes = 64;
/// Tensor-wrapped payloads are padded to this alignment, as TensorPipe
/// aligns each tensor buffer independently.
inline constexpr std::size_t kTensorAlignBytes = 16;

/// ZigZag mapping for signed deltas: small-magnitude values of either
/// sign become small unsigned varints (-1 -> 1, 1 -> 2, -2 -> 3, ...).
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Maximum encoded length of a LEB128 varint carrying 64 bits.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Append-only byte buffer writer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopt `storage` as the backing buffer (cleared, capacity kept). Used
  /// with BufferPool so steady-state encoding reuses recycled buffers
  /// instead of allocating fresh ones per message.
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : buf_(std::move(storage)) {
    buf_.clear();
  }

  template <typename T>
  void write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void write_bytes(const void* data, std::size_t n) {
    if (n == 0) return;  // data may be null for empty arrays
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    write_bytes(s.data(), s.size());
  }

  /// LEB128 unsigned varint: 7 value bits per byte, high bit = "more".
  void write_uvarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  /// Signed value as zigzag-mapped varint (for deltas of either sign).
  void write_svarint(std::int64_t v) { write_uvarint(zigzag_encode(v)); }

  /// Flat length-prefixed array: 8-byte count then raw elements.
  template <typename T>
  void write_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(v.size());
    write_bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void write_vec(const std::vector<T>& v) {
    write_span(std::span<const T>(v));
  }

  /// Tensor-wrapped array: fixed metadata header + aligned payload.
  /// This is the expensive framing the paper's Compress step avoids for
  /// per-node neighbor lists.
  template <typename T>
  void write_tensor(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    detail::pay_tensor_marshal();
    std::uint8_t header[kTensorHeaderBytes] = {};
    const std::uint64_t n = v.size();
    std::memcpy(header, &n, sizeof(n));
    header[8] = static_cast<std::uint8_t>(sizeof(T));
    write_bytes(header, sizeof(header));
    write_bytes(v.data(), v.size() * sizeof(T));
    const std::size_t rem = (v.size() * sizeof(T)) % kTensorAlignBytes;
    if (rem != 0) {
      std::uint8_t pad[kTensorAlignBytes] = {};
      write_bytes(pad, kTensorAlignBytes - rem);
    }
  }
  template <typename T>
  void write_tensor(const std::vector<T>& v) {
    write_tensor(std::span<const T>(v));
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte buffer produced by ByteWriter. The
/// bytes may come off the wire, so every bounds or shape violation is
/// malformed input and throws InvalidArgument; the position never passes
/// the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    GE_REQUIRE(sizeof(T) <= remaining(), "serialized buffer underflow");
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// The length is checked against the bytes left, so a hostile length
  /// cannot wrap the bound and slip past it.
  std::string read_string() {
    const auto n = read<std::uint64_t>();
    GE_REQUIRE(n <= remaining(), "serialized buffer underflow");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> read_vec() {
    std::vector<T> v;
    read_vec_into(v);
    return v;
  }

  /// read_vec decoding into `out` (capacity reused). The length check is
  /// division-based so a hostile 2^61-element count cannot overflow the
  /// byte arithmetic and slip past it.
  template <typename T>
  void read_vec_into(std::vector<T>& out) {
    const auto n = read<std::uint64_t>();
    GE_REQUIRE(n <= (data_.size() - pos_) / sizeof(T),
               "serialized buffer underflow");
    out.resize(n);
    if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  /// LEB128 unsigned varint. Truncated or overlong frames are rejected
  /// with GE_REQUIRE (malformed remote input, not an engine bug): at most
  /// kMaxVarintBytes bytes, and the 10th byte may only carry the top bit
  /// of the 64-bit value.
  std::uint64_t read_uvarint() {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      GE_REQUIRE(pos_ < data_.size(), "truncated varint");
      const std::uint8_t byte = data_[pos_++];
      if (i == kMaxVarintBytes - 1) {
        GE_REQUIRE((byte & ~std::uint8_t{1}) == 0,
                   "varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) return v;
    }
    GE_REQUIRE(false, "varint longer than 10 bytes");
    return 0;  // unreachable
  }
  std::int64_t read_svarint() { return zigzag_decode(read_uvarint()); }

  /// Raw unprefixed element block (count known from context).
  template <typename T>
  void read_raw(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t n = out.size() * sizeof(T);
    GE_REQUIRE(n <= data_.size() - pos_, "truncated raw array");
    if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n);
    pos_ += n;
  }

  /// A tensor-wrapped array, alignment padding included: a frame that
  /// ends inside the padding is truncated.
  template <typename T>
  std::vector<T> read_tensor() {
    detail::pay_tensor_marshal();
    GE_REQUIRE(kTensorHeaderBytes <= remaining(),
               "serialized buffer underflow");
    std::uint64_t n;
    std::memcpy(&n, data_.data() + pos_, sizeof(n));
    GE_REQUIRE(data_[pos_ + 8] == sizeof(T), "tensor dtype mismatch");
    pos_ += kTensorHeaderBytes;
    GE_REQUIRE(n <= remaining() / sizeof(T), "serialized buffer underflow");
    const std::size_t bytes = n * sizeof(T);
    const std::size_t rem = bytes % kTensorAlignBytes;
    const std::size_t pad = rem == 0 ? 0 : kTensorAlignBytes - rem;
    GE_REQUIRE(pad <= remaining() - bytes, "tensor padding truncated");
    std::vector<T> v(n);
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, bytes);
    pos_ += bytes + pad;
    return v;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  /// Raw buffer access for block decoders (the SIMD varint paths) that
  /// consume a run of bytes outside the reader and then resynchronize it
  /// via seek().
  const std::uint8_t* raw() const { return data_.data(); }
  std::size_t buffer_size() const { return data_.size(); }
  std::size_t position() const { return pos_; }
  void seek(std::size_t pos) {
    GE_REQUIRE(pos <= data_.size(), "serialized buffer underflow");
    pos_ = pos;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ppr
