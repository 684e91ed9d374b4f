#include "rpc/frame_io.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "common/check.hpp"
#include "rpc/buffer_pool.hpp"

namespace ppr::frame_io {

void writev_all(int fd, struct iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    struct msghdr mh {};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<std::size_t>(iovcnt);
    // sendmsg instead of writev: MSG_NOSIGNAL turns a departed peer into
    // an EPIPE error we can throw, not a SIGPIPE that kills the process.
    const ssize_t w = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw RpcError(std::string("socket send failed: ") +
                     std::strerror(errno));
    }
    std::size_t done = static_cast<std::size_t>(w);
    while (iovcnt > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
}

bool read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;  // peer shut down / reset mid-frame
    }
    p += static_cast<std::size_t>(r);
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

void write_message(int fd, std::mutex& write_mutex, Message msg) {
  FrameView view = msg.encode_view();
  std::uint64_t lens[2] = {view.header.size(), view.payload.size()};
  struct iovec iov[3];
  iov[0] = {lens, sizeof(lens)};
  iov[1] = {view.header.data(), view.header.size()};
  iov[2] = {const_cast<std::uint8_t*>(view.payload.data()),
            view.payload.size()};
  {
    std::lock_guard<std::mutex> lock(write_mutex);
    writev_all(fd, iov, view.payload.empty() ? 2 : 3);
  }
  // Both buffers are consumed: recycle them for the next message.
  BufferPool::global().release(std::move(view.header));
  BufferPool::global().release(std::move(msg.payload));
}

void write_control(int fd, std::mutex& write_mutex, ControlCode code) {
  std::uint64_t lens[2] = {kControlTag, static_cast<std::uint64_t>(code)};
  struct iovec iov[1];
  iov[0] = {lens, sizeof(lens)};
  std::lock_guard<std::mutex> lock(write_mutex);
  writev_all(fd, iov, 1);
}

ReadStatus read_frame(int fd, std::vector<std::uint8_t>& header_scratch,
                      Message& out, ControlCode& out_control) {
  std::uint64_t lens[2] = {0, 0};
  if (!read_exact(fd, lens, sizeof(lens))) return ReadStatus::kClosed;
  if (lens[0] == kControlTag) {
    out_control = static_cast<ControlCode>(lens[1]);
    return ReadStatus::kControl;
  }
  GE_REQUIRE(lens[0] <= kMaxHeaderBytes,
             "frame header length " + std::to_string(lens[0]) +
                 " exceeds " + std::to_string(kMaxHeaderBytes));
  header_scratch.resize(lens[0]);
  if (!read_exact(fd, header_scratch.data(), lens[0])) {
    return ReadStatus::kClosed;
  }
  std::uint64_t expected = 0;
  out = Message::decode_header(header_scratch, &expected);
  GE_REQUIRE(expected == lens[1], "frame payload length mismatch");
  // The payload is read straight into a pool-recycled buffer that becomes
  // msg.payload — no flat frame, no second copy. Past the first chunk the
  // buffer doubles only as bytes arrive, so a length the peer never sends
  // costs at most twice what it did send.
  const std::uint64_t len = lens[1];
  std::vector<std::uint8_t> payload =
      BufferPool::global().acquire(std::min(len, kPayloadChunkBytes));
  std::uint64_t have = 0;
  while (have < len) {
    const std::uint64_t next =
        std::min(len, std::max(2 * have, kPayloadChunkBytes));
    payload.resize(next);
    if (!read_exact(fd, payload.data() + have, next - have)) {
      BufferPool::global().release(std::move(payload));
      return ReadStatus::kClosed;
    }
    have = next;
  }
  out.payload = std::move(payload);
  return ReadStatus::kMessage;
}

}  // namespace ppr::frame_io
