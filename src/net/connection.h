// One TCP connection to the gateway front end: a non-blocking fd, the
// incremental frame assembler on the read side, and a bounded write
// buffer on the response side. The class owns no event loop — the server
// (or a test harness over a socketpair) calls on_readable/on_writable
// when the fd is ready and check_timeout on its sweep tick, passing time
// in explicitly. That keeps every timeout and buffering decision
// reproducible under a fake clock.
//
// Backpressure contract:
//   - reads stop (wants_read() == false) while the write buffer sits
//     above the soft watermark, or during an explicit shed backoff window
//     (pause_reads_until) after the gateway shed every frame this
//     connection sent in one poll;
//   - queue_response refuses once the hard cap would be exceeded — the
//     server then disconnects, so a client that never drains responses
//     costs one bounded buffer, never unbounded memory;
//   - a partially received frame must complete within frame_timeout_ms of
//     its first byte (slow-loris: dripping a header one byte per poll
//     resets no deadline), and a silent connection dies after
//     idle_timeout_ms.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "net/frame_assembler.h"

namespace btcfast::net {

struct ConnConfig {
  std::size_t max_frame_payload = gateway::kMaxFramePayload;
  /// recv() chunk size per call.
  std::size_t read_chunk = 16 * 1024;
  /// Hard cap on buffered response bytes: exceeding it disconnects.
  std::size_t write_buffer_hard = 1u << 20;
  /// Soft watermark: stop reading new requests above this.
  std::size_t write_buffer_soft = 256u * 1024;
  /// Close a connection with no received bytes for this long.
  std::uint64_t idle_timeout_ms = 30'000;
  /// A started frame must complete within this of its first byte.
  std::uint64_t frame_timeout_ms = 5'000;
  /// Kernel send-buffer size to request (0 = leave the default). Small
  /// values make write-stall behaviour testable without megabytes of
  /// kernel buffering in the way.
  int so_sndbuf = 0;
};

class Connection {
 public:
  /// Takes ownership of `fd` (closed on destruction) and switches it to
  /// non-blocking. `peer` is the remote address used for ban scoring.
  Connection(int fd, std::string peer, ConnConfig config, std::uint64_t now_ms);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  struct ReadEvent {
    std::vector<Bytes> frames;  ///< complete frames, in arrival order
    bool eof = false;           ///< peer closed (or fatal socket error)
    bool framing_error = false;
    std::uint64_t framing_error_rid = 0;  ///< echoed in the error response
    FrameAssembler::Error framing_kind = FrameAssembler::Error::kNone;
  };

  /// Drain the socket (until EAGAIN/EOF/poison) through the assembler.
  [[nodiscard]] ReadEvent on_readable(std::uint64_t now_ms);

  /// Queue an encoded response frame. Returns false when the hard cap is
  /// exceeded — the frame is NOT queued and the caller must disconnect.
  [[nodiscard]] bool queue_response(ByteSpan frame);

  enum class WriteResult {
    kDrained,  ///< write buffer empty
    kAgain,    ///< kernel buffer full; keep EPOLLOUT
    kError,    ///< fatal socket error; disconnect
  };
  [[nodiscard]] WriteResult on_writable();

  [[nodiscard]] bool wants_write() const noexcept { return write_pos_ < write_buf_.size(); }
  [[nodiscard]] std::size_t write_buffered() const noexcept {
    return write_buf_.size() - write_pos_;
  }
  /// Readable unless backpressured (soft watermark / shed backoff) or
  /// marked for close.
  [[nodiscard]] bool wants_read(std::uint64_t now_ms) const noexcept {
    return !close_after_flush_ && now_ms >= paused_until_ms_ &&
           write_buffered() <= config_.write_buffer_soft;
  }
  void pause_reads_until(std::uint64_t until_ms) noexcept { paused_until_ms_ = until_ms; }
  [[nodiscard]] std::uint64_t paused_until() const noexcept { return paused_until_ms_; }

  /// Stop reading, flush what is queued, then let the server close.
  void mark_close_after_flush() noexcept { close_after_flush_ = true; }
  [[nodiscard]] bool close_after_flush() const noexcept { return close_after_flush_; }

  enum class TimeoutKind { kNone, kIdle, kFrameStall };
  [[nodiscard]] TimeoutKind check_timeout(std::uint64_t now_ms) const noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const std::string& peer() const noexcept { return peer_; }
  [[nodiscard]] const FrameAssembler& assembler() const noexcept { return assembler_; }
  [[nodiscard]] std::uint64_t bytes_in() const noexcept { return bytes_in_; }
  [[nodiscard]] std::uint64_t bytes_out() const noexcept { return bytes_out_; }

 private:
  int fd_;
  std::string peer_;
  ConnConfig config_;
  FrameAssembler assembler_;

  /// Flat write buffer with a consumed prefix, compacted when drained.
  Bytes write_buf_;
  std::size_t write_pos_ = 0;

  std::uint64_t last_activity_ms_;     ///< last byte received
  std::uint64_t frame_started_ms_ = 0; ///< first byte of the partial frame (0 = none)
  std::uint64_t paused_until_ms_ = 0;
  bool close_after_flush_ = false;

  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

}  // namespace btcfast::net
