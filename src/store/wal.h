// Append-only write-ahead log. On-disk format:
//
//   file   := header record*
//   header := u32le magic "BFW1" | u32le version
//   record := u32le payload_len | u32le crc32c(seq_le || payload)
//           | u64le seq | payload
//
// Sequence numbers are assigned by the writer and must be contiguous —
// they are the cross-segment ordering and the duplicate/skip detector.
// Appends accumulate in a user-space buffer; commit() writes the batch
// in one syscall and fsyncs per FsyncPolicy (group commit). The reader
// distinguishes two corruption classes:
//
//   torn tail  — the file ends mid-record, or the final record's
//                checksum fails: the expected crash signature. The valid
//                prefix is returned and `truncated_tail` is set.
//   mid-log    — a checksum or sequence violation with more data after
//                it: silent corruption, never a crash artifact. The scan
//                fails closed (`error` nonempty) so recovery refuses to
//                build state from a log it cannot trust.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace btcfast::store {

inline constexpr std::uint32_t kWalMagic = 0x31574642;  // "BFW1" little-endian
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderSize = 8;
inline constexpr std::size_t kWalRecordHeaderSize = 16;
inline constexpr std::size_t kMaxWalPayload = 1u << 24;

/// Minimal append-only file abstraction so tests can substitute a
/// fault-injecting in-memory file (store::FaultFile) for the real thing.
class AppendFile {
 public:
  virtual ~AppendFile() = default;
  /// Append `data` at the end; false on IO error (or injected fault).
  virtual bool append(ByteSpan data) = 0;
  /// Flush to stable storage; false on IO error (or injected fault).
  virtual bool sync() = 0;
  /// Flush user-space buffers to the OS *without* forcing durability, so
  /// a concurrent reader of the same path sees every committed byte. The
  /// ship/catch-up read path needs this; in-memory test files are
  /// already "visible" and keep the no-op default.
  virtual bool flush() { return true; }
  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

/// Open (create or append-to) a real file on disk.
[[nodiscard]] std::unique_ptr<AppendFile> open_append_file(const std::string& path);

enum class FsyncPolicy : std::uint8_t {
  kAlways,  ///< fsync on every commit() — strongest durability
  kBatch,   ///< fsync once at least `batch_records` appends accumulated
  kNone,    ///< never fsync (tests/benchmarks; OS decides when data lands)
};

struct WalOptions {
  FsyncPolicy policy = FsyncPolicy::kBatch;
  std::size_t batch_records = 32;  ///< kBatch: records per fsync
};

/// Low-level framing, shared with the scan path, tests and fuzzers.
void append_wal_header(Bytes& out);
void append_wal_record(Bytes& out, std::uint64_t seq, ByteSpan payload);

/// The framed-record CRC: crc32c(seq_le || payload). Exposed so the
/// replication layer can re-verify shipped frames without re-framing.
[[nodiscard]] std::uint32_t wal_record_crc(std::uint64_t seq, ByteSpan payload) noexcept;

/// Observer invoked inside commit() after the batch reached the file:
/// (first_seq, count, framed) where `framed` is the batch's record bytes
/// exactly as written (file header excluded). Runs under the owning
/// store's mutex — it must only copy/buffer, never call back into the
/// store. This is the primary-side shipping seam.
using CommitTap = std::function<void(std::uint64_t first_seq, std::size_t count, ByteSpan framed)>;

/// Writer half. Not thread-safe — the owning DurableStore serializes
/// access. `next_seq` seeds the sequence counter (recovery resumes past
/// the replayed suffix); pass `write_header` false only when appending
/// to an already-headered file.
class Wal {
 public:
  Wal(std::unique_ptr<AppendFile> file, WalOptions options, std::uint64_t next_seq,
      bool write_header = true);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frame `payload` into the commit buffer and return its sequence
  /// number. Nothing reaches the file until commit().
  std::uint64_t append(ByteSpan payload);

  /// Write the buffered batch in one append and fsync per policy.
  /// Returns false on IO failure (buffer is kept for retry).
  bool commit();

  /// commit() then force an fsync regardless of policy.
  bool sync();

  /// Flush committed bytes from user-space to the OS (no fsync), so a
  /// separate read of the segment path observes them.
  bool flush_os();

  /// Install the commit observer (nullptr to clear).
  void set_commit_tap(CommitTap tap) { tap_ = std::move(tap); }

  /// Highest sequence number committed to the file; 0 when none.
  [[nodiscard]] std::uint64_t committed_seq() const noexcept {
    return next_seq_ - buffered_records_ - 1;
  }

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] std::uint64_t appends() const noexcept { return appends_; }
  [[nodiscard]] std::uint64_t commits() const noexcept { return commits_; }
  [[nodiscard]] std::uint64_t syncs() const noexcept { return syncs_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] std::size_t buffered_records() const noexcept { return buffered_records_; }

 private:
  std::unique_ptr<AppendFile> file_;
  WalOptions options_;
  std::uint64_t next_seq_;
  Bytes buffer_;
  std::size_t header_prefix_ = 0;  ///< file-header bytes at buffer_'s front
  CommitTap tap_;
  std::size_t buffered_records_ = 0;
  std::size_t unsynced_records_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t bytes_written_ = 0;
};

struct WalRecord {
  std::uint64_t seq = 0;
  Bytes payload;
};

struct WalScan {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< prefix length covering `records`
  bool truncated_tail = false;    ///< crash signature: tail dropped
  std::string error;              ///< nonempty: mid-log corruption, fail closed

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Scan an in-memory WAL image. `expect_first_seq` pins the first
/// record's sequence number (0 = accept any start); later records must
/// each be exactly prev+1 — duplicates and skips fail closed.
[[nodiscard]] WalScan scan_wal(ByteSpan data, std::uint64_t expect_first_seq = 0);

/// A whole file in one sized read (what a failing read left unread is
/// cut off); nullopt when it cannot be opened.
[[nodiscard]] std::optional<Bytes> read_file(const std::string& path);

/// Scan a WAL file from disk. A missing file scans as empty (a store
/// that crashed before its first commit), a readable-but-corrupt one
/// reports through WalScan::error.
[[nodiscard]] WalScan scan_wal_file(const std::string& path, std::uint64_t expect_first_seq = 0);

/// One bounded step of a forward stream over a WAL file.
struct WalWindowScan {
  std::vector<WalRecord> records;
  std::uint64_t end_offset = 0;  ///< byte offset just past the last parsed record
  bool at_eof = false;           ///< no further complete record exists past end_offset
  std::string error;             ///< nonempty: mid-log corruption, fail closed

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Bounded, resumable file scan: parse at most `max_records` records
/// starting at byte `offset` and stop — unlike scan_wal_file, the cost
/// is the window, not the whole segment, which is what makes forward
/// streaming over a large log linear instead of quadratic. `offset`
/// must be a record boundary obtained from a prior scan's end_offset
/// (pass 0 to start at the front; the file header is then validated).
/// `expect_first_seq` pins the first record exactly like scan_wal. A
/// record torn at the file's end reports at_eof, not an error — the
/// caller's committed-sequence bound is what fences live tails.
[[nodiscard]] WalWindowScan scan_wal_file_window(const std::string& path, std::uint64_t offset,
                                                 std::uint64_t expect_first_seq,
                                                 std::size_t max_records);

}  // namespace btcfast::store
