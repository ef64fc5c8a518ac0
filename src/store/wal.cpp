#include "store/wal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/serialize.h"
#include "store/crc32c.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace btcfast::store {
namespace {

/// Real file: buffered stdio appends + fflush/fsync on sync().
class PosixFile final : public AppendFile {
 public:
  explicit PosixFile(std::FILE* f, std::uint64_t size) : f_(f), size_(size) {}
  ~PosixFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  bool append(ByteSpan data) override {
    if (f_ == nullptr) return false;
    if (std::fwrite(data.data(), 1, data.size(), f_) != data.size()) return false;
    size_ += data.size();
    return true;
  }

  bool sync() override {
    if (f_ == nullptr) return false;
    if (std::fflush(f_) != 0) return false;
#if defined(_WIN32)
    return _commit(_fileno(f_)) == 0;
#else
    return ::fsync(fileno(f_)) == 0;
#endif
  }

  bool flush() override { return f_ != nullptr && std::fflush(f_) == 0; }

  [[nodiscard]] std::uint64_t size() const override { return size_; }

 private:
  std::FILE* f_;
  std::uint64_t size_;
};

std::uint32_t load_u32le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t load_u64le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         static_cast<std::uint64_t>(load_u32le(p + 4)) << 32;
}

}  // namespace

std::uint32_t wal_record_crc(std::uint64_t seq, ByteSpan payload) noexcept {
  std::uint8_t seq_le[8];
  for (int i = 0; i < 8; ++i) seq_le[i] = static_cast<std::uint8_t>(seq >> (8 * i));
  return crc32c(payload, crc32c({seq_le, 8}));
}

std::unique_ptr<AppendFile> open_append_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return nullptr;
  std::uint64_t size = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long pos = std::ftell(f);
    if (pos > 0) size = static_cast<std::uint64_t>(pos);
  }
  return std::make_unique<PosixFile>(f, size);
}

void append_wal_header(Bytes& out) {
  Writer w;
  w.u32le(kWalMagic);
  w.u32le(kWalVersion);
  append(out, w.data());
}

void append_wal_record(Bytes& out, std::uint64_t seq, ByteSpan payload) {
  Writer w;
  w.reserve(kWalRecordHeaderSize + payload.size());
  w.u32le(static_cast<std::uint32_t>(payload.size()));
  w.u32le(wal_record_crc(seq, payload));
  w.u64le(seq);
  w.bytes(payload);
  append(out, w.data());
}

Wal::Wal(std::unique_ptr<AppendFile> file, WalOptions options, std::uint64_t next_seq,
         bool write_header)
    : file_(std::move(file)), options_(options), next_seq_(next_seq) {
  if (write_header) {
    append_wal_header(buffer_);
    header_prefix_ = buffer_.size();
  }
}

std::uint64_t Wal::append(ByteSpan payload) {
  const std::uint64_t seq = next_seq_++;
  append_wal_record(buffer_, seq, payload);
  ++buffered_records_;
  ++appends_;
  return seq;
}

bool Wal::commit() {
  if (!buffer_.empty()) {
    if (file_ == nullptr || !file_->append(buffer_)) return false;
    bytes_written_ += buffer_.size();
    unsynced_records_ += buffered_records_;
    if (tap_ && buffered_records_ > 0) {
      // Hand the observer exactly the record bytes that just landed —
      // minus the file header a fresh segment's first commit carries.
      tap_(next_seq_ - buffered_records_, buffered_records_,
           ByteSpan{buffer_.data() + header_prefix_, buffer_.size() - header_prefix_});
    }
    buffer_.clear();
    header_prefix_ = 0;
    buffered_records_ = 0;
    ++commits_;
  }
  const bool want_sync =
      options_.policy == FsyncPolicy::kAlways ||
      (options_.policy == FsyncPolicy::kBatch && unsynced_records_ >= options_.batch_records);
  if (want_sync && unsynced_records_ > 0) {
    if (file_ == nullptr || !file_->sync()) return false;
    ++syncs_;
    unsynced_records_ = 0;
  }
  return true;
}

bool Wal::flush_os() { return file_ != nullptr && file_->flush(); }

bool Wal::sync() {
  if (!commit()) return false;
  if (unsynced_records_ > 0 || options_.policy == FsyncPolicy::kNone) {
    if (file_ == nullptr || !file_->sync()) return false;
    ++syncs_;
    unsynced_records_ = 0;
  }
  return true;
}

WalScan scan_wal(ByteSpan data, std::uint64_t expect_first_seq) {
  WalScan out;
  if (data.empty()) return out;  // never written: an empty log
  if (data.size() < kWalHeaderSize) {
    out.truncated_tail = true;  // crash mid-header
    return out;
  }
  if (load_u32le(data.data()) != kWalMagic || load_u32le(data.data() + 4) != kWalVersion) {
    out.error = "bad wal header";
    return out;
  }
  std::size_t pos = kWalHeaderSize;
  out.valid_bytes = pos;
  std::uint64_t expect_seq = expect_first_seq;
  while (pos < data.size()) {
    const std::size_t remaining = data.size() - pos;
    if (remaining < kWalRecordHeaderSize) {
      out.truncated_tail = true;  // torn record header
      return out;
    }
    const std::uint32_t len = load_u32le(data.data() + pos);
    const std::uint32_t crc = load_u32le(data.data() + pos + 4);
    const std::uint64_t seq = load_u64le(data.data() + pos + 8);
    if (remaining - kWalRecordHeaderSize < len) {
      out.truncated_tail = true;  // torn payload
      return out;
    }
    if (len > kMaxWalPayload) {
      // A length this absurd can't come from our writer; with the rest
      // of the record "present", this is corruption, not a crash.
      out.error = "oversize record length at offset " + std::to_string(pos);
      return out;
    }
    const ByteSpan payload{data.data() + pos + kWalRecordHeaderSize, len};
    const std::size_t end = pos + kWalRecordHeaderSize + len;
    if (wal_record_crc(seq, payload) != crc) {
      if (end == data.size()) {
        out.truncated_tail = true;  // torn final record (partial write)
        return out;
      }
      out.error = "checksum mismatch at offset " + std::to_string(pos) + " (mid-log)";
      return out;
    }
    if (expect_seq != 0 && seq != expect_seq) {
      std::ostringstream os;
      os << "sequence break at offset " << pos << ": got " << seq << ", want " << expect_seq;
      out.error = os.str();
      return out;
    }
    expect_seq = seq + 1;
    out.records.push_back(WalRecord{seq, Bytes(payload.begin(), payload.end())});
    pos = end;
    out.valid_bytes = pos;
  }
  return out;
}

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) return std::nullopt;
  Bytes data(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()), size);
  data.resize(static_cast<std::size_t>(in.gcount()));
  return data;
}

WalScan scan_wal_file(const std::string& path, std::uint64_t expect_first_seq) {
  const auto data = read_file(path);
  if (!data) return WalScan{};  // missing file: empty log
  return scan_wal(*data, expect_first_seq);
}

WalWindowScan scan_wal_file_window(const std::string& path, std::uint64_t offset,
                                   std::uint64_t expect_first_seq, std::size_t max_records) {
  WalWindowScan out;
  out.end_offset = offset;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.at_eof = true;  // missing file: empty log
    return out;
  }
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());

  if (offset == 0) {
    if (file_size < kWalHeaderSize) {
      out.at_eof = true;  // crash mid-header: nothing durable here
      return out;
    }
    std::uint8_t hdr[kWalHeaderSize];
    in.seekg(0);
    if (!in.read(reinterpret_cast<char*>(hdr), kWalHeaderSize)) {
      out.error = "cannot read wal header";
      return out;
    }
    if (load_u32le(hdr) != kWalMagic || load_u32le(hdr + 4) != kWalVersion) {
      out.error = "bad wal header";
      return out;
    }
    out.end_offset = kWalHeaderSize;
  } else {
    in.seekg(static_cast<std::streamoff>(offset));
  }

  std::uint64_t expect_seq = expect_first_seq;
  while (out.records.size() < max_records) {
    const std::uint64_t pos = out.end_offset;
    if (pos + kWalRecordHeaderSize > file_size) {
      out.at_eof = true;  // clean end, or a torn record header
      return out;
    }
    std::uint8_t rhdr[kWalRecordHeaderSize];
    if (!in.read(reinterpret_cast<char*>(rhdr), kWalRecordHeaderSize)) {
      out.error = "short read at offset " + std::to_string(pos);
      return out;
    }
    const std::uint32_t len = load_u32le(rhdr);
    const std::uint32_t crc = load_u32le(rhdr + 4);
    const std::uint64_t seq = load_u64le(rhdr + 8);
    if (len > kMaxWalPayload) {
      out.error = "oversize record length at offset " + std::to_string(pos);
      return out;
    }
    const std::uint64_t end = pos + kWalRecordHeaderSize + len;
    if (end > file_size) {
      out.at_eof = true;  // torn payload at the tail
      return out;
    }
    Bytes payload(len);
    if (len > 0 && !in.read(reinterpret_cast<char*>(payload.data()), len)) {
      out.error = "short read at offset " + std::to_string(pos);
      return out;
    }
    if (wal_record_crc(seq, ByteSpan{payload.data(), payload.size()}) != crc) {
      if (end == file_size) {
        out.at_eof = true;  // torn final record (partial write)
        return out;
      }
      out.error = "checksum mismatch at offset " + std::to_string(pos) + " (mid-log)";
      return out;
    }
    if (expect_seq != 0 && seq != expect_seq) {
      std::ostringstream os;
      os << "sequence break at offset " << pos << ": got " << seq << ", want " << expect_seq;
      out.error = os.str();
      return out;
    }
    expect_seq = seq + 1;
    out.records.push_back(WalRecord{seq, std::move(payload)});
    out.end_offset = end;
  }
  return out;
}

}  // namespace btcfast::store
