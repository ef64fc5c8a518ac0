#include "store/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "btc/spv.h"
#include "common/serialize.h"
#include "store/crc32c.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace btcfast::store {
namespace {

constexpr std::size_t kMaxEntries = 1u << 22;
constexpr std::size_t kMaxBlob = 1u << 20;

void write_txid(Writer& w, const ByteArray<32>& txid) { w.bytes({txid.data(), txid.size()}); }

bool read_txid(Reader& r, ByteArray<32>& out) {
  const auto b = r.bytes(32);
  if (!b) return false;
  std::copy(b->begin(), b->end(), out.begin());
  return true;
}

/// First reservation with id >= `id` (the vector is held in id order).
std::vector<ReservationImage>::iterator find_reservation(StateImage& image, ReservationId id) {
  return std::lower_bound(
      image.reservations.begin(), image.reservations.end(), id,
      [](const ReservationImage& r, ReservationId want) { return r.id < want; });
}

}  // namespace

Bytes StateImage::serialize() const {
  // Canonical order, so logically equal images are byte-identical
  // regardless of insertion history: reservations are held in id order
  // already, open disputes are sorted here.
  auto dis = open_disputes;
  std::sort(dis.begin(), dis.end(), [](const DisputeImage& a, const DisputeImage& b) {
    if (a.escrow_id != b.escrow_id) return a.escrow_id < b.escrow_id;
    return std::lexicographical_compare(a.txid.begin(), a.txid.end(), b.txid.begin(),
                                        b.txid.end());
  });

  Writer w;
  w.u64le(last_seq);
  w.u64le(released_count);
  w.u64le(resolved_disputes);
  w.varint(reservations.size());
  for (const auto& r : reservations) {
    w.u64le(r.id);
    w.u64le(r.escrow_id);
    w.u64le(r.amount);
    w.u64le(r.expires_at_ms);
    write_txid(w, r.txid);
    w.u64le(r.accepted_at_ms);
    w.bytes_with_len(r.package);
    w.bytes_with_len(r.invoice);
  }
  w.varint(dis.size());
  for (const auto& d : dis) {
    w.u64le(d.escrow_id);
    write_txid(w, d.txid);
    w.u64le(d.amount);
    w.u64le(d.deadline_ms);
  }
  w.u64le(epoch);
  // Headers stay in connection order — not sorted — because replay
  // re-accepts them sequentially and children must follow parents.
  w.varint(headers.size());
  for (const auto& h : headers) w.bytes({h.data(), h.size()});
  return std::move(w).take();
}

std::optional<StateImage> StateImage::deserialize(ByteSpan data) {
  Reader r(data);
  StateImage img;
  const auto last_seq = r.u64le();
  const auto released = r.u64le();
  const auto resolved = r.u64le();
  if (!last_seq || !released || !resolved) return std::nullopt;
  img.last_seq = *last_seq;
  img.released_count = *released;
  img.resolved_disputes = *resolved;

  const auto n_res = r.varint();
  if (!n_res || *n_res > kMaxEntries) return std::nullopt;
  img.reservations.reserve(static_cast<std::size_t>(*n_res));
  for (std::uint64_t i = 0; i < *n_res; ++i) {
    ReservationImage res;
    const auto id = r.u64le();
    const auto eid = r.u64le();
    const auto amount = r.u64le();
    const auto expires = r.u64le();
    if (!id || !eid || !amount || !expires || !read_txid(r, res.txid)) return std::nullopt;
    const auto at = r.u64le();
    auto package = r.bytes_with_len(kMaxBlob);
    auto invoice = r.bytes_with_len(kMaxBlob);
    if (!at || !package || !invoice) return std::nullopt;
    // Ids strictly increase: a duplicate or unsorted image is corrupt.
    if (!img.reservations.empty() && *id <= img.reservations.back().id) return std::nullopt;
    res.id = *id;
    res.escrow_id = *eid;
    res.amount = *amount;
    res.expires_at_ms = *expires;
    res.accepted_at_ms = *at;
    res.package = std::move(*package);
    res.invoice = std::move(*invoice);
    img.reservations.push_back(std::move(res));
  }

  const auto n_dis = r.varint();
  if (!n_dis || *n_dis > kMaxEntries) return std::nullopt;
  img.open_disputes.reserve(static_cast<std::size_t>(*n_dis));
  for (std::uint64_t i = 0; i < *n_dis; ++i) {
    DisputeImage dis;
    const auto eid = r.u64le();
    if (!eid || !read_txid(r, dis.txid)) return std::nullopt;
    const auto amount = r.u64le();
    const auto deadline = r.u64le();
    if (!amount || !deadline) return std::nullopt;
    dis.escrow_id = *eid;
    dis.amount = *amount;
    dis.deadline_ms = *deadline;
    img.open_disputes.push_back(std::move(dis));
  }

  const auto epoch = r.u64le();
  if (!epoch) return std::nullopt;
  img.epoch = *epoch;
  // The header log closes the body in serialize_headers framing.
  const auto run = btc::header_run(*r.span(r.remaining()));
  if (!run || run->size() / 80 > kMaxEntries) return std::nullopt;
  img.headers.resize(run->size() / 80);
  for (std::size_t i = 0; i < img.headers.size(); ++i) {
    std::copy_n(run->begin() + static_cast<std::ptrdiff_t>(i * 80), 80, img.headers[i].begin());
  }
  return img;
}

bool apply_record(StateImage& image, const StoreRecord& record, std::uint64_t seq) {
  switch (record.kind) {
    case RecordKind::kReserve: {
      const auto at = find_reservation(image, record.reservation_id);
      if (at != image.reservations.end() && at->id == record.reservation_id) {
        return false;  // double reserve
      }
      ReservationImage res;
      res.id = record.reservation_id;
      res.escrow_id = record.escrow_id;
      res.amount = record.amount;
      res.expires_at_ms = record.expires_at_ms;
      res.txid = record.txid;
      res.accepted_at_ms = record.accepted_at_ms;
      res.package = record.package;
      res.invoice = record.invoice;
      image.reservations.insert(at, std::move(res));
      break;
    }
    case RecordKind::kRelease: {
      const auto it = find_reservation(image, record.reservation_id);
      if (it == image.reservations.end() || it->id != record.reservation_id) {
        return false;  // release of unknown id
      }
      image.reservations.erase(it);
      ++image.released_count;
      break;
    }
    case RecordKind::kDisputeOpen: {
      for (const auto& d : image.open_disputes) {
        if (d.escrow_id == record.escrow_id && d.txid == record.txid) return false;
      }
      DisputeImage dis;
      dis.escrow_id = record.escrow_id;
      dis.txid = record.txid;
      dis.amount = record.amount;
      dis.deadline_ms = record.expires_at_ms;
      image.open_disputes.push_back(std::move(dis));
      break;
    }
    case RecordKind::kDisputeResolve: {
      auto it = std::find_if(image.open_disputes.begin(), image.open_disputes.end(),
                             [&](const DisputeImage& d) {
                               return d.escrow_id == record.escrow_id && d.txid == record.txid;
                             });
      if (it == image.open_disputes.end()) return false;  // resolve of unopened dispute
      image.open_disputes.erase(it);
      ++image.resolved_disputes;
      break;
    }
    case RecordKind::kEpochChange: {
      // Epochs only move forward; a replayed change to an equal or older
      // epoch means a stale primary's log leaked past the fence.
      if (record.epoch <= image.epoch) return false;
      image.epoch = record.epoch;
      break;
    }
    case RecordKind::kHeaderAccept: {
      for (const auto& h : image.headers) {
        if (h == record.header) return false;  // double-accept of a header
      }
      image.headers.push_back(record.header);
      break;
    }
    default:
      return false;
  }
  image.last_seq = seq;
  return true;
}

Bytes encode_snapshot(const StateImage& image) {
  const Bytes body = image.serialize();
  Writer covered;  // version || body — the checksummed region
  covered.u32le(kSnapshotVersion);
  covered.bytes(body);
  Writer w;
  w.reserve(8 + covered.size());
  w.u32le(kSnapshotMagic);
  w.u32le(crc32c(covered.data()));
  w.bytes(covered.data());
  return std::move(w).take();
}

std::optional<StateImage> decode_snapshot(ByteSpan data) {
  Reader r(data);
  const auto magic = r.u32le();
  const auto crc = r.u32le();
  if (!magic || !crc || *magic != kSnapshotMagic) return std::nullopt;
  const ByteSpan covered{data.data() + 8, data.size() - 8};
  if (crc32c(covered) != *crc) return std::nullopt;
  Reader body(covered);
  const auto version = body.u32le();
  if (!version || *version != kSnapshotVersion) return std::nullopt;
  return StateImage::deserialize({covered.data() + 4, covered.size() - 4});
}

bool write_snapshot(const std::string& path, const StateImage& image) {
  const Bytes encoded = encode_snapshot(image);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(encoded.data(), 1, encoded.size(), f) == encoded.size();
  bool synced = false;
  if (wrote) {
    if (std::fflush(f) == 0) {
#if defined(_WIN32)
      synced = _commit(_fileno(f)) == 0;
#else
      synced = ::fsync(fileno(f)) == 0;
#endif
    }
  }
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<StateImage> read_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return decode_snapshot(data);
}

}  // namespace btcfast::store
