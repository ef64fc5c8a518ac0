// Snapshots: periodic compaction of the replayed state so recovery cost
// stays proportional to the WAL suffix, not the deployment's lifetime.
// On-disk format:
//
//   u32le magic "BFS1" | u32le crc32c(version || body) | u32le version | body
//
// The body is StateImage::serialize() — canonical (entries sorted by
// key), so two images with the same logical content are byte-identical.
// That property is what the acceptance test leans on: a recovered store
// must serialize to exactly the bytes of a never-crashed control.
// Snapshots are written to a temp file and renamed into place; a torn
// snapshot never appears under its final name.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "store/records.h"

namespace btcfast::store {

inline constexpr std::uint32_t kSnapshotMagic = 0x31534642;  // "BFS1" little-endian
/// Bumped with every change to the body layout, so an image written in
/// an older layout fails closed instead of decoding as this one.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// A payment the gateway acked: the collateral held against its escrow
/// and the package + invoice that rebuild the merchant's book entry.
struct ReservationImage {
  ReservationId id = 0;
  EscrowId escrow_id = 0;
  std::uint64_t amount = 0;
  std::uint64_t expires_at_ms = 0;
  ByteArray<32> txid{};
  std::uint64_t accepted_at_ms = 0;
  Bytes package;  ///< opaque core::FastPayPackage encoding
  Bytes invoice;  ///< opaque core::Invoice encoding

  [[nodiscard]] bool operator==(const ReservationImage& o) const = default;
};

/// A dispute the watchtower observed open and not yet resolved.
struct DisputeImage {
  EscrowId escrow_id = 0;
  ByteArray<32> txid{};
  std::uint64_t amount = 0;
  std::uint64_t deadline_ms = 0;

  [[nodiscard]] bool operator==(const DisputeImage& o) const = default;
};

/// apply_record's duplicate-header lookup: a hash set of the first
/// `covered` entries of StateImage::headers, extended on use. Derived
/// data, so a copy starts empty and any two compare equal: it changes
/// neither an image's bytes nor its equality. A log shorter than
/// `covered` (a moved-from image) rebuilds it.
struct HeaderIndex {
  HeaderIndex() = default;
  HeaderIndex(const HeaderIndex&) noexcept {}
  HeaderIndex& operator=(const HeaderIndex&) noexcept { return *this = HeaderIndex{}; }
  HeaderIndex(HeaderIndex&&) = default;
  HeaderIndex& operator=(HeaderIndex&&) = default;
  [[nodiscard]] bool operator==(const HeaderIndex&) const noexcept { return true; }

  struct Hash {
    std::size_t operator()(const ByteArray<80>& h) const noexcept {
      return std::hash<std::string_view>{}({reinterpret_cast<const char*>(h.data()), h.size()});
    }
  };
  std::unordered_set<ByteArray<80>, Hash> set;
  std::size_t covered = 0;
};

/// The full durable state at one WAL position. apply_record() is the
/// single replay function — the live store and recovery both use it, so
/// a recovered image can never diverge from the in-memory one.
struct StateImage {
  std::uint64_t last_seq = 0;  ///< seq of the last applied record
  /// Held sorted by id (strictly increasing): apply_record keeps it so
  /// and deserialize() refuses any other order. A deque, because releases
  /// come oldest-first and erasing the front then moves nothing.
  std::deque<ReservationImage> reservations;
  std::vector<DisputeImage> open_disputes;
  // Cumulative history counters, so "byte-identical to the control run"
  // covers not just live entries but how many came and went.
  std::uint64_t released_count = 0;
  std::uint64_t resolved_disputes = 0;
  /// Replication epoch the writer of this state runs under. 0 until the
  /// first promotion; bumped only by kEpochChange records.
  std::uint64_t epoch = 0;
  /// Connected BTC headers the watchtower's sync tree accepted, in
  /// connection order (parent-first — the order is part of the logical
  /// content: restore re-accepts them sequentially).
  std::vector<ByteArray<80>> headers;
  HeaderIndex header_index;

  /// Canonical encoding: entries in key order, fixed field order.
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static std::optional<StateImage> deserialize(ByteSpan data);

  [[nodiscard]] bool operator==(const StateImage& o) const = default;
};

/// Apply one WAL record (payload already decoded) at sequence `seq`.
/// Returns false on an impossible transition — double-reserve of an id,
/// release of an unknown reservation, resolve of an unopened dispute —
/// which recovery treats as corruption and fails closed on.
[[nodiscard]] bool apply_record(StateImage& image, const StoreRecord& record, std::uint64_t seq);

[[nodiscard]] Bytes encode_snapshot(const StateImage& image);
/// Total decoder: any single flipped or missing byte fails it.
[[nodiscard]] std::optional<StateImage> decode_snapshot(ByteSpan data);

/// Write atomically: temp file in the same directory, fsync, rename.
[[nodiscard]] bool write_snapshot(const std::string& path, const StateImage& image);
[[nodiscard]] std::optional<StateImage> read_snapshot(const std::string& path);

}  // namespace btcfast::store
