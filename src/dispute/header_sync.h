// The light client's header tree (DESIGN.md §14): the one header-only
// view of Bitcoin in the repo, for the watchtower and for any device that
// can't run a full node (a merchant's point-of-sale terminal).
//
// HeaderSyncManager keeps every valid header it has ever seen, not just
// the active spine. PoW is checked per header against the chain's
// pow_limit (and, under static difficulty, the exact genesis bits);
// cumulative work decides the best tip; parent links stay queryable,
// which is what reorg *depth* accounting needs. On that tree it can
// (a) catch up from its Bitcoin node with exponentially-spaced block
// locators (the P2P getheaders idiom), (b) follow the heaviest chain
// across reorgs while *measuring* them, refusing any reorg deeper than
// the consensus bound `Chain::max_reorg_depth`, (c) mint checkpoint
// advancement chains for `PayJudger::updateCheckpoint` so dispute
// anchors stay fresh without ever feeding the contract a header that
// later reorgs out, and (d) watch txids and count their confirmations
// from Merkle inclusion proofs — exactly the trust model PayJudger
// itself uses.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "btc/chain.h"
#include "btc/header.h"
#include "btc/params.h"
#include "btc/spv.h"
#include "btcfast/dispute_hooks.h"
#include "common/result.h"

namespace btcfast::store {
class DurableStore;
struct StateImage;
}  // namespace btcfast::store

namespace btcfast::dispute {

/// Outcome of one accept_headers() batch.
struct SyncResult {
  std::size_t connected = 0;       ///< headers appended to the tree
  std::size_t known = 0;           ///< duplicates we already had
  std::size_t orphaned = 0;        ///< parent unknown (caller should widen the locator)
  std::size_t rejected = 0;        ///< bad PoW / bad target / bad static bits
  std::uint32_t reorg_depth = 0;   ///< blocks disconnected from the old best tip
  bool reorg_refused = false;      ///< a heavier branch exceeded max_reorg_depth
};

struct SyncStats {
  std::uint64_t headers_connected = 0;
  std::uint64_t headers_rejected = 0;
  std::uint64_t reorgs = 0;
  std::uint32_t deepest_reorg = 0;
  std::uint64_t sync_rounds = 0;
};

class HeaderSyncManager final : public core::CheckpointSource {
 public:
  struct Config {
    /// Max headers pulled per sync round (P2P headers message cap).
    std::size_t batch_size = 2000;
    /// Refuse to follow a heavier branch that would disconnect more than
    /// this many blocks from our best tip. One day of blocks — matches
    /// the contract's evidence cap, and comfortably above any
    /// Chain::max_reorg_depth() a healthy node reports.
    std::uint32_t max_reorg_depth = 144;
    /// Stay this many blocks behind tip when advancing the checkpoint,
    /// so a checkpoint never reorgs out within the consensus bound.
    std::uint32_t checkpoint_lag = 6;
    /// Contract-side cap on headers per updateCheckpoint call.
    std::size_t max_checkpoint_step = 144;
  };

  /// Roots the tree at the params' genesis header.
  explicit HeaderSyncManager(btc::ChainParams params);
  HeaderSyncManager(btc::ChainParams params, Config config);

  /// Ingest a batch of headers (from a node or from the network); links
  /// them into the tree, switches to the heaviest valid branch, and
  /// reports reorg depth. Never throws on junk input.
  SyncResult accept_headers(const std::vector<btc::BlockHeader>& headers);

  /// Exponentially-spaced locator starting at our best tip (step 1 for
  /// the last 10, then doubling), always ending with the genesis hash.
  [[nodiscard]] std::vector<btc::BlockHash> locator() const;

  /// Serve side of the locator protocol: headers of `source`'s active
  /// chain after the highest locator entry it recognizes (genesis if
  /// none), at most `max_count`.
  [[nodiscard]] static std::vector<btc::BlockHeader> headers_after(
      const btc::Chain& source, const std::vector<btc::BlockHash>& loc,
      std::size_t max_count);

  /// One locator round-trip against a local node's chain. Returns the
  /// batch result (connected == 0 means we are caught up).
  SyncResult sync_round(const btc::Chain& source);

  /// Loop sync_round until caught up; returns rounds taken.
  std::size_t sync_from(const btc::Chain& source);

  // --- best-chain queries ---
  [[nodiscard]] btc::BlockHash tip_hash() const noexcept { return best_tip_; }
  [[nodiscard]] std::uint32_t tip_height() const noexcept;
  [[nodiscard]] crypto::U256 tip_work() const;
  [[nodiscard]] bool contains(const btc::BlockHash& hash) const {
    return index_.contains(hash);
  }
  /// Height of a header in the tree (any branch), if known.
  [[nodiscard]] std::optional<std::uint32_t> height_of(const btc::BlockHash& hash) const;
  /// True iff `hash` is on the current best chain.
  [[nodiscard]] bool on_best_chain(const btc::BlockHash& hash) const;
  /// Best-chain header at `height`.
  [[nodiscard]] std::optional<btc::BlockHeader> header_at(std::uint32_t height) const;

  // --- tx watching via SPV proofs ---
  void watch(const btc::Txid& txid) { watched_.try_emplace(txid); }
  [[nodiscard]] bool is_watching(const btc::Txid& txid) const { return watched_.contains(txid); }
  /// Accept an inclusion proof for a watched txid (spv-not-watching
  /// otherwise). The proving header must already be in the tree
  /// (spv-unknown-header), on any branch: a proof on a side branch counts
  /// once that branch wins. A branch that does not reach the header's
  /// merkle root is spv-bad-proof.
  Status submit_proof(const btc::TxInclusionProof& proof);
  /// Confirmations of a watched txid on the best chain: 0 if no proof was
  /// accepted or its block is off the best chain (reorged away).
  [[nodiscard]] std::uint32_t confirmations(const btc::Txid& txid) const;

  // --- checkpoint advancement ---
  /// Contiguous best-chain headers (anchor, tip_height - checkpoint_lag]
  /// starting just after `current_checkpoint`, capped at
  /// max_checkpoint_step — ready for encode_checkpoint_args. Empty when
  /// the anchor is unknown/off-best or there is nothing (safe) to file.
  /// (core::CheckpointSource)
  [[nodiscard]] std::vector<btc::BlockHeader> checkpoint_advance(
      const btc::BlockHash& current_checkpoint) const override;

  // --- durable persistence ---
  /// Attach a durable store: every header accept_headers() connects from
  /// now on is logged as a kHeaderAccept record (one commit per batch),
  /// so a watchtower restart rebuilds the tree from its own WAL instead
  /// of re-syncing from genesis. Logging is best-effort — an append
  /// failure costs a re-sync after restart, never a wrong tree.
  void attach_store(store::DurableStore* store) noexcept { store_ = store; }
  /// Rebuild the tree from a recovered image's header log. Headers were
  /// persisted in connection order (parent-first), so one sequential
  /// re-accept reconnects everything. Store logging is suppressed — the
  /// records are already in the log. Returns headers reconnected.
  std::size_t restore(const store::StateImage& image);

  [[nodiscard]] const SyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t tree_size() const noexcept { return index_.size(); }
  [[nodiscard]] const btc::ChainParams& params() const noexcept { return params_; }

 private:
  struct Entry {
    btc::BlockHeader header;
    std::uint32_t height = 0;
    crypto::U256 chain_work;
  };

  /// Walk ancestors of `a` and `b` (same height) to their fork point;
  /// returns the number of blocks disconnected below the old tip.
  [[nodiscard]] std::uint32_t reorg_depth_to(const btc::BlockHash& new_tip) const;
  void rebuild_best_spine();

  btc::ChainParams params_;
  Config config_;
  std::unordered_map<btc::BlockHash, Entry, btc::Hash256Hasher> index_;
  std::vector<btc::BlockHash> best_spine_;  ///< best chain by height, [0] = genesis
  btc::BlockHash best_tip_{};
  SyncStats stats_;
  store::DurableStore* store_ = nullptr;
  /// watched txid -> block hash of its accepted proof (zero hash = none).
  std::unordered_map<btc::Txid, btc::BlockHash, btc::Hash256Hasher> watched_;
};

/// Locator wire codec (watchtower <-> node catch-up messages): u16le
/// count followed by 32-byte hashes. Decoder tolerates arbitrary junk.
[[nodiscard]] Bytes serialize_locator(const std::vector<btc::BlockHash>& loc);
[[nodiscard]] std::optional<std::vector<btc::BlockHash>> deserialize_locator(ByteSpan data);

}  // namespace btcfast::dispute
