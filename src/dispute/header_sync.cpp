#include "dispute/header_sync.h"

#include <algorithm>

#include "common/serialize.h"
#include "store/recovery.h"
#include "store/snapshot.h"

namespace btcfast::dispute {

HeaderSyncManager::HeaderSyncManager(btc::ChainParams params)
    : HeaderSyncManager(std::move(params), Config{}) {}

HeaderSyncManager::HeaderSyncManager(btc::ChainParams params, Config config)
    : params_(std::move(params)), config_(config) {
  const btc::BlockHeader genesis = btc::genesis_header(params_);
  Entry root;
  root.header = genesis;
  root.height = 0;
  root.chain_work = btc::header_work(genesis.bits);
  best_tip_ = genesis.hash();
  index_.emplace(best_tip_, std::move(root));
  best_spine_.push_back(best_tip_);
}

std::uint32_t HeaderSyncManager::tip_height() const noexcept {
  const auto it = index_.find(best_tip_);
  return it == index_.end() ? 0 : it->second.height;
}

crypto::U256 HeaderSyncManager::tip_work() const {
  const auto it = index_.find(best_tip_);
  return it == index_.end() ? crypto::U256::zero() : it->second.chain_work;
}

std::optional<std::uint32_t> HeaderSyncManager::height_of(const btc::BlockHash& hash) const {
  const auto it = index_.find(hash);
  if (it == index_.end()) return std::nullopt;
  return it->second.height;
}

bool HeaderSyncManager::on_best_chain(const btc::BlockHash& hash) const {
  const auto it = index_.find(hash);
  if (it == index_.end()) return false;
  const std::uint32_t h = it->second.height;
  return h < best_spine_.size() && best_spine_[h] == hash;
}

std::optional<btc::BlockHeader> HeaderSyncManager::header_at(std::uint32_t height) const {
  if (height >= best_spine_.size()) return std::nullopt;
  return index_.at(best_spine_[height]).header;
}

std::uint32_t HeaderSyncManager::reorg_depth_to(const btc::BlockHash& new_tip) const {
  // Walk the new tip's ancestry down to the first block that sits on the
  // current best spine; everything above that fork point on the old
  // chain gets disconnected.
  const std::uint32_t old_height = tip_height();
  auto it = index_.find(new_tip);
  while (it != index_.end()) {
    const Entry& e = it->second;
    if (e.height < best_spine_.size() && best_spine_[e.height] == it->first) {
      return old_height - e.height;  // fork point found
    }
    if (e.height == 0) break;
    it = index_.find(e.header.prev_hash);
  }
  // Disjoint ancestry (different genesis) — treat as a full disconnect.
  return old_height + 1;
}

void HeaderSyncManager::rebuild_best_spine() {
  std::vector<btc::BlockHash> spine;
  auto it = index_.find(best_tip_);
  while (it != index_.end()) {
    spine.push_back(it->first);
    if (it->second.height == 0) break;
    it = index_.find(it->second.header.prev_hash);
  }
  std::reverse(spine.begin(), spine.end());
  best_spine_ = std::move(spine);
}

SyncResult HeaderSyncManager::accept_headers(const std::vector<btc::BlockHeader>& headers) {
  SyncResult result;
  btc::BlockHash best_candidate = best_tip_;
  crypto::U256 best_candidate_work = tip_work();

  for (const btc::BlockHeader& h : headers) {
    const btc::BlockHash hash = h.hash();
    if (index_.contains(hash)) {
      ++result.known;
      continue;
    }
    const auto parent = index_.find(h.prev_hash);
    if (parent == index_.end()) {
      ++result.orphaned;
      continue;
    }
    // A header-only tree cannot validate retarget transitions without the
    // whole period; under static difficulty the bits must match exactly.
    const auto target = btc::bits_to_target(h.bits);
    if (!target || *target > params_.pow_limit ||
        (params_.retarget_interval == 0 && h.bits != params_.genesis_bits) ||
        !btc::check_proof_of_work(h, params_.pow_limit)) {
      ++result.rejected;
      ++stats_.headers_rejected;
      continue;
    }
    Entry e;
    e.header = h;
    e.height = parent->second.height + 1;
    e.chain_work = parent->second.chain_work + btc::header_work(h.bits);
    if (e.chain_work > best_candidate_work) {
      best_candidate = hash;
      best_candidate_work = e.chain_work;
    }
    index_.emplace(hash, std::move(e));
    ++result.connected;
    ++stats_.headers_connected;
    if (store_ != nullptr) {
      store::StoreRecord rec;
      rec.kind = store::RecordKind::kHeaderAccept;
      h.serialize_into(rec.header.data());
      (void)store_->append(rec);
    }
  }
  if (store_ != nullptr && result.connected > 0) (void)store_->commit();

  if (best_candidate != best_tip_) {
    const std::uint32_t depth = reorg_depth_to(best_candidate);
    if (depth > config_.max_reorg_depth) {
      // The heavier branch exists in the tree but we refuse to follow it
      // past the consensus bound — a reorg this deep means either an
      // attack or a broken source; either way defenses built on the old
      // spine stay valid and a human gets to look.
      result.reorg_refused = true;
    } else {
      best_tip_ = best_candidate;
      rebuild_best_spine();
      result.reorg_depth = depth;
      if (depth > 0) {
        ++stats_.reorgs;
        stats_.deepest_reorg = std::max(stats_.deepest_reorg, depth);
      }
    }
  }
  return result;
}

std::size_t HeaderSyncManager::restore(const store::StateImage& image) {
  store::DurableStore* saved = store_;
  store_ = nullptr;  // the records being replayed are already in the log
  std::vector<btc::BlockHeader> batch;
  batch.reserve(image.headers.size());
  for (const auto& raw : image.headers) {
    const auto h = btc::BlockHeader::deserialize(ByteSpan{raw.data(), raw.size()});
    if (h) batch.push_back(*h);
  }
  const SyncResult r = accept_headers(batch);
  store_ = saved;
  return r.connected;
}

Status HeaderSyncManager::submit_proof(const btc::TxInclusionProof& proof) {
  const auto watch_it = watched_.find(proof.txid);
  if (watch_it == watched_.end()) return make_error("spv-not-watching");
  const btc::BlockHash block_hash = proof.header.hash();
  if (!index_.contains(block_hash)) {
    return make_error("spv-unknown-header", "sync headers before proving");
  }
  if (!btc::verify_inclusion_proof(proof)) return make_error("spv-bad-proof");
  watch_it->second = block_hash;
  return Status::success();
}

std::uint32_t HeaderSyncManager::confirmations(const btc::Txid& txid) const {
  const auto it = watched_.find(txid);
  if (it == watched_.end() || !on_best_chain(it->second)) return 0;
  return tip_height() - index_.at(it->second).height + 1;
}

std::vector<btc::BlockHash> HeaderSyncManager::locator() const {
  std::vector<btc::BlockHash> loc;
  if (best_spine_.empty()) return loc;
  std::uint32_t step = 1;
  std::uint32_t h = static_cast<std::uint32_t>(best_spine_.size() - 1);
  while (true) {
    loc.push_back(best_spine_[h]);
    if (h == 0) break;
    if (loc.size() >= 10) step *= 2;  // dense near the tip, sparse behind
    h = (h > step) ? h - step : 0;
  }
  return loc;
}

std::vector<btc::BlockHeader> HeaderSyncManager::headers_after(
    const btc::Chain& source, const std::vector<btc::BlockHash>& loc,
    std::size_t max_count) {
  // The first locator entry the source recognizes on its active chain is
  // the sync point; everything after it is what the requester is missing.
  std::uint32_t start = 1;  // nothing matched: serve from just past genesis
  for (const btc::BlockHash& hash : loc) {
    if (!source.is_on_active_chain(hash)) continue;
    const auto height = source.block_height(hash);
    if (!height) continue;
    start = *height + 1;
    break;
  }
  if (start > source.height()) return {};
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::min<std::size_t>(max_count, source.height() - start + 1));
  return source.header_range(start, count);
}

SyncResult HeaderSyncManager::sync_round(const btc::Chain& source) {
  ++stats_.sync_rounds;
  SyncResult r = accept_headers(headers_after(source, locator(), config_.batch_size));
  // Equal-work ties break toward the source. Two branches of equal work
  // leave the best-chain choice ambiguous (accept_headers keeps the
  // first-seen one, as Bitcoin nodes do), but the node we sync from will
  // extend *its* tip, and checkpoints must anchor where the chain will
  // actually grow — so follow it, never past the reorg bound.
  const btc::BlockHash src_tip = source.tip_hash();
  if (src_tip != best_tip_) {
    const auto it = index_.find(src_tip);
    if (it != index_.end() && it->second.chain_work == tip_work()) {
      const std::uint32_t depth = reorg_depth_to(src_tip);
      if (depth <= config_.max_reorg_depth) {
        best_tip_ = src_tip;
        rebuild_best_spine();
        r.reorg_depth = std::max(r.reorg_depth, depth);
        if (depth > 0) {
          ++stats_.reorgs;
          stats_.deepest_reorg = std::max(stats_.deepest_reorg, depth);
        }
      }
    }
  }
  return r;
}

std::size_t HeaderSyncManager::sync_from(const btc::Chain& source) {
  std::size_t rounds = 0;
  while (true) {
    ++rounds;
    const SyncResult r = sync_round(source);
    if (r.connected == 0) break;
    if (rounds > 100000) break;  // defensive: a source that never converges
  }
  return rounds;
}

std::vector<btc::BlockHeader> HeaderSyncManager::checkpoint_advance(
    const btc::BlockHash& current_checkpoint) const {
  std::vector<btc::BlockHeader> advance;
  const auto it = index_.find(current_checkpoint);
  if (it == index_.end()) return advance;
  const std::uint32_t anchor_height = it->second.height;
  // The anchor must sit on our best chain — if it reorged out, filing on
  // top of it would extend a dead branch.
  if (anchor_height >= best_spine_.size() || best_spine_[anchor_height] != current_checkpoint) {
    return advance;
  }
  const std::uint32_t tip = tip_height();
  if (tip < config_.checkpoint_lag) return advance;
  const std::uint32_t safe_tip = tip - config_.checkpoint_lag;
  if (safe_tip <= anchor_height) return advance;
  const std::uint32_t count = std::min<std::uint32_t>(
      safe_tip - anchor_height, static_cast<std::uint32_t>(config_.max_checkpoint_step));
  advance.reserve(count);
  for (std::uint32_t h = anchor_height + 1; h <= anchor_height + count; ++h) {
    advance.push_back(index_.at(best_spine_[h]).header);
  }
  return advance;
}

Bytes serialize_locator(const std::vector<btc::BlockHash>& loc) {
  Writer w;
  w.u16le(static_cast<std::uint16_t>(std::min<std::size_t>(loc.size(), 0xffff)));
  for (std::size_t i = 0; i < loc.size() && i < 0xffff; ++i) {
    w.bytes({loc[i].bytes.data(), loc[i].bytes.size()});
  }
  return std::move(w).take();
}

std::optional<std::vector<btc::BlockHash>> deserialize_locator(ByteSpan data) {
  Reader r(data);
  const auto count = r.u16le();
  if (!count) return std::nullopt;
  std::vector<btc::BlockHash> loc;
  loc.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto raw = r.bytes(32);
    if (!raw) return std::nullopt;
    btc::BlockHash h;
    std::copy(raw->begin(), raw->end(), h.bytes.begin());
    loc.push_back(h);
  }
  if (!r.at_end()) return std::nullopt;
  return loc;
}

}  // namespace btcfast::dispute
