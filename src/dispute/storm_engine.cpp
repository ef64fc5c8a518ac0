#include "dispute/storm_engine.h"

#include <algorithm>

#include "btc/spv.h"
#include "common/serialize.h"

namespace btcfast::dispute {

StormEngine::StormEngine(psc::PscChain& psc, const psc::Address& judger)
    : StormEngine(psc, judger, Config{}) {}

StormEngine::StormEngine(psc::PscChain& psc, const psc::Address& judger, Config config)
    : psc_(psc), judger_addr_(judger), config_(config), index_(config.index) {
  judger_contract_ = dynamic_cast<core::PayJudger*>(psc_.contract(judger_addr_));
  if (judger_contract_ != nullptr) judger_contract_->set_digest_provider(this);
}

StormEngine::~StormEngine() {
  if (judger_contract_ != nullptr && judger_contract_->digest_provider() == this) {
    judger_contract_->set_digest_provider(nullptr);
  }
}

void StormEngine::batch_digests(const std::vector<btc::BlockHeader>& headers,
                                crypto::Sha256Digest* out) {
  // The contract's phase-1 callback. Disputes anchored at the same
  // checkpoint submit the identical chain, so first try the whole-chain
  // memo: one equality scan serves every digest with no per-header work.
  if (headers.empty()) return;
  std::lock_guard lock(chain_mu_);
  for (const auto& cached : chain_cache_) {
    if (cached.headers.size() == headers.size() &&
        std::equal(cached.headers.begin(), cached.headers.end(), headers.begin())) {
      std::copy(cached.digests.begin(), cached.digests.end(), out);
      return;
    }
  }
  // First sight of this chain: per-header probes against the index. The
  // sweep already warmed the batch's headers; anything it never saw
  // (junk the scan skipped, a direct execute outside a batch) is hashed
  // on demand here. Either way every digest is sha256d of the queried
  // bytes — parity needs no other argument.
  index_.batch_digests(headers, out);
  CachedChain entry{headers, {out, out + headers.size()}};
  if (chain_cache_.size() < kChainCacheCap) {
    chain_cache_.push_back(std::move(entry));
  } else {
    chain_cache_[chain_cache_next_] = std::move(entry);
    chain_cache_next_ = (chain_cache_next_ + 1) % kChainCacheCap;
  }
}

std::size_t StormEngine::scan_tx_headers(const psc::PscTx& tx, std::size_t max_headers,
                                         std::vector<btc::BlockHeader>* out) {
  // Client-side mirror of the contract's argument decoding. This runs on
  // untrusted bytes (anyone can submit a tx), so every branch tolerates
  // junk: a chain that fails to decode, or that exceeds the contract's
  // header cap (which the contract rejects before hashing), adds nothing.
  const ByteSpan raw = scan_tx_header_span(tx, max_headers);
  for (std::size_t at = 0; at < raw.size(); at += 80) {
    out->push_back(*btc::BlockHeader::deserialize(raw.subspan(at, 80)));  // any 80 bytes decode
  }
  return raw.size() / 80;
}

ByteSpan StormEngine::scan_tx_header_span(const psc::PscTx& tx, std::size_t max_headers) {
  Reader r({tx.args.data(), tx.args.size()});
  std::optional<ByteSpan> headers_bytes;
  if (tx.method == "submitMerchantEvidence" || tx.method == "submitCustomerEvidence") {
    if (!r.u64le()) return {};  // escrow id
    headers_bytes = r.span_with_len(1 << 20);
  } else if (tx.method == "updateCheckpoint") {
    headers_bytes = r.span_with_len(1 << 20);
  } else {
    return {};
  }
  if (!headers_bytes) return {};
  // Inside: the contract's own header-run parser; the cap is the scan's.
  const auto run = btc::header_run(*headers_bytes);
  if (!run || run->size() / 80 > max_headers) return {};
  return *run;
}

std::size_t StormEngine::sweep_batch(const std::vector<psc::PscTx>& txs) {
  sweep_buf_.clear();
  for (const auto& tx : txs) {
    if (tx.to != judger_addr_) continue;
    const ByteSpan raw = scan_tx_header_span(tx, config_.max_headers_per_tx);
    sweep_buf_.insert(sweep_buf_.end(), raw.begin(), raw.end());
  }
  const std::size_t count = sweep_buf_.size() / 80;
  if (count != 0) index_.batch_digests_raw(sweep_buf_.data(), count, nullptr);
  return count;
}

std::size_t StormEngine::prehash(const std::vector<psc::PscTx>& txs) {
  return sweep_batch(txs);
}

std::vector<psc::Receipt> StormEngine::execute_batch(const std::vector<psc::PscTx>& txs,
                                                     std::uint64_t now_ms) {
  // Phase 1: one deduped parallel hashing sweep over the whole batch's
  // raw evidence bytes — every unique header is hashed exactly once,
  // across all disputes, before any of them executes.
  sweep_batch(txs);

  // Phase 2: sequential execution in input order, one block per tx —
  // exactly what a one-at-a-time submitter produces, so block numbers,
  // receipts and state transitions match byte-for-byte. The contract's
  // phase-1 digests come out of the warm index.
  std::vector<psc::Receipt> receipts;
  receipts.reserve(txs.size());
  for (const auto& tx : txs) {
    receipts.push_back(psc_.execute_now(tx, now_ms));
  }
  return receipts;
}

}  // namespace btcfast::dispute
