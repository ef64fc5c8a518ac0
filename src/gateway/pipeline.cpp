#include "gateway/pipeline.h"

#include <algorithm>
#include <chrono>

#include "crypto/batch_verify.h"
#include "crypto/sigcache.h"

namespace btcfast::gateway {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count());
}

std::uint64_t between_us(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// Pull the request_id out of a frame header without copying the payload,
/// so the shed path can echo it at near-zero cost. Returns 0 when the
/// header itself is malformed.
std::uint64_t peek_request_id(ByteSpan data) {
  Reader r(data);
  auto magic = r.u32le();
  auto type = r.u8();
  auto rid = r.u64le();
  if (!magic || !type || !rid || *magic != kWireMagic) return 0;
  return *rid;
}

/// RAII in-flight accounting: admission decisions and queue-depth stats
/// stay correct on every exit path, including exceptions.
struct InflightGuard {
  std::atomic<std::size_t>& counter;
  GatewayStats& stats;
  std::size_t depth;

  InflightGuard(std::atomic<std::size_t>& c, GatewayStats& s) : counter(c), stats(s) {
    depth = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    stats.queue_enter();
  }
  ~InflightGuard() {
    counter.fetch_sub(1, std::memory_order_relaxed);
    stats.queue_exit();
  }
};

}  // namespace

Gateway::Gateway(core::MerchantService& merchant, common::ThreadPool& pool, GatewayConfig config)
    : merchant_(merchant),
      config_(config),
      batcher_(pool, &crypto::SigCache::global(),
               VerifyBatcher::Config{config.verify_batch_max, config.verify_batch_wait_us},
               &crypto::PubkeyPrecompCache::global()) {
  crypto::PubkeyPrecompCache::global().set_capacity(config_.pubkey_precomp_max);
  const std::size_t n = std::clamp<std::size_t>(config_.shards, 1, 64);
  config_.shards = n;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.ledger_stripes, reservation_ids_));
  }
  receipt_cap_ =
      config_.max_receipts == 0 ? 0 : std::max<std::size_t>(1, config_.max_receipts / n);
}

void Gateway::attach_store(store::DurableStore* store) {
  store_ = store;
  sync_store_stats();
}

void Gateway::sync_store_stats() {
  if (store_ == nullptr) return;
  front_stats_.set_store_metrics(store_->wal_appends(), store_->wal_syncs(),
                                 store_->recovery().replayed_records, store_->snapshot_bytes());
}

bool Gateway::restore_from(const store::StateImage& image) {
  // Every reservation is an acked payment: its hold, its merchant book
  // entry and its settle-release mapping come back together, in id order.
  bool ok = true;
  for (const auto& r : image.reservations) {
    Shard& sh = shard_for(r.escrow_id);
    if (!sh.ledger.restore_reservation(r.id, r.escrow_id, r.amount, r.expires_at_ms)) ok = false;
    {
      std::lock_guard lock(tracked_mu_);
      tracked_.insert(r.escrow_id);
    }
    const auto pkg = core::FastPayPackage::deserialize(r.package);
    const auto inv = core::Invoice::deserialize(r.invoice);
    if (!pkg || !inv) {
      ok = false;
      continue;
    }
    merchant_.restore_pending(*pkg, *inv, r.accepted_at_ms);
    sh.live_reservations.emplace(r.id, pkg->binding.binding.btc_txid);
  }
  // Restored ledger entries carry a placeholder view until refreshed;
  // pull authoritative contract state now so try_reserve sees reality.
  std::vector<EscrowId> ids;
  {
    std::lock_guard lock(tracked_mu_);
    ids.assign(tracked_.begin(), tracked_.end());
  }
  for (const EscrowId id : ids) {
    if (const auto view = merchant_.escrow_view(id)) shard_for(id).ledger.upsert_escrow(id, *view);
  }
  sync_store_stats();
  return ok;
}

void Gateway::register_invoice(const core::Invoice& invoice) {
  std::unique_lock lock(invoices_mu_);
  invoices_[invoice.invoice_id] = invoice;
}

void Gateway::track_escrow(EscrowId id) {
  {
    std::lock_guard lock(tracked_mu_);
    tracked_.insert(id);
  }
  if (const auto view = merchant_.escrow_view(id)) {
    shard_for(id).ledger.upsert_escrow(id, *view);
  }
}

std::optional<EscrowView> Gateway::escrow_for(EscrowId id) {
  Shard& sh = shard_for(id);
  if (const auto snap = sh.ledger.snapshot(id)) return snap->view;
  if (!config_.lazy_escrow_fetch) return std::nullopt;
  // Lazy fetches serialize on a gateway-wide lock; re-check the ledger
  // first so only the one thread that actually fetched pays the
  // contract call.
  std::lock_guard fetch_lock(lazy_fetch_mu_);
  if (const auto snap = sh.ledger.snapshot(id)) return snap->view;
  const auto view = merchant_.escrow_view(id);
  if (!view) return std::nullopt;
  {
    std::lock_guard lock(tracked_mu_);
    tracked_.insert(id);
  }
  sh.ledger.upsert_escrow(id, *view);
  return view;
}

void Gateway::record_receipt(std::uint64_t request_id, bool accepted, RejectReason code,
                             std::uint64_t now_ms) {
  if (receipt_cap_ == 0) return;
  Shard& sh = receipt_shard(request_id);
  ReceiptInfoResponse r;
  r.found = true;
  r.accepted = accepted;
  r.code = code;
  r.decided_at_ms = now_ms;
  std::lock_guard lock(sh.receipts_mu);
  // Receipts are best-effort: request ids are client-chosen, so each
  // shard's cache is a bounded FIFO — oldest decisions fall out first,
  // never the map growing with attacker-supplied fresh ids.
  const bool inserted = sh.receipts.insert_or_assign(request_id, r).second;
  if (inserted) {
    sh.receipt_order.push_back(request_id);
    while (sh.receipts.size() > receipt_cap_) {
      sh.receipts.erase(sh.receipt_order.front());
      sh.receipt_order.pop_front();
    }
  }
}

Bytes Gateway::serve(ByteSpan frame_bytes, std::uint64_t now_ms) {
  const auto start = Clock::now();
  InflightGuard guard(inflight_, front_stats_);

  // Admission before any parsing: when the gateway is saturated, the
  // cheapest honest answer is "come back later" — unbounded queueing
  // just converts overload into latency for everyone.
  if (guard.depth > config_.max_inflight) {
    front_stats_.on_shed();
    RetryAfterResponse shed;
    shed.retry_after_ms = config_.retry_after_ms;
    shed.queue_depth = guard.depth;
    return make_frame(MsgType::kRetryAfter, peek_request_id(frame_bytes), shed.serialize());
  }

  const auto frame = Frame::deserialize(frame_bytes);
  if (!frame) {
    front_stats_.on_reject(RejectReason::kMalformedFrame, elapsed_us(start));
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable frame";
    return make_frame(MsgType::kError, peek_request_id(frame_bytes), err.serialize());
  }

  switch (frame->type) {
    case MsgType::kSubmitFastPay: {
      const Bytes resp = handle_submit(*frame, now_ms);
      // handle_submit records accept/reject counters; latency is the
      // full serve() span, recorded there once the response exists.
      return resp;
    }
    case MsgType::kQueryEscrow:
      return handle_query_escrow(*frame, now_ms);
    case MsgType::kGetReceipt:
      return handle_get_receipt(*frame);
    default: {
      ErrorResponse err;
      err.code = RejectReason::kMalformedFrame;
      err.message = "unexpected message type";
      front_stats_.on_reject(RejectReason::kMalformedFrame, elapsed_us(start));
      return make_frame(MsgType::kError, frame->request_id, err.serialize());
    }
  }
}

Bytes Gateway::handle_submit(const Frame& frame, std::uint64_t now_ms) {
  const auto start = Clock::now();
  auto req = SubmitFastPayRequest::deserialize(frame.payload);
  if (!req) {
    // No escrow id to route by — the malformed reject is front-door work.
    record_receipt(frame.request_id, false, RejectReason::kMalformedFrame, now_ms);
    front_stats_.on_reject(RejectReason::kMalformedFrame, elapsed_us(start));
    FastPayResultResponse resp;
    resp.accepted = false;
    resp.code = RejectReason::kMalformedFrame;
    resp.reason = "undecodable SubmitFastPay payload";
    return make_frame(MsgType::kFastPayResult, frame.request_id, resp.serialize());
  }

  const core::PaymentBinding& b = req->package.binding.binding;
  Shard& sh = shard_for(b.escrow_id);
  auto stage_start = start;
  auto mark = [&](Stage stage) {
    const auto now = Clock::now();
    sh.stats.on_stage(stage, between_us(stage_start, now));
    stage_start = now;
  };
  mark(Stage::kDecode);

  auto finish = [&](bool accepted, RejectReason code, std::string reason,
                    ReservationId rid) -> Bytes {
    stage_start = Clock::now();
    record_receipt(frame.request_id, accepted, code, now_ms);
    FastPayResultResponse resp;
    resp.accepted = accepted;
    resp.code = code;
    resp.reason = std::move(reason);
    resp.reservation_id = rid;
    Bytes out = make_frame(MsgType::kFastPayResult, frame.request_id, resp.serialize());
    mark(Stage::kRespond);
    if (accepted) {
      sh.stats.on_accept(elapsed_us(start));
    } else {
      sh.stats.on_reject(code, elapsed_us(start));
    }
    return out;
  };

  std::optional<core::Invoice> invoice;
  {
    std::shared_lock lock(invoices_mu_);
    if (auto it = invoices_.find(req->invoice_id); it != invoices_.end()) {
      invoice = it->second;
    }
  }
  if (!invoice) {
    return finish(false, RejectReason::kUnknownInvoice, "invoice not registered", 0);
  }

  const auto escrow = escrow_for(b.escrow_id);
  psc::Value outstanding = 0;
  if (const auto snap = sh.ledger.snapshot(b.escrow_id)) outstanding = snap->local_reserved;

  // Stage: verify. Opportunistic micro-batch — this request's signature
  // jobs coalesce with every other concurrently in-flight submit into
  // one batch_verify that warms the global SigCache, so the inline
  // checks inside evaluate_against below are cache hits. Zero-latency
  // when single-threaded (no window opens) or disabled.
  if (config_.verify_batch_max > 0 && escrow.has_value()) {
    stage_start = Clock::now();
    std::vector<crypto::SigCheckJob> jobs;
    jobs.reserve(1 + req->package.payment_tx.inputs.size());
    {
      crypto::SigCheckJob job;
      job.digest = b.signing_digest();
      job.pubkey = escrow->customer_btc_key;
      job.sig = req->package.binding.customer_sig;
      jobs.push_back(job);
    }
    const auto& node = merchant_.btc_node();
    for (std::size_t i = 0; i < req->package.payment_tx.inputs.size(); ++i) {
      const auto& in = req->package.payment_tx.inputs[i];
      if (const auto coin = node.chain().utxo().get(in.prevout)) {
        crypto::SigCheckJob job;
        job.digest = req->package.payment_tx.signature_hash(i, coin->out.script_pubkey);
        job.pubkey = in.script_sig.pubkey;
        job.sig = in.script_sig.signature;
        jobs.push_back(job);
      }
    }
    const bool allow_wait = inflight_.load(std::memory_order_relaxed) > 1;
    (void)batcher_.verify(std::move(jobs), allow_wait);
    mark(Stage::kVerify);
  }

  // Stage: evaluate. Const and read-only — many threads run this
  // concurrently; signature checks go through the global SigCache.
  stage_start = Clock::now();
  const auto decision =
      merchant_.evaluate_against(req->package, *invoice, now_ms, escrow, outstanding);
  mark(Stage::kEvaluate);
  if (!decision.accepted) {
    return finish(false, decision.code, decision.reason, 0);
  }

  // Stage: reserve. The per-escrow serialization point — the shard's
  // ledger decides atomically whether this payment still fits the
  // escrow's collateral (and the merchant's exposure cap) given every
  // concurrent winner. The hold lasts until the binding's own expiry:
  // the merchant is exposed for as long as the binding is disputable, so
  // releasing any earlier would undercount exposure and let later
  // payments overcommit.
  RejectReason deny = RejectReason::kNone;
  const auto rid = sh.ledger.try_reserve(b.escrow_id, b.compensation, b.expiry_ms,
                                         merchant_.config().per_escrow_exposure_cap, &deny);
  mark(Stage::kReserve);
  if (!rid) {
    return finish(false, deny, std::string("reservation denied: ") + core::describe(deny), 0);
  }

  // The merchant's book is bounded by claiming a slot on the
  // queued-accepts counter — racing accepts across shards cannot
  // overshoot max_pending_payments, and no cross-shard lock is taken.
  // The claim comes before the WAL write because a logged reserve is a
  // booked payment after any restore: a refusal must leave no record.
  const std::size_t limit = merchant_.config().max_pending_payments;
  const std::size_t claimed = queued_accepts_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto unclaim = [&] {
    queued_accepts_.fetch_sub(1, std::memory_order_acq_rel);
    (void)sh.ledger.release(*rid);
  };
  if (limit > 0 && merchant_.active_pending_count() + claimed > limit) {
    unclaim();
    return finish(false, RejectReason::kPendingLimit, "merchant pending-payment limit reached",
                  0);
  }

  // Stage: durability. The accept record — hold, package and invoice —
  // hits the WAL before the accept response exists: a crash after this
  // point recovers both the collateral hold and the merchant's book
  // entry, so the acked payment stays watched and disputable.
  if (store_ != nullptr) {
    store::StoreRecord rec;
    rec.kind = store::RecordKind::kReserve;
    rec.reservation_id = *rid;
    rec.escrow_id = b.escrow_id;
    rec.amount = b.compensation;
    rec.expires_at_ms = b.expiry_ms;
    rec.txid = b.btc_txid.bytes;
    rec.accepted_at_ms = now_ms;
    rec.package = req->package.serialize();
    rec.invoice = invoice->serialize();
    const auto seq = store_->append(rec);
    if (!seq || !store_->commit()) {
      unclaim();
      return finish(false, RejectReason::kOverloaded, "durable store commit failed", 0);
    }
    // Replication gate: the accept response must not exist until a
    // quorum of followers durably hold the reservation. On failure the
    // local log stays consistent — the reserve is followed by a
    // rejected-release, and both ship once followers return.
    if (gate_ != nullptr && !gate_->quorum_commit(*seq, now_ms)) {
      unclaim();
      store::StoreRecord rel;
      rel.kind = store::RecordKind::kRelease;
      rel.reservation_id = *rid;
      rel.cause = store::ReleaseCause::kRejected;
      (void)store_->append(rel);
      (void)store_->commit();
      return finish(false, RejectReason::kOverloaded, "replication quorum unreachable", 0);
    }
    sync_store_stats();
    mark(Stage::kWal);
  }

  // Stage: commit handoff to the shard's queue, drained by the flush.
  {
    Accepted a;
    a.package = std::move(req->package);
    a.invoice = *invoice;
    a.now_ms = now_ms;
    a.reservation_id = *rid;
    std::lock_guard lock(sh.commit_mu);
    sh.commit_queue.push_back(std::move(a));
  }
  mark(Stage::kCommit);
  return finish(true, RejectReason::kNone, {}, *rid);
}

Bytes Gateway::handle_query_escrow(const Frame& frame, std::uint64_t now_ms) {
  (void)now_ms;
  const auto req = QueryEscrowRequest::deserialize(frame.payload);
  if (!req) {
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable QueryEscrow payload";
    return make_frame(MsgType::kError, frame.request_id, err.serialize());
  }
  EscrowInfoResponse resp;
  (void)escrow_for(req->escrow_id);  // lazy mode: pull into the ledger
  if (const auto snap = shard_for(req->escrow_id).ledger.snapshot(req->escrow_id)) {
    resp.found = true;
    resp.state = static_cast<std::uint64_t>(snap->view.state);
    resp.collateral = snap->view.collateral;
    resp.reserved = snap->view.reserved + snap->local_reserved;
    resp.unlock_time_ms = snap->view.unlock_time_ms;
  }
  return make_frame(MsgType::kEscrowInfo, frame.request_id, resp.serialize());
}

Bytes Gateway::handle_get_receipt(const Frame& frame) {
  const auto req = GetReceiptRequest::deserialize(frame.payload);
  if (!req) {
    ErrorResponse err;
    err.code = RejectReason::kMalformedFrame;
    err.message = "undecodable GetReceipt payload";
    return make_frame(MsgType::kError, frame.request_id, err.serialize());
  }
  ReceiptInfoResponse resp;  // found=false default
  {
    Shard& sh = receipt_shard(req->request_id);
    std::lock_guard lock(sh.receipts_mu);
    if (auto it = sh.receipts.find(req->request_id); it != sh.receipts.end()) {
      resp = it->second;
    }
  }
  return make_frame(MsgType::kReceiptInfo, frame.request_id, resp.serialize());
}

std::vector<psc::PscTx> Gateway::flush_accepted(std::uint64_t /*now_ms*/) {
  // Seal the epoch: swap out every shard's queue. Items accepted after
  // this point land in the next epoch. Every sealed accept is already in
  // the WAL (and quorum-held, with a gate attached) since before its
  // response left serve(), so the flush writes nothing durable.
  std::vector<std::vector<Accepted>> epoch(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard lock(shards_[i]->commit_mu);
    epoch[i].swap(shards_[i]->commit_queue);
    total += epoch[i].size();
  }
  if (total > 0) queued_accepts_.fetch_sub(total, std::memory_order_acq_rel);

  // Apply merchant bookkeeping deterministically: shard order, then
  // queue order. The merchant book and BTC broadcast are not
  // thread-safe, and a parallel apply would make broadcast order depend
  // on scheduling — this stays the control thread's job by design.
  std::vector<psc::PscTx> actions;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (auto& a : epoch[i]) {
      const btc::Txid txid = a.package.binding.binding.btc_txid;
      auto txs = merchant_.accept_payment(std::move(a.package), std::move(a.invoice), a.now_ms);
      for (auto& tx : txs) actions.push_back(std::move(tx));
      shards_[i]->live_reservations.emplace(a.reservation_id, txid);
    }
  }
  return actions;
}

void Gateway::reconcile(std::uint64_t now_ms) {
  // Refresh every tracked escrow from authoritative contract state. A
  // reorg that shrank collateral, a judged dispute, a topped-up escrow —
  // all become visible to try_reserve here.
  std::vector<EscrowId> ids;
  {
    std::lock_guard lock(tracked_mu_);
    ids.assign(tracked_.begin(), tracked_.end());
  }
  for (const EscrowId id : ids) {
    if (const auto view = merchant_.escrow_view(id)) shard_for(id).ledger.upsert_escrow(id, *view);
  }

  // Release reservations whose payments resolved (settled on BTC or
  // judged on PSC) — the merchant book is the source of truth.
  bool logged = false;
  auto log_release = [&](ReservationId rid, store::ReleaseCause cause) {
    if (store_ == nullptr) return;
    store::StoreRecord rec;
    rec.kind = store::RecordKind::kRelease;
    rec.reservation_id = rid;
    rec.cause = cause;
    (void)store_->append(rec);
    logged = true;
  };
  std::unordered_set<std::string> resolved;
  bool resolved_built = false;
  for (auto& shard : shards_) {
    if (shard->live_reservations.empty()) continue;
    if (!resolved_built) {
      for (const auto& p : merchant_.pending()) {
        if (p.settled || p.judged) {
          resolved.insert(p.package.binding.binding.btc_txid.to_string());
        }
      }
      resolved_built = true;
    }
    for (auto it = shard->live_reservations.begin(); it != shard->live_reservations.end();) {
      if (resolved.count(it->second.to_string()) > 0) {
        (void)shard->ledger.release(it->first);
        log_release(it->first, store::ReleaseCause::kResolved);
        it = shard->live_reservations.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Drop reservations past their deadline: the binding can no longer be
  // disputed, so the collateral hold serves nobody.
  std::vector<ReservationId> expired;
  for (auto& shard : shards_) {
    (void)shard->ledger.expire_due(now_ms, store_ != nullptr ? &expired : nullptr);
  }
  for (const ReservationId rid : expired) log_release(rid, store::ReleaseCause::kExpired);
  if (logged) {
    (void)store_->commit();
    sync_store_stats();
  }
}

GatewayStats Gateway::stats() const {
  GatewayStats out(front_stats_);
  for (const auto& shard : shards_) out.accumulate(shard->stats);
  // The crypto caches are process-wide; snapshot their counters as
  // gauges so the JSON dump shows verify-cache efficacy next to the
  // serving counters.
  const auto sig = crypto::SigCache::global().stats();
  const auto pre = crypto::PubkeyPrecompCache::global().stats();
  out.set_cache_metrics(sig.hits, sig.misses, sig.insertions, sig.evictions, pre.hits, pre.misses,
                        pre.insertions, pre.evictions);
  return out;
}

const GatewayStats& Gateway::shard_stats(std::size_t i) const {
  return shards_[i % shards_.size()]->stats;
}

void Gateway::reset_stats() {
  front_stats_.reset();
  for (auto& shard : shards_) shard->stats.reset();
  sync_store_stats();
}

std::optional<ReservationLedger::EscrowSnapshot> Gateway::escrow_snapshot(EscrowId id) const {
  return shard_for(id).ledger.snapshot(id);
}

std::uint64_t Gateway::reservations_granted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_granted();
  return n;
}

std::uint64_t Gateway::reservations_denied() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_denied();
  return n;
}

std::uint64_t Gateway::reservations_released() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_released();
  return n;
}

std::uint64_t Gateway::reservations_expired() const noexcept {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ledger.total_expired();
  return n;
}

std::size_t Gateway::commit_queue_depth() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->commit_mu);
    n += shard->commit_queue.size();
  }
  return n;
}

}  // namespace btcfast::gateway
