// The gateway request pipeline: the concurrent front door in front of
// MerchantService, sharded by escrow affinity. Stages per SubmitFastPay
// frame:
//
//   admission (shed when > max_inflight in flight, typed RetryAfter)
//     -> decode (total, fuzz-hardened wire decoders)
//     -> route (escrow affinity byte -> owning shard: its ledger
//        stripes, commit queue, receipt cache and stats are private, so
//        traffic on unrelated escrows never contends)
//     -> verify (opportunistic micro-batch: concurrently in-flight
//        signature jobs coalesce into one crypto::batch_verify that
//        warms the global SigCache — bounded wait, zero added latency
//        when serving single-threaded)
//     -> evaluate (MerchantService::evaluate_against — const, reentrant,
//        signature checks hit the SigCache warmed above)
//     -> reserve (ReservationLedger::try_reserve on the shard's ledger —
//        the per-escrow serialization point; two racing fast-pays cannot
//        overcommit one escrow)
//     -> durability (one WAL record carrying the hold, package and
//        invoice; with a replication gate, held until quorum)
//     -> respond (+ queue the accept on the shard for epoch flush)
//
// Reservation ids draw from one gateway-wide counter and embed the
// escrow's geometry-independent affinity byte, so an N-shard gateway
// returns byte-identical responses to a 1-shard gateway for the same
// frame sequence.
//
// Threading contract: serve() is safe from any number of threads while
// the merchant/simulation is quiescent — the concurrent stages only READ
// node state (lazy escrow fetch, when enabled, is serialized by a
// gateway-wide fetch lock). Mutation (merchant bookkeeping, BTC
// broadcast, PSC txs) is deferred: accepted packages land in per-shard
// commit queues that the control thread drains with flush_accepted() —
// one sealed epoch applied in memory, in deterministic order.
// reconcile() (also control-thread) refreshes escrow views from the
// contract each PSC block, releases reservations for settled/judged
// payments, and expires stale ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btcfast/merchant.h"
#include "common/thread_pool.h"
#include "gateway/reservation_ledger.h"
#include "gateway/stats.h"
#include "gateway/verify_batcher.h"
#include "gateway/wire.h"
#include "store/recovery.h"

namespace btcfast::gateway {

struct GatewayConfig {
  /// Admission bound: requests beyond this many concurrently in flight
  /// are shed with kRetryAfter instead of queueing unboundedly.
  std::size_t max_inflight = 256;
  /// Hint returned in RetryAfter responses.
  std::uint64_t retry_after_ms = 50;
  /// Bound on the best-effort receipt cache behind GetReceipt: oldest
  /// receipts are evicted first once the cache is full (request ids are
  /// client-chosen, so an unbounded map would let an untrusted client
  /// exhaust gateway memory). The budget is split evenly across shards
  /// (at least 1 per shard). 0 disables receipts entirely.
  std::size_t max_receipts = 4096;
  /// Fetch untracked escrows from the PSC chain on demand. Safe under
  /// concurrent serve(): the chain view call is serialized by a
  /// gateway-wide fetch lock, so only the first request for an unknown
  /// escrow pays it. Concurrent deployments that want zero locking on
  /// the hot path still pre-register via track_escrow.
  bool lazy_escrow_fetch = false;
  /// Reservation-ledger lock stripes per shard.
  std::size_t ledger_stripes = 16;
  /// Escrow-affinity pipeline shards (clamped to [1, 64]). Each shard
  /// owns its ledger stripes, commit queue, receipt cache and stats;
  /// responses are byte-identical for any value.
  std::size_t shards = 8;
  /// Hot-path verify micro-batching: a leader collects up to this many
  /// concurrently submitted signature jobs before flushing one
  /// batch_verify. 0 disables the prefetch stage entirely (evaluate
  /// verifies inline, as before).
  std::size_t verify_batch_max = 64;
  /// Bounded window the batch leader waits for followers. Only applies
  /// when more than one request is in flight — single-threaded serving
  /// never waits.
  std::uint64_t verify_batch_wait_us = 100;
  /// Bound on the process-wide per-pubkey GLV precomp table cache
  /// (entries are ~18 KiB, so the default 512 keys is ~9 MiB). Applied
  /// to crypto::PubkeyPrecompCache::global() at construction; 0 disables
  /// precomp caching entirely (verifies still run the GLV fast path,
  /// just with per-call tables).
  std::size_t pubkey_precomp_max = crypto::PubkeyPrecompCache::kDefaultMaxEntries;
};

class Gateway {
 public:
  Gateway(core::MerchantService& merchant, common::ThreadPool& pool, GatewayConfig config);

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Attach a durable store: from here on every accept is WAL-committed
  /// — hold, package and invoice in one kReserve record — before its
  /// accept response leaves serve(). Pass nullptr to detach. The store
  /// outlives the gateway's use of it (not owned).
  void attach_store(store::DurableStore* store);

  /// Attach a replication commit gate (store::CommitGate, implemented by
  /// replication::ReplicationGroup): after the local WAL commit, a
  /// reservation is acked only once the gate confirms a quorum of
  /// followers durably hold it; otherwise the hold is released (logged
  /// as a rejected release) and the request answered kOverloaded. Pass
  /// nullptr to detach. No-op without an attached store.
  void attach_commit_gate(store::CommitGate* gate) noexcept { gate_ = gate; }

  /// Rebuild gateway state from a recovered image (fresh gateway,
  /// control thread): each reservation's hold back into the owning
  /// shard's ledger, its payment back into the merchant book and the
  /// settle-release map. Reservation ids are geometry-independent, so
  /// the shard/stripe counts need not match the writer's. Returns false
  /// if any entry fails to decode or re-install — recovery then must not
  /// be trusted.
  [[nodiscard]] bool restore_from(const store::StateImage& image);

  /// Make an invoice resolvable by SubmitFastPay frames.
  void register_invoice(const core::Invoice& invoice);

  /// Snapshot an escrow's contract state into the ledger (control thread).
  void track_escrow(EscrowId id);

  /// Serve one encoded frame, returning the encoded response frame.
  /// Thread-safe; synchronous. `now_ms` is simulation/wall time supplied
  /// by the caller so the gateway stays clockless and deterministic.
  [[nodiscard]] Bytes serve(ByteSpan frame_bytes, std::uint64_t now_ms);

  /// Asynchronous serve on the thread pool.
  [[nodiscard]] std::future<Bytes> submit(Bytes frame_bytes, std::uint64_t now_ms);

  /// Bulk intake: one parallel batch-verify pass warms the signature
  /// cache across every submit frame (reusing the fast-verify engine),
  /// then frames are served in order. Responses are index-aligned and
  /// identical to serving sequentially — for any pool size.
  [[nodiscard]] std::vector<Bytes> serve_batch(const std::vector<Bytes>& frames,
                                               std::uint64_t now_ms);

  /// Drain every shard's commit queue as one epoch (control thread
  /// only): seal the queues, then apply merchant bookkeeping + BTC
  /// broadcast deterministically (shard order, then queue order).
  /// Returns the PSC transactions the caller must submit (reserved
  /// mode). Writes nothing durable and waits on no quorum: every queued
  /// accept was logged (and quorum-held) before its response, so
  /// `now_ms` is unused.
  [[nodiscard]] std::vector<psc::PscTx> flush_accepted(std::uint64_t now_ms = 0);

  /// Control-thread sync point, run on each new PSC block: refresh every
  /// tracked escrow view from the contract, release reservations whose
  /// payments settled or were judged, and expire overdue reservations.
  void reconcile(std::uint64_t now_ms);

  /// Aggregated counters across the admission front and every shard
  /// (relaxed snapshot; safe during concurrent serve).
  [[nodiscard]] GatewayStats stats() const;
  /// One shard's private counters (i < shard_count()).
  [[nodiscard]] const GatewayStats& shard_stats(std::size_t i) const;
  void reset_stats();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_index(EscrowId id) const noexcept {
    return ReservationLedger::affinity(id) % shards_.size();
  }

  /// Ledger views, routed to the owning shard.
  [[nodiscard]] std::optional<ReservationLedger::EscrowSnapshot> escrow_snapshot(
      EscrowId id) const;
  [[nodiscard]] std::uint64_t reservations_granted() const noexcept;
  [[nodiscard]] std::uint64_t reservations_denied() const noexcept;
  [[nodiscard]] std::uint64_t reservations_released() const noexcept;
  [[nodiscard]] std::uint64_t reservations_expired() const noexcept;

  [[nodiscard]] std::size_t commit_queue_depth() const;
  [[nodiscard]] const VerifyBatcher& batcher() const noexcept { return batcher_; }

  /// Mirror the TCP front end's counters into the stats JSON (gauge
  /// slots on the front stats, same pattern as the store metrics). The
  /// net server calls this via TcpServer::fold_into.
  void set_net_metrics(std::uint64_t conns_accepted, std::uint64_t conns_active,
                       std::uint64_t bans, std::uint64_t frames_in, std::uint64_t sheds_seen,
                       std::uint64_t disconnects) noexcept {
    front_stats_.set_net_metrics(conns_accepted, conns_active, bans, frames_in, sheds_seen,
                                 disconnects);
  }

 private:
  struct Accepted {
    core::FastPayPackage package;
    core::Invoice invoice;
    std::uint64_t now_ms = 0;
    ReservationId reservation_id = 0;
  };

  /// Everything one escrow-affinity shard owns. Requests for different
  /// shards share nothing on the hot path except the global SigCache,
  /// the in-flight counter and the reservation-id counter (all atomic).
  struct Shard {
    Shard(std::size_t stripes, std::atomic<ReservationId>& ids) : ledger(stripes, &ids) {}

    ReservationLedger ledger;
    GatewayStats stats;

    std::mutex commit_mu;
    std::vector<Accepted> commit_queue;

    mutable std::mutex receipts_mu;
    std::unordered_map<std::uint64_t, ReceiptInfoResponse> receipts;
    std::deque<std::uint64_t> receipt_order;  ///< FIFO eviction order

    // Control-thread state (flush/reconcile are single-threaded by
    // contract, so no lock).
    std::unordered_map<ReservationId, btc::Txid> live_reservations;
  };

  [[nodiscard]] Shard& shard_for(EscrowId id) noexcept { return *shards_[shard_index(id)]; }
  [[nodiscard]] const Shard& shard_for(EscrowId id) const noexcept {
    return *shards_[shard_index(id)];
  }
  /// Receipts route by request id (GetReceipt carries nothing else).
  [[nodiscard]] Shard& receipt_shard(std::uint64_t request_id) noexcept {
    return *shards_[static_cast<std::size_t>((request_id * 0x9e3779b97f4a7c15ull) >> 56) %
                    shards_.size()];
  }

  [[nodiscard]] Bytes handle_submit(const Frame& frame, std::uint64_t now_ms);
  [[nodiscard]] Bytes handle_query_escrow(const Frame& frame, std::uint64_t now_ms);
  [[nodiscard]] Bytes handle_get_receipt(const Frame& frame);
  [[nodiscard]] std::optional<EscrowView> escrow_for(EscrowId id);
  void record_receipt(std::uint64_t request_id, bool accepted, RejectReason code,
                      std::uint64_t now_ms);
  void sync_store_stats();

  core::MerchantService& merchant_;
  common::ThreadPool& pool_;
  GatewayConfig config_;
  store::DurableStore* store_ = nullptr;
  store::CommitGate* gate_ = nullptr;

  /// One id space shared by every shard's ledger: grants are globally
  /// unique and independent of shard count.
  std::atomic<ReservationId> reservation_ids_{1};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t receipt_cap_ = 0;  ///< per-shard receipt budget

  /// Admission-front counters: sheds, top-level malformed frames, and
  /// the live queue depth (work that hasn't been routed to a shard yet).
  GatewayStats front_stats_;
  VerifyBatcher batcher_;

  std::atomic<std::size_t> inflight_{0};
  /// Accepts queued across all shards but not yet applied; bounds the
  /// merchant book (active + queued <= max_pending_payments) without a
  /// cross-shard lock.
  std::atomic<std::size_t> queued_accepts_{0};

  mutable std::shared_mutex invoices_mu_;
  std::unordered_map<std::uint64_t, core::Invoice> invoices_;

  /// Serializes lazy escrow fetches so only one thread pays the contract
  /// call: the first request for an unknown escrow takes this lock,
  /// re-checks the ledger, then fetches.
  std::mutex lazy_fetch_mu_;

  /// Escrows to refresh on reconcile. Guarded because lazy fetch inserts
  /// from serve threads; control-thread paths take the same lock.
  mutable std::mutex tracked_mu_;
  std::unordered_set<EscrowId> tracked_;
};

}  // namespace btcfast::gateway
