// The merchant side of BTCFast: the sub-second acceptance decision, plus
// settlement monitoring and the dispute workflow (open, evidence, judge).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "btcfast/evidence.h"
#include "btcfast/payjudger.h"
#include "btcfast/protocol.h"
#include "btcsim/node.h"
#include "btcsim/scenario.h"
#include "psc/chain.h"

namespace btcfast::core {

class MerchantService {
 public:
  struct Config {
    psc::Address judger{};
    psc::Address self_psc{};
    psc::Value dispute_bond = 10'000;
    std::uint32_t settle_confirmations = 6;   ///< payment considered settled
    std::uint64_t dispute_after_ms = 90 * 60 * 1000;  ///< open dispute if unconfirmed
    std::uint64_t binding_safety_margin_ms = 4 * 60 * 60 * 1000;
    /// Reserved mode (on-chain exposure): every accepted payment is
    /// registered with reservePayment, guaranteeing collateral coverage
    /// even against cross-merchant double-booking — at ~1 contract call
    /// per payment. Off (optimistic mode) reproduces the paper's zero-fee
    /// fast path. See bench_ablation_reserve for the trade-off.
    bool reserve_payments = false;
    /// Maximum unresolved accepted payments the merchant will carry
    /// (0 = unbounded). Beyond it the fast path rejects with
    /// RejectReason::kPendingLimit instead of silently growing the book.
    std::size_t max_pending_payments = 0;
    /// Merchant-side cap on total unsettled compensation against any one
    /// escrow (0 = uncapped). Tighter than collateral coverage: a cautious
    /// merchant bounds its exposure to a single customer even when the
    /// escrow could technically cover more (RejectReason::kExposureCap).
    psc::Value per_escrow_exposure_cap = 0;
  };

  /// A payment the merchant accepted and is tracking.
  struct PendingPayment {
    FastPayPackage package;
    Invoice invoice;
    std::uint64_t accepted_at_ms = 0;
    bool settled = false;
    bool dispute_opened = false;     ///< openDispute tx submitted
    bool dispute_active_seen = false;  ///< contract confirmed DISPUTED state
    bool evidence_submitted = false;
    bool judged = false;
    bool reserved = false;           ///< on-chain reservation submitted
    bool reservation_released = false;
    std::uint64_t last_dispute_attempt_ms = 0;  ///< for retry pacing
  };

  MerchantService(sim::Party btc_identity, sim::Node& btc_node, const psc::PscChain& psc,
                  Config config);

  /// Quote an invoice.
  [[nodiscard]] Invoice make_invoice(btc::Amount amount_sat, psc::Value compensation,
                                     std::uint64_t now_ms, std::uint64_t ttl_ms);

  /// THE FAST PATH (paper's "< 1 second"): decide entirely from local
  /// state — signature checks, escrow view (cached from the PSC chain),
  /// UTXO/mempool checks on the merchant's Bitcoin node. No network round
  /// trips, no on-chain writes.
  [[nodiscard]] AcceptDecision evaluate_fastpay(const FastPayPackage& pkg,
                                                const Invoice& invoice, std::uint64_t now_ms);

  /// The reentrant acceptance core: the full fast-path decision against a
  /// caller-supplied escrow view and outstanding-exposure figure. Const
  /// and safe to call concurrently (from gateway worker threads) while
  /// the simulation is quiescent — it only reads the merchant node's
  /// chain/UTXO/mempool and the process-global signature cache.
  /// evaluate_fastpay == pending-limit check + fetch_escrow + this.
  [[nodiscard]] AcceptDecision evaluate_against(const FastPayPackage& pkg, const Invoice& invoice,
                                                std::uint64_t now_ms,
                                                const std::optional<EscrowView>& escrow,
                                                psc::Value outstanding) const;

  /// Batch intake for N independent packages: a parallel phase verifies
  /// every signature (binding + per-input payment sigs) across the global
  /// thread pool, warming the signature cache; decisions are then made by
  /// the unchanged sequential fast path, whose signature checks all hit
  /// the cache. Results are index-aligned with the inputs and
  /// byte-identical to calling evaluate_fastpay in a loop — for any
  /// thread count, including the inline (0-thread) pool.
  [[nodiscard]] std::vector<AcceptDecision> evaluate_fastpay_batch(
      const std::vector<FastPayPackage>& pkgs, const std::vector<Invoice>& invoices,
      std::uint64_t now_ms);

  /// Accept (bookkeeping) after a positive evaluation; broadcasts the
  /// payment tx from the merchant's node. In reserved mode, returns the
  /// reservePayment transaction the caller must submit to the PSC chain.
  [[nodiscard]] std::vector<psc::PscTx> accept_payment(const FastPayPackage& pkg,
                                                       const Invoice& invoice,
                                                       std::uint64_t now_ms);
  /// Move overload for bulk drains (the gateway's epoch flush hands over
  /// thousands of packages per call): the package and invoice move into
  /// the pending book instead of being deep-copied.
  [[nodiscard]] std::vector<psc::PscTx> accept_payment(FastPayPackage&& pkg, Invoice&& invoice,
                                                       std::uint64_t now_ms);

  /// Periodic monitoring: settles confirmed payments and returns any PSC
  /// transactions the merchant must submit (dispute open / evidence /
  /// judge requests).
  [[nodiscard]] std::vector<psc::PscTx> poll(std::uint64_t now_ms);

  /// Reinstall an accepted payment recovered from the durable store
  /// after a crash, with no fresh reservePayment; poll()'s settle/dispute
  /// machinery picks the payment up from here. The BTC payment is
  /// rebroadcast through our node: the crash may have come before it was
  /// ever broadcast, and an unbroadcast honest payment would never
  /// confirm and would be disputed. The node drops a tx it has already
  /// seen, and the mempool refuses one already confirmed or conflicted.
  /// Also bumps the invoice-id counter past the restored invoice so new
  /// invoices never collide with recovered ones.
  void restore_pending(const FastPayPackage& pkg, const Invoice& invoice,
                       std::uint64_t accepted_at_ms);

  [[nodiscard]] const std::vector<PendingPayment>& pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t settled_count() const noexcept;
  [[nodiscard]] std::size_t disputed_count() const noexcept;
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const sim::Party& btc_identity() const noexcept { return btc_; }
  /// Read-only node access for callers that pre-stage parallel signature
  /// checks (the gateway's batch intake mirrors evaluate_fastpay_batch).
  [[nodiscard]] const sim::Node& btc_node() const noexcept { return btc_node_; }

  /// Exposure the merchant already carries against an escrow (sum of
  /// unsettled accepted compensations) — the fast path refuses bindings
  /// that would overrun the collateral.
  [[nodiscard]] psc::Value outstanding_exposure(EscrowId escrow) const;

  /// Accepted payments still unresolved (neither settled nor judged) —
  /// the quantity Config::max_pending_payments bounds.
  [[nodiscard]] std::size_t active_pending_count() const noexcept;

  /// Current escrow record from the PSC chain (view call, no write).
  /// Public so the gateway's reconcile loop can refresh its reservation
  /// ledger from the authoritative contract state.
  [[nodiscard]] std::optional<EscrowView> escrow_view(EscrowId id) const;

 private:
  sim::Party btc_;
  sim::Node& btc_node_;
  const psc::PscChain& psc_;
  Config config_;
  std::vector<PendingPayment> pending_;
  std::uint64_t next_invoice_id_ = 1;
};

}  // namespace btcfast::core
