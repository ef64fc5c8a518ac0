// The benchmark's worlds, built from the seed before any timing starts:
// every payment, evidence transaction and signature exists before the
// first measured call.
//
//   PayWorld   — one merchant BTC node funded with one coinbase output
//                per payment, a PSC chain with PayJudger and one escrow
//                per customer, and pre-signed SubmitFastPay frames whose
//                payers follow a Zipf law over the customer population.
//   StormWorld — a BTC chain with disputes opened against Zipf-shared
//                checkpoint anchors; a known share of the disputed
//                payments never confirm (the double-spends), so every
//                judgment has a ground-truth verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "btc/chain.h"
#include "btcfast/merchant.h"
#include "btcsim/node.h"
#include "btcsim/scenario.h"
#include "psc/chain.h"

namespace perfbench {

namespace btc = btcfast::btc;
namespace core = btcfast::core;
namespace psc = btcfast::psc;
namespace sim = btcfast::sim;

struct PayShape {
  std::size_t customers = 768;  ///< population; each has its own key and escrow
  double zipf_s = 0.9;          ///< payer skew over the population
  /// Pre-signed frames, request ids 1..payments. The last one is paid by
  /// customer 0 (the hottest escrow, so it is tracked after any restore):
  /// it is the crash drills' first new payment, never sent by the load
  /// generator.
  std::size_t payments = 1000;
};

struct PayWorld {
  std::unique_ptr<sim::Node> node;  ///< the merchant's BTC view (standalone)
  std::unique_ptr<psc::PscChain> psc;
  psc::Address judger{};
  std::optional<sim::Party> merchant_party;  ///< set once the world is built
  core::MerchantService::Config merchant_config;
  std::unique_ptr<core::MerchantService> merchant;

  std::vector<core::EscrowId> escrows;  ///< one per customer
  std::vector<core::Invoice> invoices;  ///< index-aligned with frames
  std::vector<btcfast::Bytes> frames;   ///< request id = index + 1
  std::uint64_t now_ms = 0;
  std::string inputs_digest;

  /// A fresh merchant process over the same node and chain, as after a
  /// crash: empty book, same identity and configuration.
  [[nodiscard]] std::unique_ptr<core::MerchantService> fresh_merchant() const;
};

[[nodiscard]] std::unique_ptr<PayWorld> build_pay_world(std::uint64_t seed, const PayShape& shape);

/// The storm's shape: disputes per storm, disputes per StormEngine
/// batch, Zipf-shared checkpoint anchors, and the chain segment mined
/// after each anchor.
inline constexpr std::size_t kStormDisputes = 512;
inline constexpr std::size_t kStormBatch = 64;
inline constexpr std::size_t kStormAnchors = 8;
inline constexpr int kBlocksPerAnchor = 16;

/// One storm batch: evidence transactions (shuffled) executed at
/// `evidence_ms`, then one judge per dispute at `judge_ms`.
struct StormBatch {
  std::vector<psc::PscTx> evidence;
  std::vector<psc::PscTx> judges;
  /// Ground truth per judge tx: true iff the payment confirmed, so the
  /// customer proves inclusion and must win.
  std::vector<bool> customer_wins;
};

struct StormWorld {
  /// Pristine contract state with every dispute open; each storm replays
  /// on a copy of it.
  psc::PscChain base;
  psc::Address judger{};
  std::vector<StormBatch> batches;
  std::uint64_t evidence_ms = 0;
  std::uint64_t judge_ms = 0;
  std::size_t evidence_headers = 0;  ///< headers carried across every evidence tx
  std::string inputs_digest;
};

[[nodiscard]] std::unique_ptr<StormWorld> build_storm_world(std::uint64_t seed);

}  // namespace perfbench
