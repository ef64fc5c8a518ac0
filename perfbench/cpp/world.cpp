#include "world.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "btc/pow.h"
#include "btcfast/customer.h"
#include "btcfast/evidence.h"
#include "btcfast/payjudger.h"
#include "gateway/wire.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kHourMs = 60ULL * 60 * 1000;
constexpr std::size_t kOutputsPerCoinbase = 64;

btc::ChainParams cheap_params() {
  // ~2^6 hashes per block: the benchmark mines hundreds of funding
  // blocks per world, and PoW difficulty is not what it measures.
  btc::ChainParams p = btc::ChainParams::regtest();
  p.pow_limit = btcfast::crypto::U256::one() << 250;
  p.genesis_bits = btc::target_to_bits(p.pow_limit);
  return p;
}

/// Mine one block on `chain`'s tip: a coinbase paying `outs` (several
/// outputs, so one block funds many payments) plus `txs`.
btc::Block mine_next(const btc::Chain& chain, const btc::ChainParams& params,
                     std::vector<btc::TxOut> outs, std::vector<btc::Transaction> txs = {}) {
  btc::Block b;
  b.header.version = 1;
  b.header.prev_hash = chain.tip_hash();
  b.header.time = chain.tip_header().time + 600;
  b.header.bits = chain.next_work_required(b.header.prev_hash);
  btc::Transaction cb;
  btc::TxIn in;
  in.prevout.index = 0xffffffff;
  in.sequence = chain.height() + 1;  // unique coinbase txid per height
  cb.inputs.push_back(in);
  cb.outputs = std::move(outs);
  b.txs.push_back(std::move(cb));
  for (auto& tx : txs) b.txs.push_back(std::move(tx));
  if (!btc::mine_block(b, params)) throw std::runtime_error("mining failed");
  return b;
}

/// Coinbase outputs paying one coin of `value` to each script, in order,
/// kOutputsPerCoinbase per block. Returns the coins in the same order.
template <typename Submit>
std::vector<btc::OutPoint> fund(const btc::Chain& chain, const btc::ChainParams& params,
                                const std::vector<const btc::ScriptPubKey*>& payees,
                                btc::Amount value, Submit submit) {
  std::vector<btc::OutPoint> coins;
  coins.reserve(payees.size());
  for (std::size_t first = 0; first < payees.size(); first += kOutputsPerCoinbase) {
    const std::size_t n = std::min(kOutputsPerCoinbase, payees.size() - first);
    std::vector<btc::TxOut> outs;
    for (std::size_t k = 0; k < n; ++k) outs.push_back(btc::TxOut{value, *payees[first + k]});
    btc::Block b = mine_next(chain, params, std::move(outs));
    const btc::Txid txid = b.txs[0].txid();
    submit(b);
    for (std::size_t k = 0; k < n; ++k) {
      coins.push_back(btc::OutPoint{txid, static_cast<std::uint32_t>(k)});
    }
  }
  // Maturity padding, so every funding coinbase is spendable.
  for (std::uint32_t i = 0; i <= params.coinbase_maturity; ++i) {
    submit(mine_next(chain, params, {btc::TxOut{params.subsidy, btc::ScriptPubKey{}}}));
  }
  return coins;
}

core::PayJudgerConfig judger_config(const btc::ChainParams& params, const btc::BlockHash& tip,
                                    std::uint32_t depth, std::uint64_t window_ms) {
  core::PayJudgerConfig cfg;
  cfg.pow_limit = params.pow_limit;
  cfg.initial_checkpoint = tip;
  cfg.required_depth = depth;
  cfg.evidence_window_ms = window_ms;
  cfg.min_collateral = 1;
  cfg.dispute_bond = 500;
  return cfg;
}

void add_tx(InputsDigest& d, const psc::PscTx& tx) {
  d.add({tx.from.bytes.data(), tx.from.bytes.size()});
  d.add({tx.to.bytes.data(), tx.to.bytes.size()});
  d.add_u64(static_cast<std::uint64_t>(tx.value));
  d.add({reinterpret_cast<const std::uint8_t*>(tx.method.data()), tx.method.size()});
  d.add(tx.args);
}

}  // namespace

std::unique_ptr<core::MerchantService> PayWorld::fresh_merchant() const {
  return std::make_unique<core::MerchantService>(*merchant_party, *node, *psc, merchant_config);
}

std::unique_ptr<PayWorld> build_pay_world(std::uint64_t seed, const PayShape& shape) {
  constexpr psc::Value kCompensation = 1'000;
  auto w = std::make_unique<PayWorld>();
  const btc::ChainParams params = cheap_params();
  w->node = std::make_unique<sim::Node>(0, params, nullptr);
  w->now_ms = 1'000;
  SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + 0x5041);

  std::vector<sim::Party> customers;
  customers.reserve(shape.customers);
  for (std::size_t c = 0; c < shape.customers; ++c) {
    customers.push_back(sim::Party::make(rng.next()));
  }
  w->merchant_party = sim::Party::make(rng.next());

  const Zipf zipf(shape.customers, shape.zipf_s);
  std::vector<std::size_t> payer(shape.payments);  // payment -> customer
  std::vector<std::size_t> uses(shape.customers, 0);
  for (std::size_t i = 0; i < shape.payments; ++i) {
    payer[i] = i + 1 == shape.payments ? 0 : zipf.sample(rng);
    ++uses[payer[i]];
  }

  const btc::Amount coin_value = params.subsidy / static_cast<btc::Amount>(kOutputsPerCoinbase);
  std::vector<const btc::ScriptPubKey*> payees;
  for (const std::size_t c : payer) payees.push_back(&customers[c].script);
  const auto coins = fund(w->node->chain(), params, payees, coin_value,
                          [&](const btc::Block& b) { w->node->receive_block(b); });

  psc::PscChain::Config pcfg;
  w->psc = std::make_unique<psc::PscChain>(pcfg);
  w->judger = w->psc->deploy(
      "payjudger", std::make_unique<core::PayJudger>(judger_config(
                       params, w->node->chain().tip_hash(), 6, kHourMs)));

  auto& mc = w->merchant_config;
  mc.judger = w->judger;
  mc.self_psc = psc::Address::from_label("perfbench/merchant");
  mc.dispute_bond = 500;
  mc.binding_safety_margin_ms = 2 * kHourMs;
  w->psc->mint(mc.self_psc, 1'000'000'000);  // view calls are gas-checked
  w->merchant = w->fresh_merchant();

  std::vector<std::unique_ptr<core::CustomerWallet>> wallets;
  for (std::size_t c = 0; c < shape.customers; ++c) {
    const auto addr = psc::Address::from_label("perfbench/customer/" + std::to_string(c));
    // Collateral covers every payment this customer will make: the
    // gateway holds each reservation until the binding expires.
    const psc::Value collateral = kCompensation * static_cast<psc::Value>(uses[c] + 8);
    w->psc->mint(addr, collateral + 100'000'000);  // plus gas
    wallets.push_back(std::make_unique<core::CustomerWallet>(customers[c], addr, c + 1));
    const auto r =
        w->psc->execute_now(wallets.back()->make_deposit_tx(w->judger, collateral, 48 * kHourMs), 0);
    if (!r.success) throw std::runtime_error("escrow deposit failed: " + r.revert_reason);
    w->escrows.push_back(c + 1);
  }

  InputsDigest digest;
  digest.add_u64(seed);
  w->frames.reserve(shape.payments);
  for (std::size_t i = 0; i < shape.payments; ++i) {
    core::Invoice inv = w->merchant->make_invoice(coin_value / 2, kCompensation, w->now_ms, kHourMs);
    btcfast::gateway::SubmitFastPayRequest req;
    req.invoice_id = inv.invoice_id;
    req.package = wallets[payer[i]]->create_fastpay(inv, coins[i], coin_value, w->now_ms,
                                                       24 * kHourMs);
    w->frames.push_back(btcfast::gateway::make_frame(btcfast::gateway::MsgType::kSubmitFastPay,
                                                     i + 1, req.serialize()));
    digest.add(w->frames.back());
    w->invoices.push_back(std::move(inv));
  }
  w->inputs_digest = digest.hex();
  return w;
}

std::unique_ptr<StormWorld> build_storm_world(std::uint64_t seed) {
  constexpr std::uint32_t kDepth = 3;
  constexpr std::uint64_t kWindowMs = 10'000 * kHourMs;
  auto w = std::make_unique<StormWorld>();
  const btc::ChainParams params = cheap_params();
  btc::Chain chain(params);
  SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + 0x5354);
  const std::size_t n = kStormDisputes;

  std::vector<sim::Party> parties;
  for (std::size_t i = 0; i < n; ++i) parties.push_back(sim::Party::make(rng.next()));
  std::vector<const btc::ScriptPubKey*> payees;
  for (const auto& p : parties) payees.push_back(&p.script);
  const btc::Amount coin_value = params.subsidy / static_cast<btc::Amount>(kOutputsPerCoinbase);
  const auto coins = fund(chain, params, payees, coin_value, [&](const btc::Block& b) {
    if (chain.submit_block(b) != btc::SubmitResult::kActiveTip) {
      throw std::runtime_error("funding block rejected");
    }
  });
  auto mine = [&](std::vector<btc::Transaction> txs) {
    const btc::Block b = mine_next(chain, params,
                                   {btc::TxOut{params.subsidy, btc::ScriptPubKey{}}},
                                   std::move(txs));
    if (chain.submit_block(b) != btc::SubmitResult::kActiveTip) {
      throw std::runtime_error("storm block rejected");
    }
  };

  const auto cfg = judger_config(params, chain.tip_hash(), kDepth, kWindowMs);
  w->judger = w->base.deploy("payjudger", std::make_unique<core::PayJudger>(cfg));
  const auto merchant = psc::Address::from_label("perfbench/storm-merchant");
  w->base.mint(merchant, 1'000'000'000);

  // Anchor of each dispute: anchor a gets a share ∝ 1/(a+1) — a fixed
  // shape, so only keys, txids and order depend on the seed.
  std::vector<std::size_t> anchor_of;
  {
    double norm = 0;
    for (std::size_t a = 0; a < kStormAnchors; ++a) norm += 1.0 / static_cast<double>(a + 1);
    for (std::size_t a = 0; a < kStormAnchors && anchor_of.size() < n; ++a) {
      std::size_t quota = static_cast<std::size_t>(
          static_cast<double>(n) / (static_cast<double>(a + 1) * norm) + 0.5);
      if (a + 1 == kStormAnchors) quota = n - anchor_of.size();
      for (std::size_t k = 0; k < quota && anchor_of.size() < n; ++k) anchor_of.push_back(a);
    }
  }
  // Exactly this many payments are double-spent; the seed picks which.
  std::vector<bool> confirms(n, true);
  {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(idx[i - 1], idx[rng.below(i)]);
    const std::size_t lost = n / 4;  // a quarter of the disputed payments never confirm
    for (std::size_t k = 0; k < lost; ++k) confirms[idx[k]] = false;
  }

  std::vector<std::unique_ptr<core::CustomerWallet>> wallets;
  std::vector<psc::Address> customer_addr;
  for (std::size_t i = 0; i < n; ++i) {
    customer_addr.push_back(psc::Address::from_label("perfbench/storm-customer/" + std::to_string(i)));
    w->base.mint(customer_addr[i], 1'000'000'000);
    wallets.push_back(std::make_unique<core::CustomerWallet>(parties[i], customer_addr[i], i + 1));
    const auto r = w->base.execute_now(wallets[i]->make_deposit_tx(w->judger, 100'000, kWindowMs * 2), 0);
    if (!r.success) throw std::runtime_error("storm deposit failed: " + r.revert_reason);
  }

  std::vector<btc::BlockHash> anchor_hash(n);
  std::vector<btc::Txid> txid(n);
  btc::BlockHash checkpoint = cfg.initial_checkpoint;
  std::uint64_t t = 1'000;
  std::size_t next = 0;
  for (std::size_t a = 0; a < kStormAnchors; ++a) {
    if (chain.tip_hash() != checkpoint) {
      const auto advance = core::headers_since(chain, checkpoint);
      psc::PscTx tx;
      tx.from = merchant;
      tx.to = w->judger;
      tx.method = "updateCheckpoint";
      tx.args = core::encode_checkpoint_args(*advance);
      tx.gas_limit = 30'000'000;
      if (!w->base.execute_now(tx, t).success) throw std::runtime_error("checkpoint failed");
      checkpoint = chain.tip_hash();
    }
    std::vector<btc::Transaction> payments;
    for (; next < n && anchor_of[next] == a; ++next) {
      core::Invoice inv;
      inv.amount_sat = coin_value / 2;
      inv.compensation = 400;
      inv.pay_to = parties[next].script;
      inv.merchant_psc = merchant;
      inv.expires_at_ms = t + 100 * kHourMs;
      const core::FastPayPackage pkg =
          wallets[next]->create_fastpay(inv, coins[next], coin_value, t, 100 * kHourMs);
      txid[next] = pkg.payment_tx.txid();
      anchor_hash[next] = checkpoint;
      if (confirms[next]) payments.push_back(pkg.payment_tx);
      psc::PscTx tx;
      tx.from = merchant;
      tx.to = w->judger;
      tx.value = 500;
      tx.method = "openDispute";
      tx.args = core::encode_open_dispute_args(next + 1, pkg.binding);
      const auto r = w->base.execute_now(tx, t);
      if (!r.success) throw std::runtime_error("openDispute failed: " + r.revert_reason);
      t += 10;
    }
    mine(std::move(payments));
    for (int b = 1; b < kBlocksPerAnchor; ++b) mine({});
  }
  for (std::uint32_t d = 0; d < kDepth; ++d) mine({});
  w->evidence_ms = t + 1'000;
  w->judge_ms = t + kWindowMs + 1;

  // Deal the disputes into batches so that every batch carries the same
  // mix of anchors and of double-spent payments: the seed picks which
  // disputes land in a batch, not how costly the batch is. (The crash
  // drills time a single batch, so its mix must not vary with the seed.)
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::make_pair(anchor_of[a], confirms[a]) < std::make_pair(anchor_of[b], confirms[b]);
  });
  const std::size_t batches = (n + kStormBatch - 1) / kStormBatch;
  std::vector<std::vector<std::size_t>> members(batches);
  for (std::size_t k = 0; k < n; ++k) members[k % batches].push_back(order[k]);

  InputsDigest digest;
  digest.add_u64(seed);
  for (const auto& dealt : members) {
    StormBatch batch;
    for (const std::size_t i : dealt) {
      const auto headers = core::headers_since(chain, anchor_hash[i]);
      if (!headers || headers->empty() || headers->size() > 144) {
        throw std::runtime_error("bad merchant evidence chain");
      }
      psc::PscTx m;
      m.from = merchant;
      m.to = w->judger;
      m.method = "submitMerchantEvidence";
      m.args = core::encode_merchant_evidence_args(i + 1, *headers);
      m.gas_limit = 30'000'000;
      w->evidence_headers += headers->size();
      batch.evidence.push_back(std::move(m));
      if (confirms[i]) {
        const auto ev = core::build_inclusion_evidence(chain, anchor_hash[i], txid[i], kDepth);
        if (!ev) throw std::runtime_error("no inclusion evidence");
        psc::PscTx c;
        c.from = customer_addr[i];
        c.to = w->judger;
        c.method = "submitCustomerEvidence";
        c.args = core::encode_customer_evidence_args(i + 1, ev->headers, ev->proof,
                                                     ev->header_index);
        c.gas_limit = 30'000'000;
        w->evidence_headers += ev->headers.size();
        batch.evidence.push_back(std::move(c));
      }
      psc::PscTx j;
      j.from = merchant;
      j.to = w->judger;
      j.method = "judge";
      j.args = core::encode_escrow_id_arg(i + 1);
      batch.judges.push_back(std::move(j));
      batch.customer_wins.push_back(confirms[i]);
    }
    auto& ev = batch.evidence;
    for (std::size_t i = ev.size(); i > 1; --i) std::swap(ev[i - 1], ev[rng.below(i)]);
    for (const auto& tx : batch.evidence) add_tx(digest, tx);
    for (const auto& tx : batch.judges) add_tx(digest, tx);
    for (const bool win : batch.customer_wins) digest.add_u64(win ? 1 : 0);
    w->batches.push_back(std::move(batch));
  }
  w->inputs_digest = digest.hex();
  return w;
}

}  // namespace perfbench
