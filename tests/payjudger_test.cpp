// Contract-level tests for PayJudger: the escrow state machine, binding
// verification, PoW evidence validation, and the judgment rule. Drives
// the contract directly on a PscChain with evidence mined on a real (sim)
// Bitcoin chain.
#include <gtest/gtest.h>

#include "btc/pow.h"
#include "btcfast/customer.h"
#include "common/thread_pool.h"
#include "btcfast/evidence.h"
#include "btcfast/payjudger.h"
#include "btcsim/scenario.h"

namespace btcfast::core {
namespace {

using sim::Party;

constexpr std::uint64_t kHour = 60ULL * 60 * 1000;

struct JudgerFixture : ::testing::Test {
  JudgerFixture()
      : params(btc::ChainParams::regtest()),
        btc_chain(params),
        customer_party(Party::make(11)),
        merchant_party(Party::make(22)) {
    // Fund the customer and mature the coinbase.
    for (const auto& b :
         sim::build_funding_chain(params, {customer_party.script}, /*blocks_each=*/2)) {
      EXPECT_EQ(btc_chain.submit_block(b), btc::SubmitResult::kActiveTip);
    }

    cfg.pow_limit = params.pow_limit;
    cfg.initial_checkpoint = btc_chain.tip_hash();
    cfg.required_depth = 3;
    cfg.evidence_window_ms = kHour;
    cfg.min_collateral = 1'000;
    cfg.dispute_bond = 500;
    judger = psc.deploy("payjudger", std::make_unique<PayJudger>(cfg));

    psc.mint(customer_psc, 1'000'000'000);
    psc.mint(merchant_psc, 1'000'000'000);
    psc.mint(other_psc, 1'000'000'000);

    wallet = std::make_unique<CustomerWallet>(customer_party, customer_psc, /*escrow_id=*/1);
  }

  /// Mines `txs` into a block on the btc chain.
  void mine_block_with(std::vector<btc::Transaction> txs) {
    btc::Block b;
    b.header.prev_hash = btc_chain.tip_hash();
    b.header.time = btc_chain.tip_header().time + 600;
    b.header.bits = params.genesis_bits;
    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = btc_chain.height() + 1;
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{params.subsidy, merchant_party.script});
    b.txs.push_back(cb);
    for (auto& tx : txs) b.txs.push_back(std::move(tx));
    ASSERT_TRUE(btc::mine_block(b, params));
    ASSERT_EQ(btc_chain.submit_block(b), btc::SubmitResult::kActiveTip);
  }

  psc::Receipt deposit(psc::Value collateral = 100'000, std::uint64_t when = 0,
                       std::uint64_t unlock_delay = 24 * kHour) {
    return psc.execute_now(wallet->make_deposit_tx(judger, collateral, unlock_delay), when);
  }

  /// A signed binding for a payment of the customer's first coin.
  SignedBinding make_binding(psc::Value compensation, std::uint64_t expiry,
                             btc::Transaction* out_tx = nullptr) {
    const auto coins = sim::find_spendable(btc_chain, customer_party.script);
    EXPECT_FALSE(coins.empty());
    const auto [op, coin] = coins.front();
    Invoice inv;
    inv.amount_sat = coin.out.value / 2;
    inv.compensation = compensation;
    inv.pay_to = merchant_party.script;
    inv.merchant_psc = merchant_psc;
    inv.expires_at_ms = expiry;
    FastPayPackage pkg = wallet->create_fastpay(inv, op, coin.out.value, 0, expiry);
    if (out_tx != nullptr) *out_tx = pkg.payment_tx;
    return pkg.binding;
  }

  psc::Receipt open_dispute(const SignedBinding& binding, std::uint64_t when,
                            psc::Address from = {}, psc::Value bond = 500) {
    psc::PscTx tx;
    tx.from = from.is_zero() ? merchant_psc : from;
    tx.to = judger;
    tx.value = bond;
    tx.method = "openDispute";
    tx.args = encode_open_dispute_args(1, binding);
    return psc.execute_now(tx, when);
  }

  psc::Receipt submit_merchant_evidence(const std::vector<btc::BlockHeader>& headers,
                                        std::uint64_t when) {
    psc::PscTx tx;
    tx.from = merchant_psc;
    tx.to = judger;
    tx.method = "submitMerchantEvidence";
    tx.args = encode_merchant_evidence_args(1, headers);
    tx.gas_limit = 8'000'000;
    return psc.execute_now(tx, when);
  }

  psc::Receipt submit_customer_evidence(const InclusionEvidence& ev, std::uint64_t when) {
    psc::PscTx tx;
    tx.from = customer_psc;
    tx.to = judger;
    tx.method = "submitCustomerEvidence";
    tx.args = encode_customer_evidence_args(1, ev.headers, ev.proof, ev.header_index);
    tx.gas_limit = 8'000'000;
    return psc.execute_now(tx, when);
  }

  psc::Receipt judge_now(std::uint64_t when, psc::Address from = {}) {
    psc::PscTx tx;
    tx.from = from.is_zero() ? merchant_psc : from;
    tx.to = judger;
    tx.method = "judge";
    tx.args = encode_escrow_id_arg(1);
    return psc.execute_now(tx, when);
  }

  std::optional<EscrowView> view() {
    psc::PscTx q;
    q.from = customer_psc;
    q.to = judger;
    q.method = "getEscrow";
    q.args = encode_escrow_id_arg(1);
    const auto r = psc.view_call(q);
    if (!r.success) return std::nullopt;
    return PayJudger::decode_escrow_view(r.return_data);
  }

  btc::ChainParams params;
  btc::Chain btc_chain;
  Party customer_party;
  Party merchant_party;
  psc::PscChain psc;
  PayJudgerConfig cfg;
  psc::Address judger;
  psc::Address customer_psc = psc::Address::from_label("customer");
  psc::Address merchant_psc = psc::Address::from_label("merchant");
  psc::Address other_psc = psc::Address::from_label("other");
  std::unique_ptr<CustomerWallet> wallet;
};

TEST_F(JudgerFixture, DepositActivatesEscrow) {
  const auto r = deposit();
  ASSERT_TRUE(r.success) << r.revert_reason;
  const auto v = view();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->state, EscrowState::kActive);
  EXPECT_EQ(v->collateral, 100'000u);
  EXPECT_EQ(v->customer, customer_psc);
  const auto expected_key = customer_party.pub.serialize();
  EXPECT_TRUE(equal_bytes({v->customer_btc_key.data(), 33}, {expected_key.data(), 33}));
}

TEST_F(JudgerFixture, DepositRejectsDuplicateAndDust) {
  ASSERT_TRUE(deposit().success);
  EXPECT_EQ(deposit().revert_reason, "escrow-exists");

  CustomerWallet other(Party::make(33), other_psc, /*escrow_id=*/2);
  auto tx = other.make_deposit_tx(judger, /*collateral=*/10, 0);  // below min
  EXPECT_FALSE(psc.execute_now(tx, 0).success);
}

TEST_F(JudgerFixture, DepositRejectsInvalidPubkey) {
  ByteArray<33> bogus{};
  bogus[0] = 0x07;
  psc::PscTx tx;
  tx.from = customer_psc;
  tx.to = judger;
  tx.value = 100'000;
  tx.method = "deposit";
  tx.args = encode_deposit_args(5, 0, bogus);
  const auto r = psc.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "bad-pubkey");
}

TEST_F(JudgerFixture, WithdrawAfterUnlock) {
  ASSERT_TRUE(deposit(100'000, 0, /*unlock_delay=*/1000).success);
  // Too early.
  EXPECT_FALSE(psc.execute_now(wallet->make_withdraw_tx(judger), 500).success);
  // Wrong caller.
  psc::PscTx stolen = wallet->make_withdraw_tx(judger);
  stolen.from = merchant_psc;
  EXPECT_FALSE(psc.execute_now(stolen, 5000).success);
  // Rightful withdraw.
  const psc::Value before = psc.state().balance(customer_psc);
  const auto r = psc.execute_now(wallet->make_withdraw_tx(judger), 5000);
  ASSERT_TRUE(r.success) << r.revert_reason;
  EXPECT_EQ(psc.state().balance(customer_psc), before + 100'000 - r.gas_used);
  EXPECT_EQ(view()->state, EscrowState::kEmpty);
}

TEST_F(JudgerFixture, TopUpIncreasesCollateral) {
  ASSERT_TRUE(deposit().success);
  const auto r = psc.execute_now(wallet->make_topup_tx(judger, 50'000), 10);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(view()->collateral, 150'000u);
}

TEST_F(JudgerFixture, OpenDisputeHappyPath) {
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(40'000, /*expiry=*/10 * kHour);
  const auto r = open_dispute(binding, /*when=*/kHour);
  ASSERT_TRUE(r.success) << r.revert_reason;
  const auto v = view();
  EXPECT_EQ(v->state, EscrowState::kDisputed);
  EXPECT_EQ(v->dispute_merchant, merchant_psc);
  EXPECT_EQ(v->dispute_compensation, 40'000u);
  EXPECT_EQ(v->disputed_txid, binding.binding.btc_txid);
  EXPECT_EQ(v->dispute_anchor, cfg.initial_checkpoint);
  EXPECT_EQ(v->dispute_deadline_ms, kHour + cfg.evidence_window_ms);
}

TEST_F(JudgerFixture, OpenDisputeValidation) {
  ASSERT_TRUE(deposit().success);

  // Wrong caller (not the binding's merchant).
  auto b1 = make_binding(40'000, 10 * kHour);
  EXPECT_EQ(open_dispute(b1, kHour, other_psc).revert_reason, "not-binding-merchant");

  // Expired binding.
  auto b2 = make_binding(40'000, /*expiry=*/10);
  EXPECT_EQ(open_dispute(b2, kHour).revert_reason, "binding-expired");

  // Compensation exceeding collateral.
  auto b3 = make_binding(1'000'000, 10 * kHour);
  EXPECT_EQ(open_dispute(b3, kHour).revert_reason, "compensation-exceeds-collateral");

  // Tampered signature.
  auto b4 = make_binding(40'000, 10 * kHour);
  b4.customer_sig[3] ^= 1;
  EXPECT_EQ(open_dispute(b4, kHour).revert_reason, "bad-binding-signature");

  // Insufficient bond.
  auto b5 = make_binding(40'000, 10 * kHour);
  EXPECT_EQ(open_dispute(b5, kHour, {}, /*bond=*/1).revert_reason, "bond-too-small");
}

TEST_F(JudgerFixture, MerchantEvidenceAcceptedAndWeighed) {
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(40'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  // Mine 4 blocks after the checkpoint (payment NOT included).
  for (int i = 0; i < 4; ++i) mine_block_with({});
  const auto headers = headers_since(btc_chain, cfg.initial_checkpoint);
  ASSERT_TRUE(headers.has_value());
  ASSERT_EQ(headers->size(), 4u);

  const auto r = submit_merchant_evidence(*headers, kHour + 1000);
  ASSERT_TRUE(r.success) << r.revert_reason;
  const auto v = view();
  EXPECT_EQ(v->merchant_work, btc::header_work(params.genesis_bits) * crypto::U256(4));
}

TEST_F(JudgerFixture, EvidenceRejectsForgery) {
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(40'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  for (int i = 0; i < 3; ++i) mine_block_with({});
  auto headers = *headers_since(btc_chain, cfg.initial_checkpoint);

  // Broken link.
  auto broken = headers;
  broken[1].prev_hash.bytes[0] ^= 1;
  EXPECT_EQ(submit_merchant_evidence(broken, kHour + 1000).revert_reason,
            "evidence-broken-link");

  // Fake PoW (re-linked but not mined).
  auto fake = headers;
  fake[1].nonce ^= 0x77;
  fake[2].prev_hash = fake[1].hash();
  EXPECT_EQ(submit_merchant_evidence(fake, kHour + 1000).revert_reason, "evidence-bad-pow");

  // After the window closes.
  EXPECT_EQ(submit_merchant_evidence(headers, kHour + cfg.evidence_window_ms + 1).revert_reason,
            "evidence-window-closed");
}

TEST_F(JudgerFixture, CustomerEvidenceWithInclusionProof) {
  ASSERT_TRUE(deposit().success);
  btc::Transaction payment;
  const auto binding = make_binding(40'000, 10 * kHour, &payment);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  // Confirm the payment 1 block after the anchor, then bury it k-1 deeper.
  mine_block_with({payment});
  for (std::uint32_t i = 1; i < cfg.required_depth; ++i) mine_block_with({});

  const auto ev = build_inclusion_evidence(btc_chain, cfg.initial_checkpoint,
                                           payment.txid(), cfg.required_depth);
  ASSERT_TRUE(ev.has_value());
  const auto r = submit_customer_evidence(*ev, kHour + 1000);
  ASSERT_TRUE(r.success) << r.revert_reason;
  const auto v = view();
  EXPECT_TRUE(v->customer_proved);
  EXPECT_EQ(v->customer_work, btc::header_work(params.genesis_bits) *
                                  crypto::U256(cfg.required_depth));
}

TEST_F(JudgerFixture, CustomerEvidenceRejectsShallowProof) {
  ASSERT_TRUE(deposit().success);
  btc::Transaction payment;
  const auto binding = make_binding(40'000, 10 * kHour, &payment);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  mine_block_with({payment});  // only depth 1 < required 3
  const auto headers = *headers_since(btc_chain, cfg.initial_checkpoint);
  const auto block = btc_chain.block_at_height(btc_chain.height());
  const auto proof = btc::make_inclusion_proof(*block, payment.txid());
  ASSERT_TRUE(proof.has_value());
  InclusionEvidence ev{headers, *proof, 0};
  const auto r = submit_customer_evidence(ev, kHour + 1000);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.revert_reason.find("proof-too-shallow"), std::string::npos);
}

TEST_F(JudgerFixture, CustomerEvidenceRejectsWrongTx) {
  ASSERT_TRUE(deposit().success);
  btc::Transaction payment;
  const auto binding = make_binding(40'000, 10 * kHour, &payment);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  // Confirm a DIFFERENT tx and try to pass its proof off.
  mine_block_with({});
  for (std::uint32_t i = 1; i < cfg.required_depth; ++i) mine_block_with({});
  const auto headers = *headers_since(btc_chain, cfg.initial_checkpoint);
  const auto block = btc_chain.block_at_height(
      btc_chain.height() - cfg.required_depth + 1);
  const auto proof = btc::make_inclusion_proof(*block, block->txs[0].txid());
  ASSERT_TRUE(proof.has_value());
  InclusionEvidence ev{headers, *proof, 0};
  const auto r = submit_customer_evidence(ev, kHour + 1000);
  EXPECT_EQ(r.revert_reason, "proof-wrong-txid");
}

TEST_F(JudgerFixture, JudgeForMerchantWhenCustomerSilent) {
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(40'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  for (int i = 0; i < 4; ++i) mine_block_with({});
  ASSERT_TRUE(
      submit_merchant_evidence(*headers_since(btc_chain, cfg.initial_checkpoint), kHour + 1)
          .success);

  // Too early.
  EXPECT_EQ(judge_now(kHour + 10).revert_reason, "evidence-window-open");

  const psc::Value merchant_before = psc.state().balance(merchant_psc);
  const auto r = judge_now(kHour + cfg.evidence_window_ms + 1);
  ASSERT_TRUE(r.success) << r.revert_reason;
  // Merchant receives compensation + bond back.
  EXPECT_EQ(psc.state().balance(merchant_psc),
            merchant_before + 40'000 + cfg.dispute_bond - r.gas_used);
  const auto v = view();
  EXPECT_EQ(v->state, EscrowState::kActive);
  EXPECT_EQ(v->collateral, 60'000u);
}

TEST_F(JudgerFixture, JudgeForCustomerWithProof) {
  ASSERT_TRUE(deposit().success);
  btc::Transaction payment;
  const auto binding = make_binding(40'000, 10 * kHour, &payment);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  mine_block_with({payment});
  for (std::uint32_t i = 1; i < cfg.required_depth + 1; ++i) mine_block_with({});

  // Merchant submits (the same, honest) chain — it can't help but include
  // the payment's block; the customer proves inclusion on it.
  const auto headers = *headers_since(btc_chain, cfg.initial_checkpoint);
  ASSERT_TRUE(submit_merchant_evidence(headers, kHour + 1).success);
  const auto ev = build_inclusion_evidence(btc_chain, cfg.initial_checkpoint, payment.txid(),
                                           cfg.required_depth);
  ASSERT_TRUE(ev.has_value());
  ASSERT_TRUE(submit_customer_evidence(*ev, kHour + 2).success);

  const psc::Value customer_before = psc.state().balance(customer_psc);
  const auto r = judge_now(kHour + cfg.evidence_window_ms + 1, other_psc);
  ASSERT_TRUE(r.success) << r.revert_reason;
  // Customer wins: collateral intact, bond forfeited to the customer.
  const auto v = view();
  EXPECT_EQ(v->state, EscrowState::kActive);
  EXPECT_EQ(v->collateral, 100'000u);
  EXPECT_EQ(psc.state().balance(customer_psc), customer_before + cfg.dispute_bond);
}

TEST_F(JudgerFixture, FraudulentCustomerChainLosesOnWeight) {
  ASSERT_TRUE(deposit().success);
  btc::Transaction payment;
  const auto binding = make_binding(40'000, 10 * kHour, &payment);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  // Honest chain: 6 empty blocks (payment missing) — merchant evidence.
  for (int i = 0; i < 6; ++i) mine_block_with({});
  ASSERT_TRUE(
      submit_merchant_evidence(*headers_since(btc_chain, cfg.initial_checkpoint), kHour + 1)
          .success);

  // Fraudulent customer: a private 3-block fork containing the payment.
  btc::Chain fork(params);
  for (const auto& b : sim::build_funding_chain(params, {customer_party.script}, 2)) {
    ASSERT_EQ(fork.submit_block(b), btc::SubmitResult::kActiveTip);
  }
  ASSERT_EQ(fork.tip_hash(), cfg.initial_checkpoint);
  {
    btc::Block b;
    b.header.prev_hash = fork.tip_hash();
    b.header.time = fork.tip_header().time + 600;
    b.header.bits = params.genesis_bits;
    btc::Transaction cb;
    btc::TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = 0x7000;
    cb.inputs.push_back(in);
    cb.outputs.push_back(btc::TxOut{params.subsidy, customer_party.script});
    b.txs.push_back(cb);
    b.txs.push_back(payment);
    ASSERT_TRUE(btc::mine_block(b, params));
    ASSERT_EQ(fork.submit_block(b), btc::SubmitResult::kActiveTip);
    // Extend the fork privately to depth 3.
    btc::BlockHash parent = b.hash();
    std::uint32_t t = b.header.time;
    std::vector<btc::Block> fork_blocks{b};
    for (int i = 0; i < 2; ++i) {
      btc::Block c;
      c.header.prev_hash = parent;
      c.header.time = ++t;
      c.header.bits = params.genesis_bits;
      btc::Transaction cb2;
      btc::TxIn in2;
      in2.prevout.index = 0xffffffff;
      in2.sequence = 0x7100 + static_cast<std::uint32_t>(i);
      cb2.inputs.push_back(in2);
      cb2.outputs.push_back(btc::TxOut{params.subsidy, customer_party.script});
      c.txs.push_back(cb2);
      ASSERT_TRUE(btc::mine_block(c, params));
      parent = c.hash();
      fork_blocks.push_back(c);
    }

    // Customer submits the fraudulent fork evidence (3 headers, proof in #0).
    std::vector<btc::BlockHeader> fraud_headers;
    for (const auto& fb : fork_blocks) fraud_headers.push_back(fb.header);
    const auto proof = btc::make_inclusion_proof(fork_blocks[0], payment.txid());
    ASSERT_TRUE(proof.has_value());
    InclusionEvidence ev{fraud_headers, *proof, 0};
    ASSERT_TRUE(submit_customer_evidence(ev, kHour + 2).success);
  }

  // Judgment: fraud chain (3 blocks) < honest chain (6 blocks) → merchant.
  const auto r = judge_now(kHour + cfg.evidence_window_ms + 1);
  ASSERT_TRUE(r.success);
  const auto v = view();
  EXPECT_EQ(v->collateral, 60'000u);
  bool merchant_won = false;
  for (const auto& log : psc.logs()) merchant_won |= (log.topic == "JudgedForMerchant");
  EXPECT_TRUE(merchant_won);
}

TEST_F(JudgerFixture, BindingReplayBlocked) {
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(10'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);
  ASSERT_TRUE(judge_now(kHour + cfg.evidence_window_ms + 1).success);  // merchant wins by default
  EXPECT_EQ(view()->state, EscrowState::kActive);
  // Same binding cannot be disputed twice.
  EXPECT_EQ(open_dispute(binding, kHour + cfg.evidence_window_ms + 2).revert_reason,
            "binding-already-disputed");
}

TEST_F(JudgerFixture, CheckpointUpdateAdvances) {
  for (int i = 0; i < 5; ++i) mine_block_with({});
  const auto headers = *headers_since(btc_chain, cfg.initial_checkpoint);

  psc::PscTx tx;
  tx.from = other_psc;
  tx.to = judger;
  tx.method = "updateCheckpoint";
  tx.args = encode_checkpoint_args(headers);
  tx.gas_limit = 8'000'000;
  const auto r = psc.execute_now(tx, 0);
  ASSERT_TRUE(r.success) << r.revert_reason;

  // Read it back.
  psc::PscTx q;
  q.from = other_psc;
  q.to = judger;
  q.method = "getCheckpoint";
  const auto view_r = psc.view_call(q);
  ASSERT_TRUE(view_r.success);
  Reader reader({view_r.return_data.data(), view_r.return_data.size()});
  const auto hash = reader.bytes(32);
  const auto height = reader.u64le();
  ASSERT_TRUE(hash && height);
  EXPECT_TRUE(equal_bytes({hash->data(), 32}, {btc_chain.tip_hash().bytes.data(), 32}));
  EXPECT_EQ(*height, 5u);

  // A dispute opened now anchors at the new checkpoint.
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(10'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);
  EXPECT_EQ(view()->dispute_anchor, btc_chain.tip_hash());
}

TEST_F(JudgerFixture, WithdrawBlockedDuringDispute) {
  ASSERT_TRUE(deposit(100'000, 0, /*unlock_delay=*/1).success);
  const auto binding = make_binding(10'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);
  const auto r = psc.execute_now(wallet->make_withdraw_tx(judger), 2 * kHour);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.revert_reason.find("escrow-not-active"), std::string::npos);
}

TEST_F(JudgerFixture, EvidenceExactlyAtDeadlineCounts) {
  // The window is inclusive: evidence landing at the exact deadline
  // millisecond must count for BOTH sides, and judgment stays blocked
  // until strictly after it.
  ASSERT_TRUE(deposit().success);
  btc::Transaction payment;
  const auto binding = make_binding(40'000, 10 * kHour, &payment);
  ASSERT_TRUE(open_dispute(binding, kHour).success);
  const std::uint64_t deadline = view()->dispute_deadline_ms;
  EXPECT_EQ(deadline, kHour + cfg.evidence_window_ms);

  mine_block_with({payment});
  for (std::uint32_t i = 1; i < cfg.required_depth; ++i) mine_block_with({});

  const auto headers = *headers_since(btc_chain, cfg.initial_checkpoint);
  ASSERT_TRUE(submit_merchant_evidence(headers, deadline).success);
  const auto ev = build_inclusion_evidence(btc_chain, cfg.initial_checkpoint, payment.txid(),
                                           cfg.required_depth);
  ASSERT_TRUE(ev.has_value());
  ASSERT_TRUE(submit_customer_evidence(*ev, deadline).success);
  EXPECT_TRUE(view()->customer_proved);

  // One millisecond later the window is closed for evidence...
  const auto late = submit_merchant_evidence(headers, deadline + 1);
  EXPECT_FALSE(late.success);
  EXPECT_NE(late.revert_reason.find("evidence-window-closed"), std::string::npos);
  // ...while judgment flips the other way across the same boundary.
  EXPECT_EQ(judge_now(deadline).revert_reason, "evidence-window-open");
  ASSERT_TRUE(judge_now(deadline + 1).success);
  EXPECT_EQ(view()->state, EscrowState::kActive);
}

TEST_F(JudgerFixture, DuplicateOpenDisputeRejected) {
  // One dispute at a time: a second openDispute while the escrow is
  // DISPUTED reverts (same binding or a fresh one), and the failed
  // call's bond is rolled back with the revert.
  ASSERT_TRUE(deposit().success);
  const auto binding = make_binding(40'000, 10 * kHour);
  ASSERT_TRUE(open_dispute(binding, kHour).success);

  const psc::Value merchant_before = psc.state().balance(merchant_psc);
  const auto dup = open_dispute(binding, kHour + 1000);
  EXPECT_FALSE(dup.success);
  EXPECT_NE(dup.revert_reason.find("escrow-not-active"), std::string::npos);
  EXPECT_EQ(psc.state().balance(merchant_psc), merchant_before - dup.gas_used);

  const auto other_binding = make_binding(20'000, 10 * kHour);
  const auto second = open_dispute(other_binding, kHour + 2000);
  EXPECT_FALSE(second.success);
  EXPECT_NE(second.revert_reason.find("escrow-not-active"), std::string::npos);
  // Still exactly one dispute recorded against the original binding.
  const auto v = view();
  EXPECT_EQ(v->state, EscrowState::kDisputed);
  EXPECT_EQ(v->dispute_compensation, 40'000u);
}

TEST_F(JudgerFixture, DisputeAfterWithdrawalRejected) {
  // A binding can outlive the escrow: once the customer withdraws, a
  // later openDispute must revert and cost the merchant nothing but gas.
  // (The merchant fast path refuses such bindings up front by requiring
  // unlock_time >= binding expiry; this is the contract-level backstop.)
  ASSERT_TRUE(deposit(100'000, 0, /*unlock_delay=*/1000).success);
  const auto binding = make_binding(40'000, 10 * kHour);
  ASSERT_TRUE(psc.execute_now(wallet->make_withdraw_tx(judger), 5000).success);
  EXPECT_EQ(view()->state, EscrowState::kEmpty);

  const psc::Value merchant_before = psc.state().balance(merchant_psc);
  const auto r = open_dispute(binding, 6000);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.revert_reason.find("escrow-not-active"), std::string::npos);
  EXPECT_EQ(psc.state().balance(merchant_psc), merchant_before - r.gas_used);
  EXPECT_EQ(view()->state, EscrowState::kEmpty);
  EXPECT_EQ(view()->collateral, 0u);
}

TEST_F(JudgerFixture, MalformedHeaderFramingRevertsExactly) {
  // Every method that carries a header run reverts on malformed framing
  // with one fixed reason at one fixed gas: framing is checked after the
  // argument layout and the dispute state, before any header is hashed.
  ASSERT_TRUE(deposit().success);
  ASSERT_TRUE(open_dispute(make_binding(40'000, 10 * kHour), kHour).success);

  const auto framed = [](std::uint64_t count, std::size_t body_bytes) {
    Writer w;
    w.varint(count);
    w.bytes(Bytes(body_bytes, 0x5a));
    return std::move(w).take();
  };
  enum Outer { kExact, kOverrun, kTrailingArg };
  struct Case {
    const char* name;
    Bytes blob;
    Outer outer;
    const char* reason;
    psc::Gas gas[3];  ///< merchant evidence, customer evidence, checkpoint
  };
  const Case cases[] = {
      {"count 0", framed(0, 0), kExact, "evidence-empty", {24068, 26386, 22136}},
      {"count 145", framed(145, 145 * 80), kExact, "evidence-too-long: max 144 headers",
       {244506, 246824, 242574}},
      {"short body", framed(3, 3 * 80 - 1), kExact, "bad-headers-encoding", {27767, 30085, 25835}},
      {"trailing byte", framed(1, 81), kExact, "bad-headers-encoding", {24765, 27083, 22833}},
      {"bad outer length", framed(1, 80), kOverrun, "bad-args", {23138, 25456, 22890}},
      {"trailing argument", framed(1, 80), kTrailingArg, "bad-args", {23081, 25399, 22833}},
  };
  const Bytes proof = btc::TxInclusionProof{}.serialize();  // decodes fine
  const char* methods[] = {"submitMerchantEvidence", "submitCustomerEvidence",
                           "updateCheckpoint"};
  for (const Case& c : cases) {
    for (std::size_t m = 0; m < 3; ++m) {
      Writer w;
      if (m != 2) w.u64le(1);
      if (c.outer == kOverrun) {
        w.varint(1 << 20);  // within the cap, past the end of the args
        w.bytes(c.blob);
      } else {
        w.bytes_with_len(c.blob);
      }
      if (m == 1) {
        w.bytes_with_len(proof);
        w.u32le(0);
      }
      if (c.outer == kTrailingArg) w.u8(0);
      psc::PscTx tx;
      tx.from = merchant_psc;
      tx.to = judger;
      tx.method = methods[m];
      tx.args = std::move(w).take();
      tx.gas_limit = 8'000'000;
      const auto r = psc.execute_now(tx, kHour + 1000);
      EXPECT_FALSE(r.success) << c.name << " / " << methods[m];
      EXPECT_EQ(r.revert_reason, c.reason) << c.name << " / " << methods[m];
      EXPECT_EQ(r.gas_used, c.gas[m]) << c.name << " / " << methods[m];
    }
  }
}

TEST_F(JudgerFixture, GasCostsAreSane) {
  const auto r = deposit();
  ASSERT_TRUE(r.success);
  // A deposit should cost the same order as an ERC-20-ish state write op:
  // tens of thousands of gas, not millions.
  EXPECT_GT(r.gas_used, 21'000u);
  EXPECT_LT(r.gas_used, 400'000u);
}

// Counts provider calls and serves correct digests — the contract-side
// seam the dispute storm engine plugs into. Gas and verdicts must not
// depend on whether a provider is attached or how many pool threads run.
struct CountingProvider final : HeaderDigestProvider {
  std::size_t calls = 0;
  std::size_t headers = 0;
  void batch_digests(const std::vector<btc::BlockHeader>& hs,
                     crypto::Sha256Digest* out) override {
    ++calls;
    headers += hs.size();
    for (std::size_t i = 0; i < hs.size(); ++i) {
      std::uint8_t ser[80];
      hs[i].serialize_into(ser);
      out[i] = crypto::sha256d_80(ser);
    }
  }
};

TEST(EvidenceGasDeterminism, ThreadsAndDigestProviderChangeNothing) {
  struct World : JudgerFixture {
    void TestBody() override {}
  };
  struct Outcome {
    bool ok = false;
    std::string reason;
    psc::Gas gas = 0;
    psc::Gas total_gas = 0;
    crypto::U256 work;
  };
  const auto run = [](std::size_t threads, bool with_provider) {
    common::ThreadPool::configure_global(threads);
    World w;
    EXPECT_TRUE(w.deposit().success);
    btc::Transaction pay_tx;
    const auto binding = w.make_binding(400, 2 * kHour, &pay_tx);
    EXPECT_TRUE(w.open_dispute(binding, 10).success);
    w.mine_block_with({pay_tx});
    for (int i = 0; i < 5; ++i) w.mine_block_with({});

    CountingProvider provider;
    auto* judger = dynamic_cast<PayJudger*>(w.psc.contract(w.judger));
    EXPECT_NE(judger, nullptr);
    if (with_provider) judger->set_digest_provider(&provider);

    const auto headers = headers_since(w.btc_chain, w.cfg.initial_checkpoint);
    EXPECT_TRUE(headers.has_value());
    Outcome o;
    if (headers) {
      const auto r = w.submit_merchant_evidence(*headers, 20);
      o.ok = r.success;
      o.reason = r.revert_reason;
      o.gas = r.gas_used;
    }
    o.total_gas = w.psc.total_gas_used();
    if (const auto v = w.view()) o.work = v->merchant_work;
    if (with_provider) {
      EXPECT_EQ(provider.calls, 1u);
      EXPECT_GT(provider.headers, 0u);
      judger->set_digest_provider(nullptr);
    } else {
      EXPECT_EQ(provider.calls, 0u);
    }
    return o;
  };

  const Outcome reference = run(0, false);
  EXPECT_TRUE(reference.ok) << reference.reason;
  EXPECT_GT(reference.gas, 0u);
  EXPECT_NE(reference.work, crypto::U256::zero());
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
    for (const bool with_provider : {false, true}) {
      const Outcome o = run(threads, with_provider);
      EXPECT_EQ(o.ok, reference.ok) << threads << "/" << with_provider;
      EXPECT_EQ(o.reason, reference.reason) << threads << "/" << with_provider;
      EXPECT_EQ(o.gas, reference.gas) << threads << "/" << with_provider;
      EXPECT_EQ(o.total_gas, reference.total_gas) << threads << "/" << with_provider;
      EXPECT_EQ(o.work, reference.work) << threads << "/" << with_provider;
    }
  }
  common::ThreadPool::configure_global(0);
}

}  // namespace
}  // namespace btcfast::core
