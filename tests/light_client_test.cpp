// SPV light-client tests on the header tree (dispute::HeaderSyncManager):
// header sync, heaviest-chain tracking, proof acceptance and reorg
// awareness.
#include <gtest/gtest.h>

#include "btc/chain.h"
#include "btc/pow.h"
#include "btcsim/scenario.h"
#include "dispute/header_sync.h"

namespace btcfast::btc {
namespace {

struct SpvFixture : ::testing::Test {
  SpvFixture() : params(ChainParams::regtest()), chain(params), client(params) {
    dest = sim::Party::make(1).script;
  }

  Block mine_one(Chain& on, std::uint32_t salt = 0, std::vector<Transaction> txs = {}) {
    Block b;
    b.header.prev_hash = on.tip_hash();
    b.header.time = on.tip_header().time + 600;
    b.header.bits = on.next_work_required(b.header.prev_hash);
    Transaction cb;
    TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = (on.height() + 1) * 100 + salt;
    cb.inputs.push_back(in);
    cb.outputs.push_back(TxOut{params.subsidy, dest});
    b.txs.push_back(cb);
    for (auto& tx : txs) b.txs.push_back(std::move(tx));
    EXPECT_TRUE(mine_block(b, params));
    EXPECT_EQ(on.submit_block(b), SubmitResult::kActiveTip);
    return b;
  }

  /// Feed one header; true iff it connected to the tree.
  bool add(const BlockHeader& header) { return client.accept_headers({header}).connected == 1; }

  ChainParams params;
  Chain chain;
  dispute::HeaderSyncManager client;
  ScriptPubKey dest;
};

TEST_F(SpvFixture, StartsAtSharedGenesis) {
  EXPECT_EQ(client.tip_height(), 0u);
  EXPECT_EQ(client.tip_hash(), chain.tip_hash());
}

TEST_F(SpvFixture, SyncsHeaders) {
  for (int i = 0; i < 5; ++i) mine_one(chain);
  ASSERT_EQ(client.accept_headers(chain.header_range(1, 5)).connected, 5u);
  EXPECT_EQ(client.tip_height(), 5u);
  EXPECT_EQ(client.tip_hash(), chain.tip_hash());
}

TEST_F(SpvFixture, RejectsOrphansAndFakePow) {
  Block b = mine_one(chain);
  BlockHeader orphan = b.header;
  orphan.prev_hash.bytes[0] ^= 1;
  EXPECT_EQ(client.accept_headers({orphan}).orphaned, 1u);

  BlockHeader fake = b.header;
  fake.nonce ^= 0x1234;
  EXPECT_EQ(client.accept_headers({fake}).rejected, 1u);

  // Static difficulty: valid PoW at a harder target than the genesis
  // bits is still refused.
  BlockHeader off_bits = b.header;
  off_bits.bits = target_to_bits(params.pow_limit >> 1);
  while (!check_proof_of_work(off_bits, params.pow_limit)) ++off_bits.nonce;
  EXPECT_EQ(client.accept_headers({off_bits}).rejected, 1u);
  EXPECT_EQ(client.tip_height(), 0u);
}

TEST_F(SpvFixture, IdempotentHeaderAdd) {
  Block b = mine_one(chain);
  ASSERT_TRUE(add(b.header));
  EXPECT_EQ(client.accept_headers({b.header}).known, 1u);
  EXPECT_EQ(client.tip_height(), 1u);
}

TEST_F(SpvFixture, ProofGivesConfirmations) {
  // A watched payment proves into block 1 and gains depth as headers sync.
  const auto customer = sim::Party::make(2);
  Chain funded(params);
  for (const auto& blk : sim::build_funding_chain(params, {customer.script}, 1)) {
    ASSERT_EQ(funded.submit_block(blk), SubmitResult::kActiveTip);
    ASSERT_TRUE(add(blk.header));
  }
  const auto coins = sim::find_spendable(funded, customer.script);
  const auto payment = sim::build_payment(customer, coins[0].first,
                                          coins[0].second.out.value, dest, kCoin);
  client.watch(payment.txid());

  // Mine it plus some depth on the funded chain.
  Block with_tx;
  {
    Block b;
    b.header.prev_hash = funded.tip_hash();
    b.header.time = funded.tip_header().time + 600;
    b.header.bits = funded.next_work_required(b.header.prev_hash);
    Transaction cb;
    TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = 777;
    cb.inputs.push_back(in);
    cb.outputs.push_back(TxOut{params.subsidy, dest});
    b.txs.push_back(cb);
    b.txs.push_back(payment);
    ASSERT_TRUE(mine_block(b, params));
    ASSERT_EQ(funded.submit_block(b), SubmitResult::kActiveTip);
    with_tx = b;
  }
  ASSERT_TRUE(add(with_tx.header));

  // Proof before + after depth.
  const auto proof = make_inclusion_proof(with_tx, payment.txid());
  ASSERT_TRUE(proof.has_value());
  ASSERT_TRUE(client.submit_proof(*proof).ok());
  EXPECT_EQ(client.confirmations(payment.txid()), 1u);

  for (int i = 0; i < 3; ++i) {
    Block b;
    b.header.prev_hash = funded.tip_hash();
    b.header.time = funded.tip_header().time + 600;
    b.header.bits = funded.next_work_required(b.header.prev_hash);
    Transaction cb;
    TxIn in;
    in.prevout.index = 0xffffffff;
    in.sequence = 800 + static_cast<std::uint32_t>(i);
    cb.inputs.push_back(in);
    cb.outputs.push_back(TxOut{params.subsidy, dest});
    b.txs.push_back(cb);
    ASSERT_TRUE(mine_block(b, params));
    ASSERT_EQ(funded.submit_block(b), SubmitResult::kActiveTip);
    ASSERT_TRUE(add(b.header));
  }
  EXPECT_EQ(client.confirmations(payment.txid()), 4u);
}

TEST_F(SpvFixture, ProofRequiresWatchAndKnownHeader) {
  Block b = mine_one(chain);
  const auto proof = make_inclusion_proof(b, b.txs[0].txid());
  ASSERT_TRUE(proof.has_value());
  // Not watching -> refused.
  EXPECT_FALSE(client.is_watching(b.txs[0].txid()));
  EXPECT_EQ(client.submit_proof(*proof).error().code, "spv-not-watching");
  client.watch(b.txs[0].txid());
  EXPECT_TRUE(client.is_watching(b.txs[0].txid()));
  // Header unknown -> refused.
  EXPECT_EQ(client.submit_proof(*proof).error().code, "spv-unknown-header");
  ASSERT_TRUE(add(b.header));
  EXPECT_TRUE(client.submit_proof(*proof).ok());
}

TEST_F(SpvFixture, TamperedProofRefused) {
  Block b = mine_one(chain);
  client.watch(b.txs[0].txid());
  ASSERT_TRUE(add(b.header));
  auto proof = *make_inclusion_proof(b, b.txs[0].txid());
  proof.branch.index ^= 1;
  // Single-tx block has no siblings; corrupt the root reference instead.
  proof.header.merkle_root.bytes[0] ^= 1;
  EXPECT_FALSE(client.submit_proof(proof).ok());

  // A known header with a branch that does not reach its root.
  auto wrong_leaf = *make_inclusion_proof(b, b.txs[0].txid());
  wrong_leaf.txid.bytes[0] ^= 1;
  client.watch(wrong_leaf.txid);
  EXPECT_EQ(client.submit_proof(wrong_leaf).error().code, "spv-bad-proof");
  EXPECT_EQ(client.confirmations(wrong_leaf.txid), 0u);
}

TEST_F(SpvFixture, ReorgInvalidatesConfirmations) {
  // Proof lands on branch A; a heavier branch B takes over; confirmations
  // drop to zero because the proof's block left the active chain.
  Block a1 = mine_one(chain, 1);
  client.watch(a1.txs[0].txid());
  ASSERT_TRUE(add(a1.header));
  ASSERT_TRUE(client.submit_proof(*make_inclusion_proof(a1, a1.txs[0].txid())).ok());
  EXPECT_EQ(client.confirmations(a1.txs[0].txid()), 1u);

  // Rival branch from genesis, two blocks.
  Chain rival(params);
  Block b1 = mine_one(rival, 2);
  Block b2 = mine_one(rival, 3);
  ASSERT_TRUE(add(b1.header));
  ASSERT_TRUE(add(b2.header));

  EXPECT_EQ(client.tip_hash(), b2.hash());
  EXPECT_EQ(client.confirmations(a1.txs[0].txid()), 0u);

  // Branch A regains the lead: confirmations return.
  Block a2 = mine_one(chain, 4);
  Block a3 = mine_one(chain, 5);
  ASSERT_TRUE(add(a2.header));
  ASSERT_TRUE(add(a3.header));
  EXPECT_EQ(client.confirmations(a1.txs[0].txid()), 3u);
}

}  // namespace
}  // namespace btcfast::btc
