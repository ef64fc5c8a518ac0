// Tests for the PSC chain substrate: world state, gas metering, tx
// execution semantics (success, revert, out-of-gas, fees), value
// transfer, logs and view calls.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/serialize.h"
#include "psc/chain.h"

namespace btcfast::psc {
namespace {

// Storm replays start each run from a copy of a base chain.
static_assert(std::is_copy_constructible_v<PscChain> && std::is_copy_assignable_v<PscChain>);

/// Toy contract: a counter with a paid increment and a method that burns
/// unbounded gas, plus a payout method. Exercises the host surface.
class Counter final : public Contract {
 public:
  Status call(HostContext& host, const std::string& method, ByteSpan args, Bytes* ret) override {
    const Slot key = crypto::U256(1);
    if (method == "increment") {
      const Slot cur = host.sload(key);
      host.sstore(key, crypto::U256(cur.low64() + 1));
      host.emit_log("Incremented");
      return Status::success();
    }
    if (method == "get") {
      const Slot cur = host.sload(key);
      Writer w;
      w.u64le(cur.low64());
      *ret = std::move(w).take();
      return Status::success();
    }
    if (method == "spin") {
      for (;;) host.charge_compute(1'000);  // burns gas until OutOfGas
    }
    if (method == "fail") return make_error("deliberate-failure");
    if (method == "throw") {  // a contract bug: writes, then escapes
      host.sstore(key, crypto::U256(host.sload(key).low64() + 1));
      throw std::runtime_error("contract bug");
    }
    if (method == "payout") {
      Reader r(args);
      auto amount = r.u64le();
      auto to = r.bytes(20);
      if (!amount || !to) return make_error("bad-args");
      Address dest;
      dest.bytes = to_array<20>(*to);
      if (!host.transfer_out(dest, *amount)) return make_error("insufficient");
      return Status::success();
    }
    if (method == "hash") {
      (void)host.sha256(args);
      return Status::success();
    }
    return make_error("unknown-method", method);
  }
};

struct PscFixture : ::testing::Test {
  PscFixture() {
    contract = chain.deploy("counter", std::make_unique<Counter>());
    chain.mint(alice, 10'000'000);
    chain.mint(bob, 5'000'000);
  }

  PscTx make_call(const std::string& method, Bytes args = {}, Value value = 0) {
    PscTx tx;
    tx.from = alice;
    tx.to = contract;
    tx.method = method;
    tx.args = std::move(args);
    tx.value = value;
    return tx;
  }

  PscChain chain;
  Address contract;
  Address alice = Address::from_label("alice");
  Address bob = Address::from_label("bob");
};

TEST_F(PscFixture, PlainTransferMovesValue) {
  PscTx tx;
  tx.from = alice;
  tx.to = bob;
  tx.value = 1000;
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(chain.state().balance(bob), 5'001'000u);
  EXPECT_EQ(r.gas_used, chain.schedule().tx_base);
}

TEST_F(PscFixture, FeesAreDeducted) {
  PscTx tx;
  tx.from = alice;
  tx.to = bob;
  tx.value = 1000;
  tx.gas_price = 2;
  const Value before = chain.state().balance(alice);
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_EQ(chain.state().balance(alice), before - 1000 - r.gas_used * 2);
}

TEST_F(PscFixture, ContractCallMutatesStorage) {
  EXPECT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  EXPECT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const Receipt r = chain.execute_now(make_call("get"), 0);
  ASSERT_TRUE(r.success);
  Reader reader({r.return_data.data(), r.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 2u);
}

TEST_F(PscFixture, RevertUndoesEverything) {
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const Value alice_before = chain.state().balance(alice);

  // A failing call with attached value: value must bounce back.
  const Receipt r = chain.execute_now(make_call("fail", {}, 500), 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "deliberate-failure");
  EXPECT_EQ(chain.state().balance(contract), 0u);
  // Alice lost only the gas fee, not the value.
  EXPECT_EQ(chain.state().balance(alice), alice_before - r.gas_used * 1);

  // Counter unchanged.
  const Receipt g = chain.execute_now(make_call("get"), 0);
  Reader reader({g.return_data.data(), g.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 1u);
}

TEST_F(PscFixture, OutOfGasChargesFullLimit) {
  PscTx tx = make_call("spin");
  tx.gas_limit = 100'000;
  const Value before = chain.state().balance(alice);
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "out of gas");
  EXPECT_EQ(r.gas_used, 100'000u);
  EXPECT_EQ(chain.state().balance(alice), before - 100'000);
}

TEST_F(PscFixture, IntrinsicGasRejection) {
  PscTx tx = make_call("increment");
  tx.gas_limit = 100;  // below tx_base
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.revert_reason, "intrinsic gas exceeds limit");
}

TEST_F(PscFixture, InsufficientBalanceRejected) {
  PscTx tx;
  tx.from = Address::from_label("pauper");
  tx.to = bob;
  tx.value = 1;
  const Receipt r = chain.execute_now(tx, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain.state().balance(bob), 5'000'000u);
}

TEST_F(PscFixture, ValueReachesContractAndCanBePaidOut) {
  ASSERT_TRUE(chain.execute_now(make_call("increment", {}, 2000), 0).success);
  EXPECT_EQ(chain.state().balance(contract), 2000u);

  Writer w;
  w.u64le(1500);
  w.bytes({bob.bytes.data(), bob.bytes.size()});
  const Receipt r = chain.execute_now(make_call("payout", std::move(w).take()), 0);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(chain.state().balance(contract), 500u);
  EXPECT_EQ(chain.state().balance(bob), 5'001'500u);
}

TEST_F(PscFixture, PayoutBeyondBalanceReverts) {
  Writer w;
  w.u64le(999'999);
  w.bytes({bob.bytes.data(), bob.bytes.size()});
  const Receipt r = chain.execute_now(make_call("payout", std::move(w).take()), 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(chain.state().balance(bob), 5'000'000u);
}

TEST_F(PscFixture, LogsRecordedOnSuccessOnly) {
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  ASSERT_FALSE(chain.execute_now(make_call("fail"), 0).success);
  std::size_t incremented = 0;
  for (const auto& log : chain.logs()) incremented += (log.topic == "Incremented");
  EXPECT_EQ(incremented, 1u);
}

TEST_F(PscFixture, ViewCallLeavesStateUntouched) {
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const Receipt r = chain.view_call(make_call("increment"));
  EXPECT_TRUE(r.success);
  // State unchanged by the view.
  const Receipt g = chain.execute_now(make_call("get"), 0);
  Reader reader({g.return_data.data(), g.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 1u);
}

TEST_F(PscFixture, ViewCallLeavesWorldStateByteIdentical) {
  // Views run on the live state and revert it, so everything a real
  // transaction would touch must come back exactly: the value moved to
  // the contract, a slot created from zero, the caller's fee and nonce,
  // the fee sink — and accounts created only by the view must vanish.
  const Address fee_sink = Address::from_label("psc/fee-sink");
  const Address stranger = Address::from_label("stranger");
  PscTx to_stranger;
  to_stranger.from = alice;
  to_stranger.to = stranger;
  to_stranger.value = 0;
  for (int round = 0; round < 2; ++round) {  // fresh slot, then existing slot
    const WorldState before = chain.state();
    const Value alice_balance = chain.state().balance(alice);
    const std::uint64_t alice_nonce = chain.state().nonce(alice);
    const Value sink_balance = chain.state().balance(fee_sink);
    const Slot slot = chain.state().storage_load(contract, crypto::U256(1));
    const std::size_t accounts = chain.state().account_count();

    const Receipt inc = chain.view_call(make_call("increment", {}, 700));
    EXPECT_TRUE(inc.success);
    EXPECT_GT(inc.gas_used, 0u);
    EXPECT_FALSE(chain.view_call(make_call("fail", {}, 300)).success);
    EXPECT_FALSE(chain.view_call(make_call("spin")).success);  // out of gas
    EXPECT_TRUE(chain.view_call(to_stranger).success);

    EXPECT_TRUE(chain.state() == before) << "round " << round;
    EXPECT_EQ(chain.state().balance(alice), alice_balance);
    EXPECT_EQ(chain.state().nonce(alice), alice_nonce);
    EXPECT_EQ(chain.state().balance(fee_sink), sink_balance);
    EXPECT_EQ(chain.state().balance(contract), 0u);
    EXPECT_EQ(chain.state().storage_load(contract, crypto::U256(1)), slot);
    EXPECT_EQ(chain.state().account_count(), accounts);
    EXPECT_EQ(chain.state().total_balance(), chain.total_minted());
    ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  }
  // Real transactions journal normally after the views.
  EXPECT_EQ(chain.state().storage_load(contract, crypto::U256(1)).low64(), 2u);
  EXPECT_EQ(chain.state().nonce(alice), 2u);
}

TEST_F(PscFixture, ViewCallRevertsWhenAContractThrows) {
  // An exception other than OutOfGas escapes execute_tx with its own
  // revert point still open; the view must still undo every write.
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const WorldState before = chain.state();
  EXPECT_THROW((void)chain.view_call(make_call("throw", {}, 700)), std::runtime_error);
  EXPECT_TRUE(chain.state() == before);
  EXPECT_EQ(chain.state().journal_depth(), 0u);
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  EXPECT_EQ(chain.state().storage_load(contract, crypto::U256(1)).low64(), 2u);
}

TEST_F(PscFixture, ConcurrentViewCallsLeaveStateIntact) {
  // Views from several threads serialize inside the chain; each sees
  // the state as it was, and none leaves a trace.
  ASSERT_TRUE(chain.execute_now(make_call("increment"), 0).success);
  const WorldState before = chain.state();
  std::vector<std::thread> threads;
  std::vector<int> wrong(2, 0);
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const Receipt r = chain.view_call(make_call(i % 2 == 0 ? "get" : "increment", {}, 10));
        if (!r.success) ++wrong[t];
        if (i % 2 == 0) {
          Reader reader({r.return_data.data(), r.return_data.size()});
          if (reader.u64le().value_or(0) != 1u) ++wrong[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong[0] + wrong[1], 0);
  EXPECT_TRUE(chain.state() == before);
}

TEST_F(PscFixture, Sha256HostOpChargesByWord) {
  PscTx small = make_call("hash", Bytes(32, 0xab));
  PscTx large = make_call("hash", Bytes(320, 0xab));
  const Receipt rs = chain.execute_now(small, 0);
  const Receipt rl = chain.execute_now(large, 0);
  ASSERT_TRUE(rs.success);
  ASSERT_TRUE(rl.success);
  // 9 extra words of hashing plus extra calldata.
  const Gas extra_data = (320 - 32) * chain.schedule().tx_data_byte;
  const Gas extra_hash = 9 * chain.schedule().sha256_word;
  EXPECT_EQ(rl.gas_used - rs.gas_used, extra_data + extra_hash);
}

TEST_F(PscFixture, BlocksBatchPendingTxs) {
  (void)chain.submit(make_call("increment"));
  (void)chain.submit(make_call("increment"));
  EXPECT_EQ(chain.pending_txs(), 2u);
  chain.produce_block(1000);
  EXPECT_EQ(chain.pending_txs(), 0u);
  EXPECT_EQ(chain.block_number(), 1u);
  const Receipt g = chain.execute_now(make_call("get"), 2000);
  Reader reader({g.return_data.data(), g.return_data.size()});
  EXPECT_EQ(reader.u64le().value(), 2u);
}

TEST_F(PscFixture, NonceBumpsPerTransaction) {
  EXPECT_EQ(chain.state().nonce(alice), 0u);
  (void)chain.execute_now(make_call("increment"), 0);
  (void)chain.execute_now(make_call("fail"), 0);  // failed txs bump the nonce too
  EXPECT_EQ(chain.state().nonce(alice), 2u);
}

TEST(WorldState, StorageLifecycle) {
  WorldState state;
  const Address c = Address::from_label("c");
  const Slot key = crypto::U256(7);
  EXPECT_TRUE(state.storage_load(c, key).is_zero());
  EXPECT_TRUE(state.storage_store(c, key, crypto::U256(5)));   // zero -> nonzero
  EXPECT_FALSE(state.storage_store(c, key, crypto::U256(6)));  // update
  EXPECT_EQ(state.storage_load(c, key).low64(), 6u);
  EXPECT_FALSE(state.storage_store(c, key, crypto::U256(0)));  // clear
  EXPECT_TRUE(state.storage_load(c, key).is_zero());
}

TEST(GasMeter, ThrowsAtLimit) {
  GasMeter meter(100, GasSchedule::istanbul());
  meter.charge(60);
  meter.charge(40);
  EXPECT_EQ(meter.remaining(), 0u);
  EXPECT_THROW(meter.charge(1), OutOfGas);
}

TEST(GasMeter, Sha256PricingMatchesSchedule) {
  GasMeter meter(1'000'000, GasSchedule::istanbul());
  meter.charge_sha256(0);
  EXPECT_EQ(meter.used(), 60u);
  meter.charge_sha256(33);  // 2 words
  EXPECT_EQ(meter.used(), 60u + 60 + 24);
}

}  // namespace
}  // namespace btcfast::psc
