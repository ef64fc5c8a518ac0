// The PSC (programmable-smart-contract) chain: account state, contract
// registry, transaction execution with gas accounting and receipts, and
// interval block production. Stands in for Ethereum/EOS in the BTCFast
// deployment (DESIGN.md §4 records the substitution).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "psc/host.h"

namespace btcfast::psc {

/// A transaction on the PSC chain. Empty `method` means a plain value
/// transfer; otherwise a contract call.
struct PscTx {
  Address from{};
  Address to{};
  Value value = 0;
  Gas gas_limit = 2'000'000;
  Value gas_price = 1;
  std::string method;
  Bytes args;
};

struct Receipt {
  std::uint64_t tx_id = 0;
  bool success = false;
  std::string revert_reason;
  Gas gas_used = 0;
  Bytes return_data;
  std::vector<LogEvent> logs;
  std::uint64_t block_number = 0;
};

class PscChain {
 public:
  struct Config {
    GasSchedule schedule = GasSchedule::istanbul();
    std::uint64_t block_interval_ms = 13'000;  ///< Ethereum-like default
  };

  PscChain();
  explicit PscChain(Config config);

  /// Register a contract at a deterministic address derived from `name`.
  /// Deployment gas (schedule.contract_deploy) is reported via the
  /// returned receipt-like cost but not charged to anyone at genesis.
  Address deploy(const std::string& name, std::unique_ptr<Contract> contract);

  /// Test/benchmark faucet.
  void mint(const Address& account, Value amount) {
    state_.add_balance(account, amount);
    total_minted_ += amount;
  }

  /// Sum of all mint() calls ever. Execution only moves value between
  /// accounts (fees land in the fee sink), so
  /// state().total_balance() == total_minted() is a global invariant.
  [[nodiscard]] Value total_minted() const noexcept { return total_minted_; }

  /// Queue a transaction for the next block; returns its id.
  std::uint64_t submit(const PscTx& tx);

  /// Produce a block at the given simulated time: executes every queued
  /// transaction in order.
  void produce_block(std::uint64_t time_ms);

  /// Convenience for tests: submit + produce a block immediately.
  Receipt execute_now(const PscTx& tx, std::uint64_t time_ms);

  /// Read-only call (free, like eth_call). Returns the receipt (gas_used
  /// reflects what it *would* cost); world state is left exactly as it
  /// was. It runs on the live state and reverts it: concurrent view_calls
  /// serialize on an internal lock, but no other access to the state
  /// (state(), produce_block, execute_now, mint) may run concurrently with one.
  [[nodiscard]] Receipt view_call(const PscTx& tx) const;

  [[nodiscard]] const Receipt& receipt(std::uint64_t tx_id) const { return receipts_.at(tx_id); }
  [[nodiscard]] bool has_receipt(std::uint64_t tx_id) const { return tx_id < receipts_.size(); }

  [[nodiscard]] WorldState& state() noexcept { return state_; }
  [[nodiscard]] const WorldState& state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t block_number() const noexcept { return block_number_; }
  [[nodiscard]] std::uint64_t last_block_time_ms() const noexcept { return last_block_time_ms_; }
  [[nodiscard]] std::uint64_t block_interval_ms() const noexcept {
    return config_.block_interval_ms;
  }
  [[nodiscard]] const GasSchedule& schedule() const noexcept { return config_.schedule; }
  [[nodiscard]] std::size_t pending_txs() const noexcept { return pending_.size(); }

  /// Look up a deployed contract by address (nullptr if none). Lets
  /// out-of-band infrastructure (e.g. the dispute storm engine) attach
  /// execution hooks to a contract instance it did not deploy itself.
  [[nodiscard]] Contract* contract(const Address& addr) const {
    const auto it = contracts_.find(addr);
    return it == contracts_.end() ? nullptr : it->second.get();
  }

  /// All logs emitted so far (search by topic in tests).
  [[nodiscard]] const std::vector<LogEvent>& logs() const noexcept { return all_logs_; }

  /// Total gas burnt across all transactions (fee accounting for E4).
  [[nodiscard]] Gas total_gas_used() const noexcept { return total_gas_used_; }

 private:
  Receipt execute_tx(const PscTx& tx, std::uint64_t tx_id, WorldState& state,
                     std::vector<LogEvent>* log_sink);

  Config config_;
  WorldState state_;
  /// Serializes view_call's in-place run. A copied chain gets a lock of
  /// its own, so the chain stays copyable.
  struct ViewLock {
    ViewLock() = default;
    ViewLock(const ViewLock&) noexcept {}
    ViewLock& operator=(const ViewLock&) noexcept { return *this; }
    std::mutex mu;
  };
  mutable ViewLock view_lock_;
  std::unordered_map<Address, std::shared_ptr<Contract>, AddressHasher> contracts_;
  std::vector<std::pair<std::uint64_t, PscTx>> pending_;
  std::vector<Receipt> receipts_;
  std::vector<LogEvent> all_logs_;
  std::uint64_t block_number_ = 0;
  std::uint64_t last_block_time_ms_ = 0;
  Gas total_gas_used_ = 0;
  Value total_minted_ = 0;
  Address fee_sink_ = Address::from_label("psc/fee-sink");
};

}  // namespace btcfast::psc
