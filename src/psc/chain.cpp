#include "psc/chain.h"

namespace btcfast::psc {

PscChain::PscChain() : PscChain(Config{}) {}

PscChain::PscChain(Config config) : config_(config) {}

Address PscChain::deploy(const std::string& name, std::unique_ptr<Contract> contract) {
  const Address addr = Address::from_label("psc/contract/" + name);
  contracts_[addr] = std::move(contract);
  return addr;
}

std::uint64_t PscChain::submit(const PscTx& tx) {
  const std::uint64_t id = receipts_.size() + pending_.size();
  pending_.emplace_back(id, tx);
  return id;
}

void PscChain::produce_block(std::uint64_t time_ms) {
  ++block_number_;
  last_block_time_ms_ = time_ms;
  auto batch = std::move(pending_);
  pending_.clear();
  for (auto& [id, tx] : batch) {
    Receipt r = execute_tx(tx, id, state_, &all_logs_);
    total_gas_used_ += r.gas_used;
    receipts_.push_back(std::move(r));
  }
}

Receipt PscChain::execute_now(const PscTx& tx, std::uint64_t time_ms) {
  const std::uint64_t id = submit(tx);
  produce_block(time_ms);
  return receipts_.at(id);
}

Receipt PscChain::view_call(const PscTx& tx) const {
  // Run against the live state inside an outer revert point and undo
  // everything after — value, storage, fee and nonce — so a view costs
  // the entries it touches, not a copy of the world. The guard reverts
  // every revert point opened since entry, so an exception out of a
  // contract cannot leave the view's writes in place.
  struct RevertGuard {
    WorldState& state;
    std::size_t depth;
    ~RevertGuard() {
      while (state.journal_depth() > depth) state.journal_revert();
    }
  };
  std::lock_guard lock(view_lock_.mu);
  PscChain* self = const_cast<PscChain*>(this);
  const RevertGuard guard{self->state_, self->state_.journal_depth()};
  self->state_.journal_begin();
  return self->execute_tx(tx, /*tx_id=*/~0ULL, self->state_, nullptr);
}

Receipt PscChain::execute_tx(const PscTx& tx, std::uint64_t tx_id, WorldState& state,
                             std::vector<LogEvent>* log_sink) {
  Receipt r;
  r.tx_id = tx_id;
  r.block_number = block_number_;

  GasMeter meter(tx.gas_limit, config_.schedule);
  std::vector<LogEvent> logs;

  // Intrinsic gas.
  const Gas intrinsic =
      config_.schedule.tx_base +
      config_.schedule.tx_data_byte * static_cast<Gas>(tx.args.size() + tx.method.size());
  if (intrinsic > tx.gas_limit) {
    r.revert_reason = "intrinsic gas exceeds limit";
    r.gas_used = tx.gas_limit;
    return r;
  }

  // Up-front affordability: value + worst-case fee (EVM semantics).
  const Value max_fee = static_cast<Value>(tx.gas_limit) * tx.gas_price;
  if (state.balance(tx.from) < tx.value + max_fee) {
    r.revert_reason = "insufficient balance for value + gas";
    r.gas_used = 0;
    return r;
  }

  // Revert point: an undo journal of touched entries, not a deep copy of
  // the world — copying scales with total accounts × storage and melts
  // down under a mass-dispute storm, while the journal scales with the
  // handful of entries one transaction touches.
  state.journal_begin();
  bool success = true;
  std::string reason;
  Bytes ret;

  try {
    meter.charge(intrinsic);
    // Value moves first (visible to the callee).
    (void)state.sub_balance(tx.from, tx.value);
    state.add_balance(tx.to, tx.value);

    if (!tx.method.empty()) {
      auto it = contracts_.find(tx.to);
      if (it == contracts_.end()) {
        success = false;
        reason = "no contract at " + tx.to.to_string();
      } else {
        HostContext host(state, meter, tx.to, tx.from, tx.value, block_number_,
                         last_block_time_ms_, logs);
        const Status s = it->second->call(host, tx.method, tx.args, &ret);
        if (!s.ok()) {
          success = false;
          reason = s.error().to_string();
        }
      }
    }
  } catch (const OutOfGas&) {
    success = false;
    reason = "out of gas";
  }

  if (!success) {
    state.journal_revert();  // revert value transfer and all contract effects
    logs.clear();
    ret.clear();
  } else {
    state.journal_commit();
  }

  // Fee is charged even on revert; gas burnt goes to the sink.
  const Gas gas_used = success ? meter.used() : (reason == "out of gas" ? tx.gas_limit : meter.used());
  const Value fee = static_cast<Value>(gas_used) * tx.gas_price;
  (void)state.sub_balance(tx.from, fee);
  state.add_balance(fee_sink_, fee);
  state.bump_nonce(tx.from);

  r.success = success;
  r.revert_reason = reason;
  r.gas_used = gas_used;
  r.return_data = std::move(ret);
  r.logs = logs;
  if (log_sink != nullptr) {
    for (auto& log : logs) log_sink->push_back(log);
  }
  return r;
}

}  // namespace btcfast::psc
