#include "psc/state.h"

namespace btcfast::psc {

Value WorldState::balance(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.balance;
}

std::uint64_t WorldState::nonce(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? 0 : it->second.nonce;
}

bool WorldState::sub_balance(const Address& a, Value v) {
  auto it = accounts_.find(a);
  if (it == accounts_.end() || it->second.balance < v) return false;
  note_account(a);
  it->second.balance -= v;
  return true;
}

void WorldState::note_account(const Address& a) {
  if (marks_.empty()) return;
  Undo u;
  u.kind = Undo::Kind::kAccount;
  u.addr = a;
  const auto it = accounts_.find(a);
  u.existed = it != accounts_.end();
  if (u.existed) u.account = it->second;
  journal_.push_back(std::move(u));
}

void WorldState::note_slot(const Address& contract, const Slot& key) {
  if (marks_.empty()) return;
  Undo u;
  u.kind = Undo::Kind::kSlot;
  u.addr = contract;
  u.key = key;
  u.existed = false;
  const auto cit = storage_.find(contract);
  if (cit != storage_.end()) {
    const auto sit = cit->second.find(key);
    if (sit != cit->second.end()) {
      u.existed = true;
      u.value = sit->second;
    }
  }
  journal_.push_back(std::move(u));
}

void WorldState::journal_begin() {
  if (marks_.empty()) journal_.clear();
  marks_.push_back(journal_.size());
}

void WorldState::journal_commit() noexcept {
  marks_.pop_back();
  if (marks_.empty()) journal_.clear();
}

void WorldState::journal_revert() {
  const std::size_t mark = marks_.back();
  marks_.pop_back();
  // Reverse order: when a transaction touched the same entry repeatedly,
  // the oldest record is applied last and wins, restoring the pre-image
  // from journal_begin().
  for (std::size_t i = journal_.size(); i-- > mark;) {
    const Undo& u = journal_[i];
    if (u.kind == Undo::Kind::kAccount) {
      if (u.existed) {
        accounts_[u.addr] = u.account;
      } else {
        accounts_.erase(u.addr);
      }
    } else if (u.existed) {
      storage_[u.addr][u.key] = u.value;
    } else {
      erase_slot(u.addr, u.key);
    }
  }
  journal_.resize(mark);
}

void WorldState::erase_slot(const Address& contract, const Slot& key) {
  const auto cit = storage_.find(contract);
  if (cit == storage_.end()) return;
  cit->second.erase(key);
  if (cit->second.empty()) storage_.erase(cit);
}

Value WorldState::total_balance() const noexcept {
  Value total = 0;
  for (const auto& [addr, account] : accounts_) total += account.balance;
  return total;
}

Slot WorldState::storage_load(const Address& contract, const Slot& key) const {
  auto cit = storage_.find(contract);
  if (cit == storage_.end()) return Slot{};
  auto sit = cit->second.find(key);
  return sit == cit->second.end() ? Slot{} : sit->second;
}

bool WorldState::storage_store(const Address& contract, const Slot& key, const Slot& value) {
  note_slot(contract, key);
  // Only nonzero slots are stored, and a contract with none has no map,
  // so equal storage contents are equal maps.
  if (value.is_zero()) {
    erase_slot(contract, key);
    return false;
  }
  return storage_[contract].insert_or_assign(key, value).second;
}

}  // namespace btcfast::psc
