// World state of the PSC chain: account balances/nonces plus per-contract
// key-value storage (the EVM storage model, 32-byte keys and values).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/uint256.h"
#include "psc/address.h"

namespace btcfast::psc {

/// Native token amounts (think gwei; 64 bits is plenty for the simulator).
using Value = std::uint64_t;

struct AccountState {
  Value balance = 0;
  std::uint64_t nonce = 0;

  [[nodiscard]] bool operator==(const AccountState& o) const = default;
};

/// 32-byte storage slot key/value.
using Slot = crypto::U256;

class WorldState {
 public:
  // --- accounts ---
  [[nodiscard]] Value balance(const Address& a) const;
  [[nodiscard]] std::uint64_t nonce(const Address& a) const;
  void set_balance(const Address& a, Value v) {
    note_account(a);
    accounts_[a].balance = v;
  }
  void add_balance(const Address& a, Value v) {
    note_account(a);
    accounts_[a].balance += v;
  }
  /// Returns false (and leaves state unchanged) on insufficient funds.
  [[nodiscard]] bool sub_balance(const Address& a, Value v);
  void bump_nonce(const Address& a) {
    note_account(a);
    ++accounts_[a].nonce;
  }

  // --- transaction journal ---
  // Cheap revert for transaction execution: instead of deep-copying the
  // whole world (which scales with total accounts × storage — ruinous
  // under a mass-dispute storm), record the pre-image of every account
  // and slot the transaction touches and undo them in reverse order.
  // Journals nest: a view call opens one around a whole transaction,
  // whose own revert point sits inside it.
  /// Open a revert point. The outermost one discards any stale journal.
  void journal_begin();
  /// Close the innermost revert point and keep its changes (an enclosing
  /// revert point can still undo them).
  void journal_commit() noexcept;
  /// Close the innermost revert point and roll back every mutation since
  /// its journal_begin(), restoring the exact map contents — entries
  /// created since then are erased, not zeroed.
  void journal_revert();
  /// Number of open revert points.
  [[nodiscard]] std::size_t journal_depth() const noexcept { return marks_.size(); }

  // --- contract storage ---
  [[nodiscard]] Slot storage_load(const Address& contract, const Slot& key) const;
  /// Returns true iff the slot transitioned zero -> nonzero (for gas).
  bool storage_store(const Address& contract, const Slot& key, const Slot& value);

  [[nodiscard]] std::size_t account_count() const noexcept { return accounts_.size(); }

  /// Sum of every account balance. With PscChain::total_minted() this is
  /// the chain-wide value-conservation check: gas fees move to the fee
  /// sink and transfers move between accounts, so the sum must equal the
  /// total ever minted at all times (testkit invariant #1).
  [[nodiscard]] Value total_balance() const noexcept;

  /// Same accounts and same nonzero slots (the journal is not state).
  [[nodiscard]] bool operator==(const WorldState& o) const {
    return accounts_ == o.accounts_ && storage_ == o.storage_;
  }

 private:
  struct SlotKeyHasher {
    std::size_t operator()(const Slot& s) const noexcept {
      return static_cast<std::size_t>(s.w[0] ^ (s.w[1] * 0x9e3779b97f4a7c15ULL));
    }
  };
  using Storage = std::unordered_map<Slot, Slot, SlotKeyHasher>;

  struct Undo {
    enum class Kind : std::uint8_t { kAccount, kSlot };
    Kind kind;
    bool existed;   ///< entry was present before the mutation
    Address addr;   ///< account, or owning contract for kSlot
    AccountState account{};  ///< pre-image (kAccount, existed)
    Slot key{};              ///< slot key (kSlot)
    Slot value{};            ///< pre-image (kSlot, existed)
  };

  void note_account(const Address& a);
  void note_slot(const Address& contract, const Slot& key);
  void erase_slot(const Address& contract, const Slot& key);

  std::unordered_map<Address, AccountState, AddressHasher> accounts_;
  std::unordered_map<Address, Storage, AddressHasher> storage_;
  std::vector<Undo> journal_;
  std::vector<std::size_t> marks_;  ///< journal_ size at each open revert point
};

}  // namespace btcfast::psc
