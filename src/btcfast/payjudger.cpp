#include "btcfast/payjudger.h"

#include "common/thread_pool.h"

namespace btcfast::core {
namespace {

using psc::Slot;

// --- storage layout helpers -------------------------------------------
// Slot keys are sha256("btcfast/slot" || tag || escrow_id), mirroring
// Solidity mapping-key hashing; key derivation is charged like KECCAK256.

enum class Field : std::uint8_t {
  kState = 1,
  kCustomer,
  kCollateral,
  kUnlockTime,
  kCustomerKeyHi,   // first 32 bytes of the compressed pubkey
  kCustomerKeyLo,   // last byte
  kDisputeMerchant,
  kDisputeCompensation,
  kDisputeDeadline,
  kDisputedTxid,
  kDisputeAnchor,
  kMerchantWork,
  kCustomerWork,
  kCustomerProved,
  kDisputeBond,
  kReservedTotal,
};

constexpr std::uint8_t kGlobalCheckpointHash = 0xF0;
constexpr std::uint8_t kGlobalCheckpointHeight = 0xF1;
constexpr std::uint8_t kUsedBindingTag = 0xF2;
constexpr std::uint8_t kReservationTag = 0xF3;

Slot field_slot(psc::HostContext& host, Field tag, EscrowId id) {
  host.charge_compute(42);  // KECCAK256-equivalent for mapping key derivation
  Writer w;
  w.bytes(as_bytes(std::string("btcfast/slot")));
  w.u8(static_cast<std::uint8_t>(tag));
  w.u64le(id);
  const auto digest = crypto::sha256(w.data());
  return crypto::U256::from_be_bytes({digest.data(), digest.size()});
}

Slot global_slot(psc::HostContext& host, std::uint8_t tag) {
  host.charge_compute(42);
  Writer w;
  w.bytes(as_bytes(std::string("btcfast/global")));
  w.u8(tag);
  const auto digest = crypto::sha256(w.data());
  return crypto::U256::from_be_bytes({digest.data(), digest.size()});
}

Slot binding_keyed_slot(psc::HostContext& host, std::uint8_t tag,
                        const crypto::Sha256Digest& binding_hash) {
  host.charge_compute(42);
  Writer w;
  w.bytes(as_bytes(std::string("btcfast/binding")));
  w.u8(tag);
  w.bytes({binding_hash.data(), binding_hash.size()});
  const auto digest = crypto::sha256(w.data());
  return crypto::U256::from_be_bytes({digest.data(), digest.size()});
}

Slot used_binding_slot(psc::HostContext& host, const crypto::Sha256Digest& binding_hash) {
  return binding_keyed_slot(host, kUsedBindingTag, binding_hash);
}

Slot reservation_slot(psc::HostContext& host, const crypto::Sha256Digest& binding_hash) {
  return binding_keyed_slot(host, kReservationTag, binding_hash);
}

// --- slot value packing -------------------------------------------------

Slot u64_slot(std::uint64_t v) { return crypto::U256(v); }

/// Shared validation for any merchant-presented binding: parses, checks
/// escrow linkage, caller identity, expiry, and the customer signature
/// against the escrow's registered key. Used by reservePayment,
/// releaseReservation and openDispute.
Result<SignedBinding> check_binding(psc::HostContext& host, EscrowId id,
                                    const Bytes& binding_bytes) {
  auto signed_binding = SignedBinding::deserialize(binding_bytes);
  if (!signed_binding) return make_error("bad-binding-encoding");
  const PaymentBinding& b = signed_binding->binding;

  if (b.escrow_id != id) return make_error("binding-escrow-mismatch");
  if (b.merchant != host.caller()) return make_error("not-binding-merchant");
  if (host.block_time_ms() > b.expiry_ms) return make_error("binding-expired");

  ByteArray<33> pubkey{};
  const auto hi = host.sload(field_slot(host, Field::kCustomerKeyHi, id)).to_be_bytes();
  for (std::size_t i = 0; i < 32; ++i) pubkey[i] = hi[i];
  pubkey[32] =
      static_cast<std::uint8_t>(host.sload(field_slot(host, Field::kCustomerKeyLo, id)).low64());
  host.charge_compute(64);  // binding-serialization hashing
  if (!host.ecdsa_verify({pubkey.data(), pubkey.size()}, b.signing_digest(),
                         {signed_binding->customer_sig.data(), 64})) {
    return make_error("bad-binding-signature");
  }
  return *signed_binding;
}

Slot addr_slot(const psc::Address& a) {
  ByteArray<32> buf{};
  for (std::size_t i = 0; i < 20; ++i) buf[12 + i] = a.bytes[i];
  return crypto::U256::from_be_bytes({buf.data(), buf.size()});
}

psc::Address slot_addr(const Slot& s) {
  const auto b = s.to_be_bytes();
  psc::Address a;
  for (std::size_t i = 0; i < 20; ++i) a.bytes[i] = b[12 + i];
  return a;
}

Slot hash_slot(ByteSpan bytes32) { return crypto::U256::from_be_bytes(bytes32); }

}  // namespace

PayJudger::PayJudger(PayJudgerConfig config) : config_(std::move(config)) {}

Status PayJudger::call(psc::HostContext& host, const std::string& method, ByteSpan args,
                       Bytes* ret) {
  host.charge_memory(args.size());
  if (method == "deposit") return deposit(host, args);
  if (method == "topUp") return top_up(host, args);
  if (method == "withdraw") return withdraw(host, args);
  if (method == "reservePayment") return reserve_payment(host, args);
  if (method == "releaseReservation") return release_reservation(host, args);
  if (method == "openDispute") return open_dispute(host, args);
  if (method == "submitMerchantEvidence") return submit_merchant_evidence(host, args);
  if (method == "submitCustomerEvidence") return submit_customer_evidence(host, args);
  if (method == "judge") return judge(host, args);
  if (method == "updateCheckpoint") return update_checkpoint(host, args);
  if (method == "getEscrow") return get_escrow(host, args, ret);
  if (method == "getCheckpoint") return get_checkpoint(host, ret);
  if (method == "getParams") {
    if (ret == nullptr) return make_error("no-return-buffer");
    Writer w;
    w.u32le(config_.required_depth);
    w.u64le(config_.evidence_window_ms);
    w.u64le(config_.min_collateral);
    w.u64le(config_.dispute_bond);
    *ret = std::move(w).take();
    return Status::success();
  }
  return make_error("unknown-method", method);
}

Status PayJudger::deposit(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  auto unlock_delay = r.u64le();
  auto pubkey = r.bytes(33);
  if (!id || !unlock_delay || !pubkey || !r.at_end()) return make_error("bad-args");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kEmpty)) {
    return make_error("escrow-exists");
  }
  if (host.call_value() < config_.min_collateral) {
    return make_error("collateral-too-small",
                      "need >= " + std::to_string(config_.min_collateral));
  }
  // The customer's binding key must be a valid curve point.
  if (!crypto::PublicKey::parse(*pubkey)) return make_error("bad-pubkey");

  host.sstore(field_slot(host, Field::kState, *id),
              u64_slot(static_cast<std::uint64_t>(EscrowState::kActive)));
  host.sstore(field_slot(host, Field::kCustomer, *id), addr_slot(host.caller()));
  host.sstore(field_slot(host, Field::kCollateral, *id), u64_slot(host.call_value()));
  host.sstore(field_slot(host, Field::kUnlockTime, *id),
              u64_slot(host.block_time_ms() + *unlock_delay));
  host.sstore(field_slot(host, Field::kCustomerKeyHi, *id),
              hash_slot({pubkey->data(), 32}));
  host.sstore(field_slot(host, Field::kCustomerKeyLo, *id), u64_slot((*pubkey)[32]));

  host.emit_log("Deposited");
  return Status::success();
}

Status PayJudger::top_up(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  if (!id || !r.at_end()) return make_error("bad-args");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kActive)) {
    return make_error("escrow-not-active");
  }
  if (slot_addr(host.sload(field_slot(host, Field::kCustomer, *id))) != host.caller()) {
    return make_error("not-customer");
  }
  const Slot collateral = host.sload(field_slot(host, Field::kCollateral, *id));
  host.sstore(field_slot(host, Field::kCollateral, *id),
              u64_slot(collateral.low64() + host.call_value()));
  host.emit_log("ToppedUp");
  return Status::success();
}

Status PayJudger::withdraw(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  if (!id || !r.at_end()) return make_error("bad-args");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kActive)) {
    return make_error("escrow-not-active", "state=" + std::to_string(state.low64()));
  }
  const psc::Address customer = slot_addr(host.sload(field_slot(host, Field::kCustomer, *id)));
  if (customer != host.caller()) return make_error("not-customer");
  const std::uint64_t unlock = host.sload(field_slot(host, Field::kUnlockTime, *id)).low64();
  if (host.block_time_ms() < unlock) {
    return make_error("still-locked", "until " + std::to_string(unlock));
  }
  if (host.sload(field_slot(host, Field::kReservedTotal, *id)).low64() != 0) {
    return make_error("reservations-outstanding");
  }

  const psc::Value collateral = host.sload(field_slot(host, Field::kCollateral, *id)).low64();
  // Clear state before paying (checks-effects-interactions).
  host.sstore(field_slot(host, Field::kState, *id), Slot{});
  host.sstore(field_slot(host, Field::kCollateral, *id), Slot{});
  host.sstore(field_slot(host, Field::kCustomer, *id), Slot{});
  if (!host.transfer_out(customer, collateral)) return make_error("payout-failed");
  host.emit_log("Withdrawn");
  return Status::success();
}

Status PayJudger::reserve_payment(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  auto binding_bytes = r.bytes_with_len(2048);
  if (!id || !binding_bytes || !r.at_end()) return make_error("bad-args");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kActive)) {
    return make_error("escrow-not-active");
  }
  auto binding = check_binding(host, *id, *binding_bytes);
  if (!binding) return binding.error();
  const PaymentBinding& b = binding.value().binding;

  const auto binding_hash = crypto::sha256(b.serialize());
  if (!host.sload(used_binding_slot(host, binding_hash)).is_zero()) {
    return make_error("binding-already-disputed");
  }
  const Slot res_slot = reservation_slot(host, binding_hash);
  if (!host.sload(res_slot).is_zero()) return make_error("binding-already-reserved");

  const psc::Value collateral = host.sload(field_slot(host, Field::kCollateral, *id)).low64();
  const psc::Value reserved = host.sload(field_slot(host, Field::kReservedTotal, *id)).low64();
  if (b.compensation > collateral - reserved) {
    return make_error("insufficient-unreserved-collateral");
  }

  host.sstore(res_slot, u64_slot(b.compensation));
  host.sstore(field_slot(host, Field::kReservedTotal, *id),
              u64_slot(reserved + b.compensation));
  host.emit_log("PaymentReserved");
  return Status::success();
}

Status PayJudger::release_reservation(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  auto binding_bytes = r.bytes_with_len(2048);
  if (!id || !binding_bytes || !r.at_end()) return make_error("bad-args");

  auto binding = check_binding(host, *id, *binding_bytes);
  if (!binding) return binding.error();
  const PaymentBinding& b = binding.value().binding;

  const auto binding_hash = crypto::sha256(b.serialize());
  const Slot res_slot = reservation_slot(host, binding_hash);
  const psc::Value amount = host.sload(res_slot).low64();
  if (amount == 0) return make_error("no-reservation");

  host.sstore(res_slot, Slot{});
  const psc::Value reserved = host.sload(field_slot(host, Field::kReservedTotal, *id)).low64();
  host.sstore(field_slot(host, Field::kReservedTotal, *id),
              u64_slot(reserved >= amount ? reserved - amount : 0));
  host.emit_log("ReservationReleased");
  return Status::success();
}

Status PayJudger::open_dispute(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  auto binding_bytes = r.bytes_with_len(2048);
  if (!id || !binding_bytes || !r.at_end()) return make_error("bad-args");

  if (host.call_value() < config_.dispute_bond) return make_error("bond-too-small");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kActive)) {
    return make_error("escrow-not-active");
  }
  auto binding = check_binding(host, *id, *binding_bytes);
  if (!binding) return binding.error();
  const PaymentBinding& b = binding.value().binding;

  // Replay protection: one dispute per binding, ever.
  const auto binding_hash = crypto::sha256(b.serialize());
  const Slot used_slot = used_binding_slot(host, binding_hash);
  if (!host.sload(used_slot).is_zero()) return make_error("binding-already-disputed");

  // Affordability: a reserved binding is pre-covered (consume the
  // reservation); an optimistic one must fit the unreserved collateral.
  const psc::Value collateral = host.sload(field_slot(host, Field::kCollateral, *id)).low64();
  const psc::Value reserved = host.sload(field_slot(host, Field::kReservedTotal, *id)).low64();
  const Slot res_slot = reservation_slot(host, binding_hash);
  const psc::Value this_reservation = host.sload(res_slot).low64();
  if (this_reservation > 0) {
    host.sstore(res_slot, Slot{});
    host.sstore(field_slot(host, Field::kReservedTotal, *id),
                u64_slot(reserved >= this_reservation ? reserved - this_reservation : 0));
  } else {
    if (b.compensation > collateral - reserved) {
      return make_error("compensation-exceeds-collateral");
    }
  }
  host.sstore(used_slot, u64_slot(1));

  // Record the dispute.
  host.sstore(field_slot(host, Field::kState, *id),
              u64_slot(static_cast<std::uint64_t>(EscrowState::kDisputed)));
  host.sstore(field_slot(host, Field::kDisputeMerchant, *id), addr_slot(b.merchant));
  host.sstore(field_slot(host, Field::kDisputeCompensation, *id), u64_slot(b.compensation));
  host.sstore(field_slot(host, Field::kDisputeDeadline, *id),
              u64_slot(host.block_time_ms() + config_.evidence_window_ms));
  host.sstore(field_slot(host, Field::kDisputedTxid, *id),
              hash_slot({b.btc_txid.bytes.data(), 32}));
  Slot anchor = host.sload(global_slot(host, kGlobalCheckpointHash));
  if (anchor.is_zero()) anchor = hash_slot({config_.initial_checkpoint.bytes.data(), 32});
  host.sstore(field_slot(host, Field::kDisputeAnchor, *id), anchor);
  host.sstore(field_slot(host, Field::kMerchantWork, *id), Slot{});
  host.sstore(field_slot(host, Field::kCustomerWork, *id), Slot{});
  host.sstore(field_slot(host, Field::kCustomerProved, *id), Slot{});
  host.sstore(field_slot(host, Field::kDisputeBond, *id), u64_slot(host.call_value()));

  host.emit_log("DisputeOpened");
  return Status::success();
}

Result<btc::HeaderChainSummary> PayJudger::verify_evidence_chain(
    psc::HostContext& host, const btc::BlockHash& anchor,
    const std::vector<btc::BlockHeader>& headers) {
  if (headers.empty()) return make_error("evidence-empty");
  if (headers.size() > 144) return make_error("evidence-too-long", "max 144 headers");

  // Phase 1: hash every header across the thread pool. This is raw CPU
  // work only — no metering — so it can run in any order on any number
  // of threads. Headers past an (as yet undetected) defect are hashed
  // speculatively and discarded. When a digest provider is attached
  // (dispute storm engine), it supplies the same digests from its shared
  // index instead — the metered phase below is identical either way.
  std::vector<crypto::Sha256Digest> digests(headers.size());
  if (digest_provider_ != nullptr) {
    digest_provider_->batch_digests(headers, digests.data());
  } else {
    common::ThreadPool::global().parallel_for(headers.size(), [&](std::size_t i) {
      std::uint8_t ser[80];
      headers[i].serialize_into(ser);
      digests[i] = crypto::sha256d_80(ser);
    });
  }

  // Phase 2: sequential validation issuing the exact gas charges, in the
  // exact order, with the exact early aborts of a serial implementation —
  // contract execution is deterministic regardless of thread count.
  btc::HeaderChainSummary summary;
  btc::BlockHash expected_prev = anchor;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    const btc::BlockHeader& h = headers[i];
    if (h.prev_hash != expected_prev) return make_error("evidence-broken-link");

    const auto target = btc::bits_to_target(h.bits);
    if (!target || *target > config_.pow_limit) return make_error("evidence-bad-target");

    // Metered double-SHA over the 80-byte header (the PoW check); the
    // digest itself was computed in phase 1. Charged unconditionally —
    // even when phase 1 served the digest from a cache — so gas is a pure
    // function of the evidence bytes, never of cache state.
    host.meter().charge_sha256(80);
    host.meter().charge_sha256(32);
    const auto& digest = digests[i];
    const auto hash_value = crypto::U256::from_le_bytes({digest.data(), digest.size()});
    if (hash_value > *target) return make_error("evidence-bad-pow");

    host.charge_compute(20);  // work accumulation + comparisons
    summary.total_work += btc::header_work(h.bits);
    expected_prev.bytes = digest;
  }
  summary.tip_hash = expected_prev;
  summary.length = static_cast<std::uint32_t>(headers.size());
  return summary;
}

Status PayJudger::submit_merchant_evidence(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  auto headers_bytes = r.span_with_len(1 << 20);
  if (!id || !headers_bytes || !r.at_end()) return make_error("bad-args");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kDisputed)) {
    return make_error("no-open-dispute");
  }
  if (host.block_time_ms() >
      host.sload(field_slot(host, Field::kDisputeDeadline, *id)).low64()) {
    return make_error("evidence-window-closed");
  }

  auto headers = btc::deserialize_headers(*headers_bytes);
  if (!headers) return make_error("bad-headers-encoding");

  btc::BlockHash anchor;
  anchor.bytes =
      host.sload(field_slot(host, Field::kDisputeAnchor, *id)).to_be_bytes();
  auto summary = verify_evidence_chain(host, anchor, *headers);
  if (!summary) return summary.error();

  const Slot prev_work = host.sload(field_slot(host, Field::kMerchantWork, *id));
  if (summary.value().total_work > prev_work) {
    host.sstore(field_slot(host, Field::kMerchantWork, *id), summary.value().total_work);
    host.emit_log("MerchantEvidence");
  }
  return Status::success();
}

Status PayJudger::submit_customer_evidence(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  auto headers_bytes = r.span_with_len(1 << 20);
  auto proof_bytes = r.bytes_with_len(1 << 16);
  auto header_index = r.u32le();
  if (!id || !headers_bytes || !proof_bytes || !header_index || !r.at_end()) {
    return make_error("bad-args");
  }

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kDisputed)) {
    return make_error("no-open-dispute");
  }
  if (host.block_time_ms() >
      host.sload(field_slot(host, Field::kDisputeDeadline, *id)).low64()) {
    return make_error("evidence-window-closed");
  }

  auto headers = btc::deserialize_headers(*headers_bytes);
  if (!headers) return make_error("bad-headers-encoding");
  auto proof = btc::TxInclusionProof::deserialize(*proof_bytes);
  if (!proof) return make_error("bad-proof-encoding");

  btc::BlockHash anchor;
  anchor.bytes = host.sload(field_slot(host, Field::kDisputeAnchor, *id)).to_be_bytes();
  auto summary = verify_evidence_chain(host, anchor, *headers);
  if (!summary) return summary.error();

  // The proof must target one of the submitted headers, deep enough.
  if (*header_index >= headers->size()) return make_error("proof-index-out-of-range");
  if (proof->header != (*headers)[*header_index]) return make_error("proof-header-mismatch");
  const std::uint32_t depth =
      static_cast<std::uint32_t>(headers->size()) - *header_index;
  if (depth < config_.required_depth) {
    return make_error("proof-too-shallow",
                      std::to_string(depth) + " < " + std::to_string(config_.required_depth));
  }

  // The proof must be over the disputed txid.
  btc::Txid disputed;
  disputed.bytes = host.sload(field_slot(host, Field::kDisputedTxid, *id)).to_be_bytes();
  if (proof->txid != disputed) return make_error("proof-wrong-txid");

  // Metered Merkle branch verification.
  if (proof->branch.siblings.size() > 32) return make_error("proof-too-deep");
  crypto::Hash32 acc = proof->txid.bytes;
  std::uint32_t pos = proof->branch.index;
  for (const auto& sibling : proof->branch.siblings) {
    ByteArray<64> cat{};
    if (pos & 1) {
      for (int i = 0; i < 32; ++i) cat[static_cast<std::size_t>(i)] = sibling[static_cast<std::size_t>(i)];
      for (int i = 0; i < 32; ++i) cat[static_cast<std::size_t>(32 + i)] = acc[static_cast<std::size_t>(i)];
    } else {
      for (int i = 0; i < 32; ++i) cat[static_cast<std::size_t>(i)] = acc[static_cast<std::size_t>(i)];
      for (int i = 0; i < 32; ++i) cat[static_cast<std::size_t>(32 + i)] = sibling[static_cast<std::size_t>(i)];
    }
    acc = host.sha256d({cat.data(), cat.size()});
    pos >>= 1;
  }
  if (acc != proof->header.merkle_root.bytes) return make_error("proof-invalid");

  const Slot prev_work = host.sload(field_slot(host, Field::kCustomerWork, *id));
  if (summary.value().total_work > prev_work) {
    host.sstore(field_slot(host, Field::kCustomerWork, *id), summary.value().total_work);
    host.sstore(field_slot(host, Field::kCustomerProved, *id), u64_slot(1));
    host.emit_log("CustomerEvidence");
  }
  return Status::success();
}

Status PayJudger::judge(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto id = r.u64le();
  if (!id || !r.at_end()) return make_error("bad-args");

  const Slot state = host.sload(field_slot(host, Field::kState, *id));
  if (state.low64() != static_cast<std::uint64_t>(EscrowState::kDisputed)) {
    return make_error("no-open-dispute");
  }
  if (host.block_time_ms() <=
      host.sload(field_slot(host, Field::kDisputeDeadline, *id)).low64()) {
    return make_error("evidence-window-open");
  }

  const bool customer_proved =
      host.sload(field_slot(host, Field::kCustomerProved, *id)).low64() != 0;
  const crypto::U256 customer_work = host.sload(field_slot(host, Field::kCustomerWork, *id));
  const crypto::U256 merchant_work = host.sload(field_slot(host, Field::kMerchantWork, *id));
  const psc::Value bond = host.sload(field_slot(host, Field::kDisputeBond, *id)).low64();
  const psc::Address merchant =
      slot_addr(host.sload(field_slot(host, Field::kDisputeMerchant, *id)));
  const psc::Address customer =
      slot_addr(host.sload(field_slot(host, Field::kCustomer, *id)));

  // Rule: the customer wins only by *proving* inclusion on a chain at
  // least as heavy as the merchant's counter-evidence. Ties favour the
  // customer's concrete proof over the merchant's absence claim.
  const bool customer_wins = customer_proved && customer_work >= merchant_work;

  psc::Value payout_merchant = 0;
  psc::Value payout_customer = 0;
  if (customer_wins) {
    payout_customer = bond;  // merchant forfeits the dispute bond
    host.emit_log("JudgedForCustomer");
  } else {
    const psc::Value compensation =
        host.sload(field_slot(host, Field::kDisputeCompensation, *id)).low64();
    const psc::Value collateral = host.sload(field_slot(host, Field::kCollateral, *id)).low64();
    const psc::Value paid = compensation < collateral ? compensation : collateral;
    host.sstore(field_slot(host, Field::kCollateral, *id), u64_slot(collateral - paid));
    payout_merchant = paid + bond;  // compensation plus bond refund
    host.emit_log("JudgedForMerchant");
  }

  // Clear dispute state; escrow returns to ACTIVE (or EMPTY if drained).
  const psc::Value remaining = host.sload(field_slot(host, Field::kCollateral, *id)).low64();
  host.sstore(field_slot(host, Field::kState, *id),
              u64_slot(static_cast<std::uint64_t>(remaining > 0 ? EscrowState::kActive
                                                                : EscrowState::kEmpty)));
  host.sstore(field_slot(host, Field::kDisputeMerchant, *id), Slot{});
  host.sstore(field_slot(host, Field::kDisputeCompensation, *id), Slot{});
  host.sstore(field_slot(host, Field::kDisputeDeadline, *id), Slot{});
  host.sstore(field_slot(host, Field::kDisputeBond, *id), Slot{});
  host.sstore(field_slot(host, Field::kCustomerProved, *id), Slot{});

  if (payout_merchant > 0 && !host.transfer_out(merchant, payout_merchant)) {
    return make_error("payout-failed");
  }
  if (payout_customer > 0 && !host.transfer_out(customer, payout_customer)) {
    return make_error("payout-failed");
  }
  return Status::success();
}

Status PayJudger::update_checkpoint(psc::HostContext& host, ByteSpan args) {
  Reader r(args);
  auto headers_bytes = r.span_with_len(1 << 20);
  if (!headers_bytes || !r.at_end()) return make_error("bad-args");

  auto headers = btc::deserialize_headers(*headers_bytes);
  if (!headers) return make_error("bad-headers-encoding");

  const Slot current = host.sload(global_slot(host, kGlobalCheckpointHash));
  btc::BlockHash anchor;
  if (current.is_zero()) {
    anchor = config_.initial_checkpoint;
  } else {
    anchor.bytes = current.to_be_bytes();
  }

  auto summary = verify_evidence_chain(host, anchor, *headers);
  if (!summary) return summary.error();

  host.sstore(global_slot(host, kGlobalCheckpointHash),
              hash_slot({summary.value().tip_hash.bytes.data(), 32}));
  const std::uint64_t height = host.sload(global_slot(host, kGlobalCheckpointHeight)).low64();
  host.sstore(global_slot(host, kGlobalCheckpointHeight),
              u64_slot(height + summary.value().length));
  host.emit_log("CheckpointUpdated");
  return Status::success();
}

Status PayJudger::get_escrow(psc::HostContext& host, ByteSpan args, Bytes* ret) {
  Reader r(args);
  auto id = r.u64le();
  if (!id || !r.at_end()) return make_error("bad-args");
  if (ret == nullptr) return make_error("no-return-buffer");

  Writer w;
  w.u64le(host.sload(field_slot(host, Field::kState, *id)).low64());
  const auto customer = slot_addr(host.sload(field_slot(host, Field::kCustomer, *id)));
  w.bytes({customer.bytes.data(), customer.bytes.size()});
  w.u64le(host.sload(field_slot(host, Field::kCollateral, *id)).low64());
  w.u64le(host.sload(field_slot(host, Field::kReservedTotal, *id)).low64());
  w.u64le(host.sload(field_slot(host, Field::kUnlockTime, *id)).low64());
  const auto key_hi = host.sload(field_slot(host, Field::kCustomerKeyHi, *id)).to_be_bytes();
  w.bytes({key_hi.data(), key_hi.size()});
  w.u8(static_cast<std::uint8_t>(host.sload(field_slot(host, Field::kCustomerKeyLo, *id)).low64()));
  const auto merchant = slot_addr(host.sload(field_slot(host, Field::kDisputeMerchant, *id)));
  w.bytes({merchant.bytes.data(), merchant.bytes.size()});
  w.u64le(host.sload(field_slot(host, Field::kDisputeCompensation, *id)).low64());
  w.u64le(host.sload(field_slot(host, Field::kDisputeDeadline, *id)).low64());
  const auto txid = host.sload(field_slot(host, Field::kDisputedTxid, *id)).to_be_bytes();
  w.bytes({txid.data(), txid.size()});
  const auto anchor = host.sload(field_slot(host, Field::kDisputeAnchor, *id)).to_be_bytes();
  w.bytes({anchor.data(), anchor.size()});
  const auto mw = host.sload(field_slot(host, Field::kMerchantWork, *id)).to_be_bytes();
  w.bytes({mw.data(), mw.size()});
  const auto cw = host.sload(field_slot(host, Field::kCustomerWork, *id)).to_be_bytes();
  w.bytes({cw.data(), cw.size()});
  w.u8(host.sload(field_slot(host, Field::kCustomerProved, *id)).low64() != 0 ? 1 : 0);
  *ret = std::move(w).take();
  return Status::success();
}

Status PayJudger::get_checkpoint(psc::HostContext& host, Bytes* ret) {
  if (ret == nullptr) return make_error("no-return-buffer");
  Writer w;
  const Slot hash = host.sload(global_slot(host, kGlobalCheckpointHash));
  if (hash.is_zero()) {
    w.bytes({config_.initial_checkpoint.bytes.data(), 32});
  } else {
    const auto b = hash.to_be_bytes();
    w.bytes({b.data(), b.size()});
  }
  w.u64le(host.sload(global_slot(host, kGlobalCheckpointHeight)).low64());
  *ret = std::move(w).take();
  return Status::success();
}

std::optional<EscrowView> PayJudger::decode_escrow_view(ByteSpan data) {
  Reader r(data);
  EscrowView v;
  auto state = r.u64le();
  auto customer = r.bytes(20);
  auto collateral = r.u64le();
  auto reserved = r.u64le();
  auto unlock = r.u64le();
  auto key_hi = r.bytes(32);
  auto key_lo = r.u8();
  auto merchant = r.bytes(20);
  auto comp = r.u64le();
  auto deadline = r.u64le();
  auto txid = r.bytes(32);
  auto anchor = r.bytes(32);
  auto mw = r.bytes(32);
  auto cw = r.bytes(32);
  auto proved = r.u8();
  if (!state || !customer || !collateral || !reserved || !unlock || !key_hi || !key_lo ||
      !merchant || !comp || !deadline || !txid || !anchor || !mw || !cw || !proved ||
      !r.at_end()) {
    return std::nullopt;
  }
  v.state = static_cast<EscrowState>(*state);
  v.customer.bytes = to_array<20>(*customer);
  v.collateral = *collateral;
  v.reserved = *reserved;
  v.unlock_time_ms = *unlock;
  for (std::size_t i = 0; i < 32; ++i) v.customer_btc_key[i] = (*key_hi)[i];
  v.customer_btc_key[32] = *key_lo;
  v.dispute_merchant.bytes = to_array<20>(*merchant);
  v.dispute_compensation = *comp;
  v.dispute_deadline_ms = *deadline;
  v.disputed_txid.bytes = to_array<32>(*txid);
  v.dispute_anchor.bytes = to_array<32>(*anchor);
  v.merchant_work = crypto::U256::from_be_bytes(*mw);
  v.customer_work = crypto::U256::from_be_bytes(*cw);
  v.customer_proved = *proved != 0;
  return v;
}

// --- client-side arg encoders -------------------------------------------

Bytes encode_deposit_args(EscrowId id, std::uint64_t unlock_delay_ms,
                          const ByteArray<33>& btc_pubkey) {
  Writer w;
  w.u64le(id);
  w.u64le(unlock_delay_ms);
  w.bytes({btc_pubkey.data(), btc_pubkey.size()});
  return std::move(w).take();
}

Bytes encode_escrow_id_arg(EscrowId id) {
  Writer w;
  w.u64le(id);
  return std::move(w).take();
}

Bytes encode_open_dispute_args(EscrowId id, const SignedBinding& binding) {
  Writer w;
  w.u64le(id);
  w.bytes_with_len(binding.serialize());
  return std::move(w).take();
}

Bytes encode_merchant_evidence_args(EscrowId id, const std::vector<btc::BlockHeader>& headers) {
  Writer w;
  w.u64le(id);
  w.bytes_with_len(btc::serialize_headers(headers));
  return std::move(w).take();
}

Bytes encode_customer_evidence_args(EscrowId id, const std::vector<btc::BlockHeader>& headers,
                                    const btc::TxInclusionProof& proof,
                                    std::uint32_t header_index) {
  Writer w;
  w.u64le(id);
  w.bytes_with_len(btc::serialize_headers(headers));
  w.bytes_with_len(proof.serialize());
  w.u32le(header_index);
  return std::move(w).take();
}

Bytes encode_checkpoint_args(const std::vector<btc::BlockHeader>& headers) {
  Writer w;
  w.bytes_with_len(btc::serialize_headers(headers));
  return std::move(w).take();
}

}  // namespace btcfast::core
