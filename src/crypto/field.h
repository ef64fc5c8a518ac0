// Internal 5×52 field element for the secp256k1 verify engine.
//
// An `Fe` holds a value mod p = 2^256 − 2^32 − 977 as five 52-bit limbs
// in 64-bit words, value = Σ n[i]·2^(52·i). The spare high bits of each
// word let additions skip carry handling entirely: every value carries a
// *magnitude* m (tracked by the caller, documented at each use), meaning
//
//   n[0..3] ≤ 2m·(2^52 − 1)   and   n[4] ≤ 2m·(2^48 − 1).
//
// A value is *normalized* when it is the canonical representative: every
// limb < 2^52, n[4] < 2^48 and the value < p. Normalized values have
// magnitude 1; a magnitude-1 value need not be normalized.
//
// Operation contracts (input magnitudes → output magnitude):
//
//   from_u256(a)        any a < 2^256          → 1 (normalized iff a < p)
//   add(a, b)           ma + mb ≤ 32           → ma + mb
//   mul_int(a, k)       ma·k ≤ 32              → ma·k
//   negate(a, m)        ma ≤ m ≤ 31            → m + 1
//   cneg(a, m, flag)    ma ≤ m ≤ 31            → m + 1
//   mul(a, b), sqr(a)   ma, mb ≤ 8             → 1
//   normalize_weak(a)   ma ≤ 32                → 1
//   normalize(a)        ma ≤ 32                → normalized
//   is_zero(a)          ma ≤ 32                → value ≡ 0 (mod p)
//   equal(a, b)         ma ≤ 30, mb ≤ 1        → a ≡ b (mod p)
//   to_u256(a)          ma ≤ 32                → canonical U256
//
// No operation branches on the value: `mul` and `sqr` fold the high
// columns of the limb product with the constant 2^260 ≡ 0x1000003D10
// (mod p) through a fixed carry chain, and the final comparison against
// p in `normalize` and `is_zero` is computed as a mask. Full
// normalization runs only where a value is compared or leaves the engine.
//
// The public U256 functions in secp256k1.h (fmul/fsqr/fadd/fsub, fully
// reduced after every operation) stay the API for signing, the comb,
// the frozen Shamir baseline and the differential tests that pin this
// type against them.
#pragma once

#include <cstdint>

#include "crypto/uint256.h"

namespace btcfast::crypto::secp {

struct Fe {
  std::uint64_t n[5];
};

namespace fe {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

inline constexpr u64 kM52 = 0xFFFFFFFFFFFFFULL;  // 2^52 − 1
inline constexpr u64 kM48 = 0x0FFFFFFFFFFFFULL;  // 2^48 − 1
/// 2^256 ≡ kC (mod p).
inline constexpr u64 kC = 0x1000003D1ULL;
/// 2^260 ≡ kR = kC·16 (mod p): the fold constant for limb columns ≥ 5.
inline constexpr u64 kR = kC << 4;
/// p's low limb; its other limbs are kM52 (n[1..3]) and kM48 (n[4]).
inline constexpr u64 kP0 = 0xFFFFEFFFFFC2FULL;

[[nodiscard]] inline Fe from_u256(const U256& a) noexcept {
  return Fe{{a.w[0] & kM52, (a.w[0] >> 52) | ((a.w[1] & 0xFFFFFFFFFFULL) << 12),
             (a.w[1] >> 40) | ((a.w[2] & 0xFFFFFFFULL) << 24),
             (a.w[2] >> 28) | ((a.w[3] & 0xFFFFULL) << 36), a.w[3] >> 16}};
}

[[nodiscard]] inline Fe from_u64(u64 v) noexcept { return Fe{{v & kM52, v >> 52, 0, 0, 0}}; }

[[nodiscard]] inline Fe add(const Fe& a, const Fe& b) noexcept {
  return Fe{{a.n[0] + b.n[0], a.n[1] + b.n[1], a.n[2] + b.n[2], a.n[3] + b.n[3], a.n[4] + b.n[4]}};
}

[[nodiscard]] inline Fe mul_int(const Fe& a, u64 k) noexcept {
  return Fe{{a.n[0] * k, a.n[1] * k, a.n[2] * k, a.n[3] * k, a.n[4] * k}};
}

/// 2(m+1)·p − a: a multiple of p minus a, limb by limb, never negative
/// while a's magnitude is at most m.
[[nodiscard]] inline Fe negate(const Fe& a, u64 m) noexcept {
  const u64 k = 2 * (m + 1);
  return Fe{{kP0 * k - a.n[0], kM52 * k - a.n[1], kM52 * k - a.n[2], kM52 * k - a.n[3],
             kM48 * k - a.n[4]}};
}

/// flag ? negate(a, m) : a, selected by a mask rather than a branch.
[[nodiscard]] inline Fe cneg(const Fe& a, u64 m, bool flag) noexcept {
  const Fe neg = negate(a, m);
  const u64 mask = u64{0} - static_cast<u64>(flag);
  Fe r{};
  for (int i = 0; i < 5; ++i) r.n[i] = a.n[i] ^ ((a.n[i] ^ neg.n[i]) & mask);
  return r;
}

/// Columns 0..8 of the limb product, folded as they are produced: the
/// high column j ≥ 5 lands in column j − 5 times kR. Input limbs are
/// < 2^56 (n[4] < 2^52), so every column sum stays below 2^116 and every
/// fold below 2^96; the result has limbs < 2^52 and n[4] < 2^49.
[[nodiscard]] inline Fe mul(const Fe& a, const Fe& b) noexcept {
  const u64 a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3], a4 = a.n[4];
  const u64 b0 = b.n[0], b1 = b.n[1], b2 = b.n[2], b3 = b.n[3], b4 = b.n[4];
  Fe r{};
  // Column 3, with column 8 folded in.
  u128 d = static_cast<u128>(a0) * b3 + static_cast<u128>(a1) * b2 + static_cast<u128>(a2) * b1 +
           static_cast<u128>(a3) * b0;
  u128 c = static_cast<u128>(a4) * b4;
  d += static_cast<u128>(static_cast<u64>(c) & kM52) * kR;
  c >>= 52;
  const u64 t3 = static_cast<u64>(d) & kM52;
  d >>= 52;
  // Column 4, with the rest of column 8 (now at column 9) folded in.
  d += static_cast<u128>(a0) * b4 + static_cast<u128>(a1) * b3 + static_cast<u128>(a2) * b2 +
       static_cast<u128>(a3) * b1 + static_cast<u128>(a4) * b0;
  d += static_cast<u128>(static_cast<u64>(c)) * kR;
  u64 t4 = static_cast<u64>(d) & kM52;
  d >>= 52;
  const u64 tx = t4 >> 48;  // bits 256..259, folded with kC below
  t4 &= kM48;
  // Column 0, with column 5 folded in.
  c = static_cast<u128>(a0) * b0;
  d += static_cast<u128>(a1) * b4 + static_cast<u128>(a2) * b3 + static_cast<u128>(a3) * b2 +
       static_cast<u128>(a4) * b1;
  const u64 u0 = ((static_cast<u64>(d) & kM52) << 4) | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * kC;
  r.n[0] = static_cast<u64>(c) & kM52;
  c >>= 52;
  // Column 1, with column 6 folded in.
  c += static_cast<u128>(a0) * b1 + static_cast<u128>(a1) * b0;
  d += static_cast<u128>(a2) * b4 + static_cast<u128>(a3) * b3 + static_cast<u128>(a4) * b2;
  c += static_cast<u128>(static_cast<u64>(d) & kM52) * kR;
  d >>= 52;
  r.n[1] = static_cast<u64>(c) & kM52;
  c >>= 52;
  // Column 2, with column 7 folded in.
  c += static_cast<u128>(a0) * b2 + static_cast<u128>(a1) * b1 + static_cast<u128>(a2) * b0;
  d += static_cast<u128>(a3) * b4 + static_cast<u128>(a4) * b3;
  c += static_cast<u128>(static_cast<u64>(d) & kM52) * kR;
  d >>= 52;
  r.n[2] = static_cast<u64>(c) & kM52;
  c >>= 52;
  // What is left of column 7 sits at column 8 ≡ column 3 · kR.
  c += static_cast<u128>(static_cast<u64>(d)) * kR + t3;
  r.n[3] = static_cast<u64>(c) & kM52;
  c >>= 52;
  r.n[4] = static_cast<u64>(c) + t4;
  return r;
}

/// mul(a, a) with each cross product computed once and doubled through
/// a pre-doubled limb; same column schedule and bounds as `mul`.
[[nodiscard]] inline Fe sqr(const Fe& a) noexcept {
  const u64 a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3], a4 = a.n[4];
  const u64 a0x2 = a0 * 2, a1x2 = a1 * 2, a2x2 = a2 * 2, a3x2 = a3 * 2;
  Fe r{};
  u128 d = static_cast<u128>(a0x2) * a3 + static_cast<u128>(a1x2) * a2;
  u128 c = static_cast<u128>(a4) * a4;
  d += static_cast<u128>(static_cast<u64>(c) & kM52) * kR;
  c >>= 52;
  const u64 t3 = static_cast<u64>(d) & kM52;
  d >>= 52;
  d += static_cast<u128>(a0x2) * a4 + static_cast<u128>(a1x2) * a3 + static_cast<u128>(a2) * a2;
  d += static_cast<u128>(static_cast<u64>(c)) * kR;
  u64 t4 = static_cast<u64>(d) & kM52;
  d >>= 52;
  const u64 tx = t4 >> 48;
  t4 &= kM48;
  c = static_cast<u128>(a0) * a0;
  d += static_cast<u128>(a1x2) * a4 + static_cast<u128>(a2x2) * a3;
  const u64 u0 = ((static_cast<u64>(d) & kM52) << 4) | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * kC;
  r.n[0] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += static_cast<u128>(a0x2) * a1;
  d += static_cast<u128>(a2x2) * a4 + static_cast<u128>(a3) * a3;
  c += static_cast<u128>(static_cast<u64>(d) & kM52) * kR;
  d >>= 52;
  r.n[1] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += static_cast<u128>(a0x2) * a2 + static_cast<u128>(a1) * a1;
  d += static_cast<u128>(a3x2) * a4;
  c += static_cast<u128>(static_cast<u64>(d) & kM52) * kR;
  d >>= 52;
  r.n[2] = static_cast<u64>(c) & kM52;
  c >>= 52;
  c += static_cast<u128>(static_cast<u64>(d)) * kR + t3;
  r.n[3] = static_cast<u64>(c) & kM52;
  c >>= 52;
  r.n[4] = static_cast<u64>(c) + t4;
  return r;
}

/// Fold bits ≥ 256 back in with kC and carry once: magnitude 1, value
/// below 2^256 + 2^215 (so at most one p away from canonical).
[[nodiscard]] inline Fe normalize_weak(const Fe& a) noexcept {
  u64 t0 = a.n[0], t1 = a.n[1], t2 = a.n[2], t3 = a.n[3], t4 = a.n[4];
  const u64 x = t4 >> 48;
  t4 &= kM48;
  t0 += x * kC;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  return Fe{{t0, t1, t2, t3, t4}};
}

/// The canonical representative. After the weak pass the value is below
/// 2p, so one conditional subtraction of p (as "add kC, drop bit 256")
/// finishes; the condition is a 0/1 value, never a branch.
[[nodiscard]] inline Fe normalize(const Fe& a) noexcept {
  Fe w = normalize_weak(a);
  u64 t0 = w.n[0], t1 = w.n[1], t2 = w.n[2], t3 = w.n[3], t4 = w.n[4];
  const u64 all = t1 & t2 & t3;
  const u64 x = (t4 >> 48) | (static_cast<u64>(t4 == kM48) & static_cast<u64>(all == kM52) &
                              static_cast<u64>(t0 >= kP0));
  t0 += x * kC;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  t4 &= kM48;
  return Fe{{t0, t1, t2, t3, t4}};
}

/// value ≡ 0 (mod p). After the weak pass the value is below 2p, so it
/// is 0 or p exactly; both tests are masks over the limbs.
[[nodiscard]] inline bool is_zero(const Fe& a) noexcept {
  const Fe w = normalize_weak(a);
  const u64 z0 = w.n[0] | w.n[1] | w.n[2] | w.n[3] | w.n[4];
  const u64 z1 = (w.n[0] ^ (kP0 ^ kM52)) & w.n[1] & w.n[2] & w.n[3] & (w.n[4] ^ (kM48 ^ kM52));
  return (static_cast<u64>(z0 == 0) | static_cast<u64>(z1 == kM52)) != 0;
}

/// a ≡ b (mod p), for magnitudes ma ≤ 30 and mb ≤ 1.
[[nodiscard]] inline bool equal(const Fe& a, const Fe& b) noexcept {
  return is_zero(add(a, negate(b, 1)));
}

[[nodiscard]] inline U256 to_u256(const Fe& a) noexcept {
  const Fe c = normalize(a);
  U256 r;
  r.w[0] = c.n[0] | (c.n[1] << 52);
  r.w[1] = (c.n[1] >> 12) | (c.n[2] << 40);
  r.w[2] = (c.n[2] >> 24) | (c.n[3] << 28);
  r.w[3] = (c.n[3] >> 36) | (c.n[4] << 16);
  return r;
}

}  // namespace fe
}  // namespace btcfast::crypto::secp
