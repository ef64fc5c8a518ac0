#include "crypto/secp256k1.h"

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/field.h"

namespace btcfast::crypto::secp {
namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// p = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE FFFFFC2F
constexpr U256 make_p() {
  U256 p;
  p.w[0] = 0xFFFFFFFEFFFFFC2FULL;
  p.w[1] = 0xFFFFFFFFFFFFFFFFULL;
  p.w[2] = 0xFFFFFFFFFFFFFFFFULL;
  p.w[3] = 0xFFFFFFFFFFFFFFFFULL;
  return p;
}

// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
constexpr U256 make_n() {
  U256 n;
  n.w[0] = 0xBFD25E8CD0364141ULL;
  n.w[1] = 0xBAAEDCE6AF48A03BULL;
  n.w[2] = 0xFFFFFFFFFFFFFFFEULL;
  n.w[3] = 0xFFFFFFFFFFFFFFFFULL;
  return n;
}

const U256 kP = make_p();
const U256 kN = make_n();
const U256 kHalfN = make_n() >> 1;

// 2^256 ≡ kC (mod p) with kC = 2^32 + 977 — the pseudo-Mersenne constant
// that makes the field reduction a couple of single-limb multiplies.
constexpr u64 kC = 0x1000003D1ULL;

// --- flat 4-limb field engine -----------------------------------------
// The hot path avoids the generic U512 helpers entirely: one schoolbook
// 4x4 multiply into a stack array, then two inline folds of the high
// half through kC. Everything stays in registers; the only branches are
// the final carry fix-up and one conditional subtract of p. Additions and
// subtractions are likewise flattened so no cross-TU U256 helper call
// lands in the point-arithmetic inner loops.

inline bool ge_p(const u64 r[4]) noexcept {
  for (int i = 3; i >= 0; --i) {
    if (r[i] != kP.w[i]) return r[i] > kP.w[i];
  }
  return true;
}

inline void sub_p(u64 r[4]) noexcept {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(r[i]) - kP.w[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}

/// t[8] = a * b (full 256x256 product, row-by-row schoolbook).
inline void mul_4x4(u64 t[8], const u64 a[4], const u64 b[4]) noexcept {
  u128 acc;
  u64 carry = 0;
  acc = static_cast<u128>(a[0]) * b[0];
  t[0] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a[0]) * b[1] + carry;
  t[1] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a[0]) * b[2] + carry;
  t[2] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a[0]) * b[3] + carry;
  t[3] = static_cast<u64>(acc);
  t[4] = static_cast<u64>(acc >> 64);
  for (int i = 1; i < 4; ++i) {
    carry = 0;
    for (int j = 0; j < 4; ++j) {
      acc = static_cast<u128>(a[i]) * b[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(acc);
      carry = static_cast<u64>(acc >> 64);
    }
    t[i + 4] = carry;
  }
}

/// t[8] = a² — cross products computed once, doubled, diagonals added.
inline void sqr_4(u64 t[8], const u64 a[4]) noexcept {
  u64 x[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  u128 acc;
  u64 carry;
  // a0 row: offsets 1..3
  acc = static_cast<u128>(a[0]) * a[1];
  x[1] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a[0]) * a[2] + carry;
  x[2] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a[0]) * a[3] + carry;
  x[3] = static_cast<u64>(acc);
  x[4] = static_cast<u64>(acc >> 64);
  // a1 row: offsets 3..4
  acc = static_cast<u128>(a[1]) * a[2] + x[3];
  x[3] = static_cast<u64>(acc);
  carry = static_cast<u64>(acc >> 64);
  acc = static_cast<u128>(a[1]) * a[3] + x[4] + carry;
  x[4] = static_cast<u64>(acc);
  x[5] = static_cast<u64>(acc >> 64);
  // a2 row: offset 5
  acc = static_cast<u128>(a[2]) * a[3] + x[5];
  x[5] = static_cast<u64>(acc);
  x[6] = static_cast<u64>(acc >> 64);
  // double the cross half
  for (int i = 7; i > 0; --i) x[i] = (x[i] << 1) | (x[i - 1] >> 63);
  x[0] <<= 1;
  // add diagonals a_i² at offsets 2i
  carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a[i]) * a[i];
    acc = static_cast<u128>(x[2 * i]) + static_cast<u64>(d) + carry;
    t[2 * i] = static_cast<u64>(acc);
    acc = static_cast<u128>(x[2 * i + 1]) + static_cast<u64>(d >> 64) +
          static_cast<u64>(acc >> 64);
    t[2 * i + 1] = static_cast<u64>(acc);
    carry = static_cast<u64>(acc >> 64);
  }
}

/// Reduce a 512-bit product t[8] mod p into r.
inline void fe_reduce(U256& r, const u64 t[8]) noexcept {
  u64 out[4];
  u128 acc;
  u64 carry = 0;
  // Fold 1: value = lo + hi*kC; the running carry stays < 2^34.
  for (int i = 0; i < 4; ++i) {
    acc = static_cast<u128>(t[4 + i]) * kC + t[i] + carry;
    out[i] = static_cast<u64>(acc);
    carry = static_cast<u64>(acc >> 64);
  }
  // Fold 2: carry < 2^34, carry*kC < 2^68.
  acc = static_cast<u128>(carry) * kC + out[0];
  out[0] = static_cast<u64>(acc);
  u64 c = static_cast<u64>(acc >> 64);
  for (int i = 1; i < 4 && c != 0; ++i) {
    acc = static_cast<u128>(out[i]) + c;
    out[i] = static_cast<u64>(acc);
    c = static_cast<u64>(acc >> 64);
  }
  if (c != 0) {
    // Wrapped past 2^256 exactly once; the residue is tiny, so adding kC
    // cannot carry again.
    acc = static_cast<u128>(out[0]) + kC;
    out[0] = static_cast<u64>(acc);
    u64 c2 = static_cast<u64>(acc >> 64);
    for (int i = 1; i < 4 && c2 != 0; ++i) {
      acc = static_cast<u128>(out[i]) + c2;
      out[i] = static_cast<u64>(acc);
      c2 = static_cast<u64>(acc >> 64);
    }
  }
  if (ge_p(out)) sub_p(out);  // value < 2^256 < 2p: one subtraction suffices
  r.w[0] = out[0];
  r.w[1] = out[1];
  r.w[2] = out[2];
  r.w[3] = out[3];
}

// 2^256 ≡ kNC (mod n); kNC = 2^256 - n is a 129-bit constant.
const U256 kNC = U256::zero() - make_n();  // wrapping arithmetic gives 2^256 - n

/// Reduce a 512-bit value mod n via repeated folding of the high part.
U256 reduce512_n(const U512& t) noexcept {
  // Fold 1: hi (<=256 bits) * c (129 bits) fits 385 bits.
  const U512 s1 = U512::from_u256(t.low256()) + t.high256().mul_wide(kNC);
  // Fold 2: hi < 2^129; product < 2^258.
  const U512 s2 = U512::from_u256(s1.low256()) + s1.high256().mul_wide(kNC);
  // Fold 3: hi < 2^3; product < 2^132.
  const U512 s3 = U512::from_u256(s2.low256()) + s2.high256().mul_wide(kNC);
  U256 r = s3.low256();
  if (!s3.high256().is_zero()) {
    bool carry = false;
    r = add_carry(r, kNC, carry);
  }
  while (r >= kN) r = r - kN;
  return r;
}

AffinePoint make_generator() {
  AffinePoint g;
  g.infinity = false;
  g.x = *U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  g.y = *U256::from_hex("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
  return g;
}

const AffinePoint kG = make_generator();

// --- GLV endomorphism constants ---------------------------------------
// φ(x, y) = (β·x, y) equals multiplication by λ; (λ, β) is the matched
// cube-root pair, and (g1, g2, -b1, -b2) drive the lattice decomposition
// k ≡ k1 + λ·k2 (mod n) with |k1|, |k2| ≲ 2^128:
//   c1 = round(k·g1 / 2^384),  c2 = round(k·g2 / 2^384)
//   k2 = c1·(-b1) + c2·(-b2) (mod n),  k1 = k - λ·k2 (mod n)
const U256 kLambda =
    *U256::from_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
const U256 kBeta =
    *U256::from_hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
const U256 kGlvG1 =
    *U256::from_hex("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
const U256 kGlvG2 =
    *U256::from_hex("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");
const U256 kGlvMinusB1 = *U256::from_hex("e4437ed6010e88286f547fa90abfe4c3");
const U256 kGlvMinusB2 =
    *U256::from_hex("fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");

/// round(k·g / 2^384): take limbs 6..7 of the 512-bit product, rounding
/// on bit 383. Results fit well under 2^129 for the GLV g constants.
inline U256 mul_shift_384(const U256& k, const U256& g) noexcept {
  const U512 prod = k.mul_wide(g);
  U256 r;
  r.w[0] = prod.w[6];
  r.w[1] = prod.w[7];
  r.w[2] = 0;
  r.w[3] = 0;
  if ((prod.w[5] >> 63) != 0) r += U256::one();  // cannot overflow 128 bits meaningfully
  return r;
}

/// -a mod n.
inline U256 nneg(const U256& a) noexcept { return a.is_zero() ? a : kN - a; }

}  // namespace

const U256& field_p() noexcept { return kP; }
const U256& order_n() noexcept { return kN; }
const U256& half_order() noexcept { return kHalfN; }
const AffinePoint& generator() noexcept { return kG; }

U256 fadd(const U256& a, const U256& b) noexcept {
  U256 r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 s = static_cast<u128>(a.w[i]) + b.w[i] + carry;
    r.w[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  if (carry != 0 || ge_p(r.w)) sub_p(r.w);
  return r;
}

U256 fsub(const U256& a, const U256& b) noexcept {
  U256 r;
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a.w[i]) - b.w[i] - borrow;
    r.w[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  if (borrow != 0) {
    u64 carry = 0;
    for (int i = 0; i < 4; ++i) {
      const u128 s = static_cast<u128>(r.w[i]) + kP.w[i] + carry;
      r.w[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  return r;
}

U256 fmul(const U256& a, const U256& b) noexcept {
  u64 t[8];
  mul_4x4(t, a.w, b.w);
  U256 r;
  fe_reduce(r, t);
  return r;
}

U256 fsqr(const U256& a) noexcept {
  u64 t[8];
  sqr_4(t, a.w);
  U256 r;
  fe_reduce(r, t);
  return r;
}

U256 fneg(const U256& a) noexcept { return a.is_zero() ? a : kP - a; }

U256 nadd(const U256& a, const U256& b) noexcept { return addmod(a, b, kN); }

U256 nmul(const U256& a, const U256& b) noexcept { return reduce512_n(a.mul_wide(b)); }

U256 ninv(const U256& a) noexcept { return invmod_odd_var(a, kN); }

U256 ninv_baseline(const U256& a) noexcept { return invmod_odd(a, kN); }

U256 nreduce(const U256& a) noexcept { return a >= kN ? a - kN : a; }

U256 finv(const U256& a) noexcept { return invmod_odd_var(a, kP); }

U256 finv_baseline(const U256& a) noexcept { return invmod_odd(a, kP); }

namespace {

/// a^((p+1)/4) by a fixed addition chain: 253 squarings and 13 multiplies.
/// The exponent is 223 ones, a zero, 22 ones, then 0b00001100; x_k below
/// is a^(2^k − 1). a: magnitude ≤ 8; result magnitude 1.
Fe fe_sqrt_candidate(const Fe& a) noexcept {
  auto sqr_n = [](Fe x, int n) {
    for (int i = 0; i < n; ++i) x = fe::sqr(x);
    return x;
  };
  const Fe x2 = fe::mul(fe::sqr(a), a);
  const Fe x3 = fe::mul(fe::sqr(x2), a);
  const Fe x6 = fe::mul(sqr_n(x3, 3), x3);
  const Fe x9 = fe::mul(sqr_n(x6, 3), x3);
  const Fe x11 = fe::mul(sqr_n(x9, 2), x2);
  const Fe x22 = fe::mul(sqr_n(x11, 11), x11);
  const Fe x44 = fe::mul(sqr_n(x22, 22), x22);
  const Fe x88 = fe::mul(sqr_n(x44, 44), x44);
  const Fe x176 = fe::mul(sqr_n(x88, 88), x88);
  const Fe x220 = fe::mul(sqr_n(x176, 44), x44);
  const Fe x223 = fe::mul(sqr_n(x220, 3), x3);
  Fe t = fe::mul(sqr_n(x223, 23), x22);
  t = fe::mul(sqr_n(t, 6), x2);
  return sqr_n(t, 2);
}

}  // namespace

std::optional<U256> fsqrt(const U256& a) noexcept {
  // p ≡ 3 (mod 4): the only candidate is a^((p+1)/4). The square is
  // compared canonically, so an input ≥ p (outside the contract) is never
  // reported as a square.
  const Fe cand = fe_sqrt_candidate(fe::from_u256(a));
  if (fe::to_u256(fe::sqr(cand)) != a) return std::nullopt;
  return fe::to_u256(cand);
}

JacobianPoint to_jacobian(const AffinePoint& p) noexcept {
  if (p.infinity) return JacobianPoint::identity();
  return {p.x, p.y, U256::one()};
}

AffinePoint to_affine(const JacobianPoint& p) noexcept {
  if (p.is_infinity()) return AffinePoint::identity();
  const U256 zinv = finv(p.z);
  const U256 zinv2 = fsqr(zinv);
  const U256 zinv3 = fmul(zinv2, zinv);
  return {fmul(p.x, zinv2), fmul(p.y, zinv3), false};
}

JacobianPoint jdouble(const JacobianPoint& p) noexcept {
  if (p.is_infinity() || p.y.is_zero()) return JacobianPoint::identity();
  // dbl-2009-l (a = 0): 2M + 5S, all small-constant multiplies as adds.
  const U256 a = fsqr(p.x);                                  // X1²
  const U256 b = fsqr(p.y);                                  // Y1²
  const U256 c = fsqr(b);                                    // B²
  U256 d = fsub(fsub(fsqr(fadd(p.x, b)), a), c);             // (X1+B)² - A - C
  d = fadd(d, d);                                            // D = 2·(...)
  const U256 e = fadd(fadd(a, a), a);                        // E = 3A
  const U256 f = fsqr(e);                                    // F = E²
  const U256 x3 = fsub(f, fadd(d, d));                       // X3 = F - 2D
  U256 c8 = fadd(c, c);
  c8 = fadd(c8, c8);
  c8 = fadd(c8, c8);                                         // 8C
  const U256 y3 = fsub(fmul(e, fsub(d, x3)), c8);            // Y3 = E(D-X3) - 8C
  const U256 z3 = fmul(fadd(p.y, p.y), p.z);                 // Z3 = 2·Y1·Z1
  return {x3, y3, z3};
}

JacobianPoint jadd(const JacobianPoint& a, const JacobianPoint& b) noexcept {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  const U256 z1z1 = fsqr(a.z);
  const U256 z2z2 = fsqr(b.z);
  const U256 u1 = fmul(a.x, z2z2);
  const U256 u2 = fmul(b.x, z1z1);
  const U256 s1 = fmul(a.y, fmul(z2z2, b.z));
  const U256 s2 = fmul(b.y, fmul(z1z1, a.z));
  if (u1 == u2) {
    if (s1 != s2) return JacobianPoint::identity();
    return jdouble(a);
  }
  const U256 h = fsub(u2, u1);
  const U256 r = fsub(s2, s1);
  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 u1h2 = fmul(u1, h2);
  const U256 x3 = fsub(fsub(fsqr(r), h3), fadd(u1h2, u1h2));
  const U256 y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(s1, h3));
  const U256 z3 = fmul(h, fmul(a.z, b.z));
  return {x3, y3, z3};
}

JacobianPoint jadd_mixed(const JacobianPoint& a, const AffinePoint& b) noexcept {
  if (b.infinity) return a;
  if (a.is_infinity()) return to_jacobian(b);
  const U256 z1z1 = fsqr(a.z);
  const U256 u2 = fmul(b.x, z1z1);
  const U256 s2 = fmul(b.y, fmul(z1z1, a.z));
  if (a.x == u2) {
    if (a.y != s2) return JacobianPoint::identity();
    return jdouble(a);
  }
  const U256 h = fsub(u2, a.x);
  const U256 r = fsub(s2, a.y);
  const U256 h2 = fsqr(h);
  const U256 h3 = fmul(h2, h);
  const U256 u1h2 = fmul(a.x, h2);
  const U256 x3 = fsub(fsub(fsqr(r), h3), fadd(u1h2, u1h2));
  const U256 y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(a.y, h3));
  const U256 z3 = fmul(h, a.z);
  return {x3, y3, z3};
}

namespace {

/// Batch Jacobian->affine normalization with one field inversion
/// (Montgomery's trick): invert the product of all z's, then peel.
std::vector<AffinePoint> batch_to_affine(const std::vector<JacobianPoint>& pts) {
  const std::size_t n = pts.size();
  std::vector<AffinePoint> out(n);
  std::vector<U256> prefix(n);
  U256 acc = U256::one();
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i] = acc;  // product of z_0..z_{i-1}
    acc = fmul(acc, pts[i].z);
  }
  U256 inv_all = finv(acc);  // 1 / (z_0 * ... * z_{n-1})
  for (std::size_t i = n; i-- > 0;) {
    const U256 zinv = fmul(inv_all, prefix[i]);
    inv_all = fmul(inv_all, pts[i].z);
    const U256 zinv2 = fsqr(zinv);
    out[i] = AffinePoint{fmul(pts[i].x, zinv2), fmul(pts[i].y, fmul(zinv2, zinv)), false};
  }
  return out;
}

/// Fixed-base comb table: kBaseTable[i][j] == (j+1) * 16^i * G, so a
/// 256-bit scalar resolves to at most 64 mixed additions with no
/// doublings. Built once per process (~1k point ops, batch-normalized).
struct BaseTable {
  AffinePoint pts[64][15];
};

const BaseTable& base_table() {
  static const BaseTable table = [] {
    std::vector<JacobianPoint> jac;
    jac.reserve(64 * 15);
    JacobianPoint row_base = to_jacobian(kG);  // 16^i * G
    for (int i = 0; i < 64; ++i) {
      JacobianPoint cur = row_base;
      for (int j = 0; j < 15; ++j) {
        jac.push_back(cur);
        cur = jadd(cur, row_base);
      }
      row_base = cur;  // 16 * previous row base
    }
    const auto affine = batch_to_affine(jac);
    BaseTable t;
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 15; ++j) t.pts[i][j] = affine[static_cast<std::size_t>(i * 15 + j)];
    }
    return t;
  }();
  return table;
}

/// Width-w NAF digits (odd values in ±{1, 3, ..., 2^w - 1}), LSB first,
/// written into `out` (needs room for 257). Returns the digit count.
/// Flat limb arithmetic: the scalar shrinks by one bit per digit.
/// Digits are int16 so widths up to 14 fit (width-8 digits reach ±255).
int wnaf_digits(std::int16_t* out, const U256& k, unsigned width) noexcept {
  u64 l[4] = {k.w[0], k.w[1], k.w[2], k.w[3]};
  const u64 mask = (1ULL << (width + 1)) - 1;
  const u64 half = 1ULL << width;
  int len = 0;
  while ((l[0] | l[1] | l[2] | l[3]) != 0) {
    std::int16_t d = 0;
    if (l[0] & 1) {
      const u64 m = l[0] & mask;
      if (m >= half) {
        d = static_cast<std::int16_t>(static_cast<int>(m) - static_cast<int>(mask + 1));
        // k += (2^(w+1) - m)
        u64 add = (mask + 1) - m;
        for (int i = 0; i < 4 && add != 0; ++i) {
          const u128 s = static_cast<u128>(l[i]) + add;
          l[i] = static_cast<u64>(s);
          add = static_cast<u64>(s >> 64);
        }
      } else {
        d = static_cast<std::int16_t>(m);
        // k -= m (only clears low bits; no borrow can propagate past a
        // nonzero limb chain because k ≥ m by construction)
        u64 borrow = m;
        for (int i = 0; i < 4 && borrow != 0; ++i) {
          const u64 before = l[i];
          l[i] = before - borrow;
          borrow = before < borrow ? 1 : 0;
        }
      }
    }
    out[len++] = d;
    l[0] = (l[0] >> 1) | (l[1] << 63);
    l[1] = (l[1] >> 1) | (l[2] << 63);
    l[2] = (l[2] >> 1) | (l[3] << 63);
    l[3] >>= 1;
  }
  return len;
}

// --- Fe point arithmetic: the verify engine ----------------------------
// Every point-arithmetic inner loop of verification (the GLV chain, the
// co-Z table ladder, the precomp build) runs on the 5×52 `Fe` of
// field.h. Magnitudes are noted in parentheses where they exceed 1.

/// Jacobian point on Fe. Between operations X and Y have magnitude 1 and
/// Z magnitude ≤ 2; `inf` marks the identity (coordinates unused).
struct FePoint {
  Fe x;
  Fe y;
  Fe z;
  bool inf;
};

/// p = 2p in place: dbl-2009-l with D = 4·X·Y² as one multiply (3M + 4S),
/// the same residues as jdouble. No point of secp256k1 has y = 0 (the
/// group order is odd), so only the identity needs a test.
inline void fe_double(FePoint& p) noexcept {
  if (p.inf) return;
  const Fe a = fe::sqr(p.x);       // X²
  const Fe b = fe::sqr(p.y);       // Y²
  const Fe c = fe::sqr(b);         // Y⁴
  const Fe d = fe::mul(p.x, b);    // X·Y²
  const Fe e = fe::mul_int(a, 3);  // 3X² (3)
  p.z = fe::mul_int(fe::mul(p.y, p.z), 2);  // Z3 = 2·Y·Z (2)
  // X3 = E² − 8·X·Y² (17 → 1)
  p.x = fe::normalize_weak(fe::add(fe::sqr(e), fe::mul_int(fe::negate(d, 1), 8)));
  // Y3 = E·(4·X·Y² − X3) − 8·Y⁴: the factor is (6), the sum (17 → 1)
  const Fe f = fe::add(fe::mul_int(d, 4), fe::negate(p.x, 1));
  p.y = fe::normalize_weak(fe::add(fe::mul(e, f), fe::mul_int(fe::negate(c, 1), 8)));
}

/// p += (bx, flip ? −by : by) for a finite affine operand of magnitude 1:
/// 8M + 3S, the same residues as jadd_mixed. The sign is a masked
/// negate; the only branch on values is the equal-x case.
inline void fe_add_mixed(FePoint& p, const Fe& bx, const Fe& by, bool flip) noexcept {
  if (p.inf) {
    p.x = bx;
    p.y = fe::normalize_weak(fe::cneg(by, 1, flip));
    p.z = fe::from_u64(1);
    p.inf = false;
    return;
  }
  const Fe z1z1 = fe::sqr(p.z);
  const Fe u2 = fe::mul(bx, z1z1);
  const Fe s2 = fe::cneg(fe::mul(by, fe::mul(z1z1, p.z)), 1, flip);  // (2)
  const Fe h = fe::add(u2, fe::negate(p.x, 1));                        // (3)
  const Fe r = fe::add(s2, fe::negate(p.y, 1));                        // (4)
  if (fe::is_zero(h)) {
    if (fe::is_zero(r)) {
      fe_double(p);
    } else {
      p.inf = true;
    }
    return;
  }
  const Fe h2 = fe::sqr(h);
  const Fe h3 = fe::mul(h2, h);
  const Fe u1h2 = fe::mul(p.x, h2);
  // X3 = r² − h³ − 2·X·h² (7 → 1)
  const Fe x3 = fe::normalize_weak(
      fe::add(fe::add(fe::sqr(r), fe::negate(h3, 1)), fe::mul_int(fe::negate(u1h2, 1), 2)));
  // Y3 = r·(X·h² − X3) − Y·h³ (3 → 1)
  p.y = fe::normalize_weak(
      fe::add(fe::mul(r, fe::add(u1h2, fe::negate(x3, 1))), fe::negate(fe::mul(p.y, h3), 1)));
  p.x = x3;
  p.z = fe::mul(h, p.z);
}

/// Odd multiples P, 3P, ..., (2·count − 1)P of a finite point by a co-Z
/// ZADDU ladder: 5M + 2S per entry and no inversion. Entry i comes out
/// on its own frame F_i (true affine x = x[i]/F_i², y = y[i]/F_i³), with
/// F_i = F_{i−1}·h[i] (h[i] has magnitude 3); returns F_0 = Z(2P).
Fe coz_odd_multiples(const AffinePoint& p, std::size_t count, Fe* x, Fe* y, Fe* h) noexcept {
  const Fe px = fe::from_u256(p.x);
  const Fe py = fe::from_u256(p.y);
  FePoint d{px, py, fe::from_u64(1), false};
  fe_double(d);  // 2P, Z = 2y (never 0 on secp256k1)
  const Fe dzz = fe::sqr(d.z);
  x[0] = fe::mul(px, dzz);  // P rescaled into 2P's frame
  y[0] = fe::mul(py, fe::mul(dzz, d.z));
  Fe bx = d.x;  // 2P, co-Z with the current odd multiple
  Fe by = d.y;
  for (std::size_t i = 1; i < count; ++i) {
    // ZADDU(2P, (2i−1)P), both on F_{i−1}: gives (2i+1)P and 2P rescaled,
    // co-Z on F_i = F_{i−1}·(X2 − X1).
    const Fe dx = fe::add(x[i - 1], fe::negate(bx, 1));  // (3)
    const Fe a = fe::sqr(dx);
    const Fe b = fe::mul(bx, a);
    const Fe c = fe::mul(x[i - 1], a);
    const Fe dy = fe::add(y[i - 1], fe::negate(by, 1));  // (3)
    const Fe x3 =
        fe::normalize_weak(fe::add(fe::sqr(dy), fe::add(fe::negate(b, 1), fe::negate(c, 1))));
    const Fe a1 = fe::mul(by, fe::add(c, fe::negate(b, 1)));
    y[i] = fe::normalize_weak(
        fe::add(fe::mul(dy, fe::add(b, fe::negate(x3, 1))), fe::negate(a1, 1)));
    x[i] = x3;
    h[i] = dx;
    bx = b;
    by = a1;
  }
  return d.z;
}

/// Store an entry and its endomorphism image (β·x, y) in the 4×64 form.
inline void store_entry(AffinePoint& q, AffinePoint& lq, const Fe& x, const Fe& y,
                        const Fe& beta) noexcept {
  q = AffinePoint{fe::to_u256(x), fe::to_u256(y), false};
  lq = AffinePoint{fe::to_u256(fe::mul(beta, x)), q.y, false};
}

/// True-affine odd multiples P, 3P, ..., (2·count − 1)P into q and their
/// λ images into lq: the co-Z ladder, one field inversion of the deepest
/// frame, then that inverse walked back down the ladder (4M + 1S per
/// entry).
void affine_odd_multiples(const AffinePoint& p, std::size_t count, AffinePoint* q,
                          AffinePoint* lq) {
  std::vector<Fe> x(count), y(count), h(count);
  Fe zinv = coz_odd_multiples(p, count, x.data(), y.data(), h.data());
  for (std::size_t i = 1; i < count; ++i) zinv = fe::mul(zinv, h[i]);
  zinv = fe::from_u256(finv(fe::to_u256(zinv)));  // 1 / F_{count−1}
  const Fe beta = fe::from_u256(kBeta);
  for (std::size_t i = count; i-- > 0;) {
    const Fe zz = fe::sqr(zinv);
    store_entry(q[i], lq[i], fe::mul(x[i], zz), fe::mul(y[i], fe::mul(zz, zinv)), beta);
    if (i > 0) zinv = fe::mul(zinv, h[i]);  // 1/F_{i−1} = h[i]/F_i
  }
}

constexpr std::size_t kPointTableSize = 16;  // wNAF-5 odd multiples

/// Affine odd multiples {1P, 3P, ..., 31P} on the stack for the per-call
/// scalar_mul / double_scalar_mul_shamir tables, in U256 arithmetic.
/// Pinned to the binary-GCD finv_baseline: this build (one inversion per
/// table) is part of the frozen baseline verify kernel that the bench
/// speedup ratios are measured against.
void odd_multiples_affine_16(const AffinePoint& p, AffinePoint out[kPointTableSize]) noexcept {
  JacobianPoint jac[kPointTableSize];
  jac[0] = to_jacobian(p);
  const JacobianPoint twop = jdouble(jac[0]);
  for (std::size_t i = 1; i < kPointTableSize; ++i) jac[i] = jadd(jac[i - 1], twop);
  // Montgomery batch inversion with stack prefixes.
  U256 prefix[kPointTableSize];
  U256 acc = U256::one();
  for (std::size_t i = 0; i < kPointTableSize; ++i) {
    prefix[i] = acc;
    acc = fmul(acc, jac[i].z);
  }
  U256 inv_all = finv_baseline(acc);
  for (std::size_t i = kPointTableSize; i-- > 0;) {
    const U256 zinv = fmul(inv_all, prefix[i]);
    inv_all = fmul(inv_all, jac[i].z);
    const U256 zinv2 = fsqr(zinv);
    out[i] = AffinePoint{fmul(jac[i].x, zinv2), fmul(jac[i].y, fmul(zinv2, zinv)), false};
  }
}

inline AffinePoint affine_neg(const AffinePoint& p) noexcept {
  return {p.x, fneg(p.y), false};
}

/// Static generator tables: 1G, 3G, ..., 511G (256 affine points) —
/// wide enough for the GLV chain's wNAF-9 digits; the legacy Shamir
/// kernel's wNAF-7 digits index the first 64 entries (the same points
/// PR-6 built) — and their λ images (β·x_i, y_i), because
/// λ·((2i+1)·G) = φ((2i+1)·G). Built once.
struct GenTables {
  AffinePoint g[256];
  AffinePoint lg[256];
};

const GenTables& gen_tables() {
  static const GenTables tables = [] {
    GenTables t;
    affine_odd_multiples(kG, 256, t.g, t.lg);
    return t;
  }();
  return tables;
}

constexpr unsigned kWnafWidthPoint = 5;  // per-call tables: 16 entries
constexpr unsigned kWnafWidthBase = 7;   // legacy Shamir G digits: 64 entries
constexpr unsigned kWnafWidthGlvBase = 9;  // GLV half-scalar G digits: 256 entries

}  // namespace

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) noexcept {
  if (k.is_zero() || p.infinity) return JacobianPoint::identity();
  std::int16_t naf[264];
  const int len = wnaf_digits(naf, k, kWnafWidthPoint);
  AffinePoint table[kPointTableSize];
  odd_multiples_affine_16(p, table);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = len; i-- > 0;) {
    acc = jdouble(acc);
    const int d = naf[i];
    if (d > 0) {
      acc = jadd_mixed(acc, table[static_cast<std::size_t>((d - 1) / 2)]);
    } else if (d < 0) {
      acc = jadd_mixed(acc, affine_neg(table[static_cast<std::size_t>((-d - 1) / 2)]));
    }
  }
  return acc;
}

JacobianPoint scalar_mul_naive(const U256& k, const AffinePoint& p) noexcept {
  // Reference bit-at-a-time double-and-add; the property tests pin the
  // windowed/wNAF/Shamir kernels against this.
  if (k.is_zero() || p.infinity) return JacobianPoint::identity();
  const JacobianPoint base = to_jacobian(p);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = jdouble(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = jadd(acc, base);
  }
  return acc;
}

JacobianPoint scalar_mul_base(const U256& k) noexcept {
  if (k.is_zero()) return JacobianPoint::identity();
  const BaseTable& table = base_table();
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t nib =
        static_cast<std::uint32_t>((k.w[i / 16] >> (4 * (i % 16))) & 0xF);
    if (nib != 0) acc = jadd_mixed(acc, table.pts[i][nib - 1]);
  }
  return acc;
}

JacobianPoint double_scalar_mul_shamir(const U256& u1, const U256& u2,
                                       const AffinePoint& p) noexcept {
  // Shamir's trick, interleaved: one shared doubling chain; u1·G digits
  // come from the static wNAF-7 generator table, u2·P digits from a
  // per-call batch-normalized wNAF-5 table.
  if (u2.is_zero() || p.infinity) return scalar_mul_base(u1);
  if (u1.is_zero()) return scalar_mul(u2, p);

  std::int16_t naf1[264];
  std::int16_t naf2[264];
  const int len1 = wnaf_digits(naf1, u1, kWnafWidthBase);
  const int len2 = wnaf_digits(naf2, u2, kWnafWidthPoint);
  const AffinePoint* gtab = gen_tables().g;
  AffinePoint ptab[kPointTableSize];
  odd_multiples_affine_16(p, ptab);

  JacobianPoint acc = JacobianPoint::identity();
  for (int i = (len1 > len2 ? len1 : len2); i-- > 0;) {
    acc = jdouble(acc);
    if (i < len1) {
      const int d = naf1[i];
      if (d > 0) {
        acc = jadd_mixed(acc, gtab[static_cast<std::size_t>((d - 1) / 2)]);
      } else if (d < 0) {
        acc = jadd_mixed(acc, affine_neg(gtab[static_cast<std::size_t>((-d - 1) / 2)]));
      }
    }
    if (i < len2) {
      const int d = naf2[i];
      if (d > 0) {
        acc = jadd_mixed(acc, ptab[static_cast<std::size_t>((d - 1) / 2)]);
      } else if (d < 0) {
        acc = jadd_mixed(acc, affine_neg(ptab[static_cast<std::size_t>((-d - 1) / 2)]));
      }
    }
  }
  return acc;
}

const U256& glv_lambda() noexcept { return kLambda; }
const U256& glv_beta() noexcept { return kBeta; }

GlvSplit glv_split(const U256& k) noexcept {
  // Lattice round-off: both representatives land in [0, n); the signed
  // value is the representative itself when ≤ n/2, else representative−n.
  const U256 c1 = mul_shift_384(k, kGlvG1);
  const U256 c2 = mul_shift_384(k, kGlvG2);
  const U256 r2 = nadd(nmul(c1, kGlvMinusB1), nmul(c2, kGlvMinusB2));
  const U256 r1 = nadd(nreduce(k), nneg(nmul(r2, kLambda)));
  GlvSplit s;
  s.neg1 = r1 > kHalfN;
  s.k1 = s.neg1 ? kN - r1 : r1;
  s.neg2 = r2 > kHalfN;
  s.k2 = s.neg2 ? kN - r2 : r2;
  return s;
}

namespace {

/// Four-stream GLV wNAF chain computing u1·G + u2·Q: both scalars are
/// split into ~128-bit halves, so the shared doubling chain is ~128 deep
/// instead of ~256. G / λG digits come from the static wNAF-9 tables;
/// Q / λQ digits from `qtab`/`lqtab` (width `qwidth`), which are either
/// true affine (`qz == nullptr`, the precomp-cache path) or
/// effective-affine on the isomorphism with Jacobian Z = *qz (the
/// inversion-free per-call path) — in the latter frame the static G
/// entries are mapped in by (x·Z², y·Z³) on use and the accumulator's Z
/// is rescaled once at the end. The accumulator lives in Fe; each table
/// entry is converted from its 4×64 storage form on load, and only the
/// result is normalized.
JacobianPoint glv_chain(const U256& u1, const U256& u2, const AffinePoint* qtab,
                        const AffinePoint* lqtab, unsigned qwidth, const U256* qz) noexcept {
  const GlvSplit s1 = glv_split(u1);
  const GlvSplit s2 = glv_split(u2);
  // Half-scalar magnitudes stay under 2^130, so 140 digits suffice.
  std::int16_t naf[4][140];
  int len[4];
  len[0] = wnaf_digits(naf[0], s1.k1, kWnafWidthGlvBase);
  len[1] = wnaf_digits(naf[1], s1.k2, kWnafWidthGlvBase);
  len[2] = wnaf_digits(naf[2], s2.k1, qwidth);
  len[3] = wnaf_digits(naf[3], s2.k2, qwidth);
  const bool neg[4] = {s1.neg1, s1.neg2, s2.neg1, s2.neg2};

  const GenTables& gen = gen_tables();
  const AffinePoint* tabs[4] = {gen.g, gen.lg, qtab, lqtab};

  const bool iso = qz != nullptr;
  Fe z{}, zz{}, zzz{};
  if (iso) {
    z = fe::from_u256(*qz);
    zz = fe::sqr(z);
    zzz = fe::mul(zz, z);
  }

  int top = 0;
  for (int t = 0; t < 4; ++t) top = len[t] > top ? len[t] : top;

  FePoint acc{};
  acc.inf = true;
  for (int i = top; i-- > 0;) {
    fe_double(acc);
    for (int t = 0; t < 4; ++t) {
      if (i >= len[t]) continue;
      const int d = naf[t][i];
      if (d == 0) continue;
      const AffinePoint& e = tabs[t][static_cast<std::size_t>(((d < 0 ? -d : d) - 1) / 2)];
      Fe bx = fe::from_u256(e.x);
      Fe by = fe::from_u256(e.y);
      if (iso && t < 2) {
        // Map the true-affine static entry into the shared frame.
        bx = fe::mul(bx, zz);
        by = fe::mul(by, zzz);
      }
      fe_add_mixed(acc, bx, by, (d < 0) != neg[t]);
    }
  }
  if (acc.inf) return JacobianPoint::identity();
  if (iso) acc.z = fe::mul(acc.z, z);
  return {fe::to_u256(acc.x), fe::to_u256(acc.y), fe::to_u256(acc.z)};
}

}  // namespace

void build_point_tables(const AffinePoint& p, PointTables& out) noexcept {
  // Odd multiples 1P, 3P, ..., 31P via the co-Z ladder, then a global-Z
  // rescale so the whole table shares one projective frame — no field
  // inversion anywhere.
  constexpr std::size_t kLast = kPointTableEntries - 1;
  Fe x[kPointTableEntries]{};
  Fe y[kPointTableEntries]{};
  Fe h[kPointTableEntries]{};
  const Fe z0 = coz_odd_multiples(p, kPointTableEntries, x, y, h);
  const Fe beta = fe::from_u256(kBeta);
  // Entry i scales by F_15 / F_i = h[i+1]···h[15]. The endomorphism
  // commutes with the frame scaling, so λQ is still the β·x map.
  store_entry(out.q[kLast], out.lq[kLast], x[kLast], y[kLast], beta);
  Fe cprod = h[kLast];
  for (std::size_t i = kLast; i-- > 0;) {
    const Fe c2 = fe::sqr(cprod);
    store_entry(out.q[i], out.lq[i], fe::mul(x[i], c2), fe::mul(y[i], fe::mul(c2, cprod)), beta);
    if (i > 0) cprod = fe::mul(cprod, h[i]);
  }
  out.z = fe::to_u256(fe::mul(z0, cprod));
}

JacobianPoint double_scalar_mul_tables(const U256& u1, const U256& u2,
                                       const PointTables& tables) noexcept {
  return glv_chain(u1, u2, tables.q, tables.lq, kWnafWidthPoint, &tables.z);
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& p) noexcept {
  if (u2.is_zero() || p.infinity) return scalar_mul_base(u1);
  PointTables tables;
  build_point_tables(p, tables);
  return double_scalar_mul_tables(u1, u2, tables);
}

PubkeyPrecomp build_pubkey_precomp(const AffinePoint& p) {
  PubkeyPrecomp pre;
  affine_odd_multiples(p, PubkeyPrecomp::kEntries, pre.q, pre.lq);
  return pre;
}

JacobianPoint double_scalar_mul_precomp(const U256& u1, const U256& u2,
                                        const PubkeyPrecomp& pre) noexcept {
  if (u2.is_zero()) return scalar_mul_base(u1);
  return glv_chain(u1, u2, pre.q, pre.lq, PubkeyPrecomp::kWidth, nullptr);
}

bool on_curve(const AffinePoint& p) noexcept {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const U256 lhs = fsqr(p.y);
  const U256 rhs = fadd(fmul(fsqr(p.x), p.x), U256(7));
  return lhs == rhs;
}

ByteArray<33> compress(const AffinePoint& p) noexcept {
  ByteArray<33> out{};
  out[0] = p.y.bit(0) ? 0x03 : 0x02;
  const auto xb = p.x.to_be_bytes();
  for (std::size_t i = 0; i < 32; ++i) out[i + 1] = xb[i];
  return out;
}

std::optional<AffinePoint> decompress(ByteSpan bytes) noexcept {
  if (bytes.size() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03)) return std::nullopt;
  const U256 x = U256::from_be_bytes(bytes.subspan(1));
  if (x >= kP) return std::nullopt;
  const Fe xf = fe::from_u256(x);
  const Fe rhs = fe::add(fe::mul(fe::sqr(xf), xf), fe::from_u64(7));  // (2)
  const Fe cand = fe_sqrt_candidate(rhs);
  // x³ + 7 is a square iff the candidate squares back to it; then the
  // candidate is a root and y is it or its negation, by parity.
  if (!fe::equal(rhs, fe::sqr(cand))) return std::nullopt;
  U256 y = fe::to_u256(cand);
  if (y.bit(0) != (bytes[0] == 0x03)) y = fneg(y);
  return AffinePoint{x, y, false};
}

}  // namespace btcfast::crypto::secp
