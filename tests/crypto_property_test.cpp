// Property-style parameterized tests over the crypto layer: algebraic
// invariants checked across many random inputs (seeded, deterministic).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/batch_verify.h"
#include "crypto/ecdsa.h"
#include "crypto/field.h"
#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/sigcache.h"
#include "crypto/uint256.h"

namespace btcfast::crypto {
namespace {

U256 random_u256(Rng& rng) {
  const auto raw = rng.bytes<32>();
  return U256::from_be_bytes({raw.data(), raw.size()});
}

U256 random_scalar(Rng& rng) {
  // Rejection sample below n (gap to 2^256 is tiny).
  for (;;) {
    const U256 v = random_u256(rng);
    if (!v.is_zero() && v < secp::order_n()) return v;
  }
}

class U256Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U256Property, AdditionCommutesAndAssociates) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng), b = random_u256(rng), c = random_u256(rng);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
}

TEST_P(U256Property, SubtractionInvertsAddition) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng), b = random_u256(rng);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ(a - a, U256::zero());
}

TEST_P(U256Property, MulWideMatchesShiftAddForSmallMultipliers) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  // a * 8 == a << 3 in wrapping arithmetic, and wide product high part
  // captures the shifted-out bits.
  EXPECT_EQ(a * U256(8), a << 3);
}

TEST_P(U256Property, DivModIdentity) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  U256 d = random_u256(rng) >> (static_cast<unsigned>(rng.below(200)));
  if (d.is_zero()) d = U256(3);
  const U256 q = a / d;
  const U256 r = a % d;
  EXPECT_LT(r, d);
  // q*d + r == a (q*d cannot overflow since q = floor(a/d)).
  EXPECT_EQ(q * d + r, a);
}

TEST_P(U256Property, ShiftRoundTrips) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  const unsigned n = static_cast<unsigned>(rng.below(255)) + 1;
  EXPECT_EQ(((a >> n) << n) | (a & ((U256::one() << n) - U256(1))), a);
}

TEST_P(U256Property, ByteRoundTrips) {
  Rng rng(GetParam());
  const U256 a = random_u256(rng);
  const auto be = a.to_be_bytes();
  const auto le = a.to_le_bytes();
  EXPECT_EQ(U256::from_be_bytes({be.data(), be.size()}), a);
  EXPECT_EQ(U256::from_le_bytes({le.data(), le.size()}), a);
}

TEST_P(U256Property, ModularInverseOnSecpPrimes) {
  Rng rng(GetParam());
  const U256 a = random_scalar(rng);
  const U256 inv_n = invmod_prime(a, secp::order_n());
  EXPECT_EQ(mulmod(a, inv_n, secp::order_n()), U256::one());
  const U256 b = random_u256(rng) % secp::field_p();
  if (!b.is_zero()) {
    EXPECT_EQ(secp::fmul(b, secp::finv(b)), U256::one());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, U256Property, ::testing::Range<std::uint64_t>(1, 21));

class CurveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CurveProperty, ScalarMulLandsOnCurve) {
  Rng rng(GetParam());
  const U256 k = random_scalar(rng);
  const auto p = secp::to_affine(secp::scalar_mul_base(k));
  EXPECT_TRUE(secp::on_curve(p));
}

TEST_P(CurveProperty, ScalarDistributesOverAddition) {
  Rng rng(GetParam());
  // (k1 + k2) G == k1 G + k2 G  (scalars mod n)
  const U256 k1 = random_scalar(rng);
  const U256 k2 = random_scalar(rng);
  const U256 ksum = addmod(k1, k2, secp::order_n());
  const auto lhs = secp::to_affine(secp::scalar_mul_base(ksum));
  const auto rhs = secp::to_affine(
      secp::jadd(secp::scalar_mul_base(k1), secp::scalar_mul_base(k2)));
  EXPECT_EQ(lhs, rhs);
}

TEST_P(CurveProperty, DoubleScalarMulMatchesNaive) {
  Rng rng(GetParam());
  const U256 u1 = random_scalar(rng);
  const U256 u2 = random_scalar(rng);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto fast = secp::to_affine(secp::double_scalar_mul(u1, u2, p));
  const auto naive = secp::to_affine(
      secp::jadd(secp::scalar_mul_base(u1), secp::scalar_mul(u2, p)));
  EXPECT_EQ(fast, naive);
}

TEST_P(CurveProperty, CompressedRoundTrip) {
  Rng rng(GetParam());
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto enc = secp::compress(p);
  const auto dec = secp::decompress({enc.data(), enc.size()});
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveProperty, ::testing::Range<std::uint64_t>(100, 112));

// --- fast-kernel equivalence: the windowed/wNAF/Shamir implementations
// must be bit-identical to the naive double-and-add reference. ---

class FastKernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastKernelEquivalence, WnafScalarMulMatchesNaive) {
  Rng rng(GetParam());
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  for (int i = 0; i < 50; ++i) {
    const U256 k = random_scalar(rng);
    EXPECT_EQ(secp::to_affine(secp::scalar_mul(k, p)),
              secp::to_affine(secp::scalar_mul_naive(k, p)));
  }
}

TEST_P(FastKernelEquivalence, CombBaseMulMatchesNaive) {
  Rng rng(GetParam() * 131 + 17);
  for (int i = 0; i < 50; ++i) {
    const U256 k = random_scalar(rng);
    EXPECT_EQ(secp::to_affine(secp::scalar_mul_base(k)),
              secp::to_affine(secp::scalar_mul_naive(k, secp::generator())));
  }
}

TEST_P(FastKernelEquivalence, ShamirMatchesNaiveComposition) {
  Rng rng(GetParam() * 977 + 3);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const U256 u1 = random_scalar(rng);
  const U256 u2 = random_scalar(rng);
  const auto fast = secp::to_affine(secp::double_scalar_mul(u1, u2, p));
  const auto naive = secp::to_affine(secp::jadd(secp::scalar_mul_naive(u1, secp::generator()),
                                                secp::scalar_mul_naive(u2, p)));
  EXPECT_EQ(fast, naive);
}

TEST_P(FastKernelEquivalence, BinaryGcdInverseMatchesFermat) {
  Rng rng(GetParam() * 59 + 29);
  const U256 a = random_scalar(rng);
  EXPECT_EQ(invmod_odd(a, secp::order_n()), invmod_prime(a, secp::order_n()));
  const U256 b = random_u256(rng) % secp::field_p();
  if (!b.is_zero()) {
    EXPECT_EQ(invmod_odd(b, secp::field_p()), invmod_prime(b, secp::field_p()));
  }
}

TEST_P(FastKernelEquivalence, DivstepsInverseMatchesBinaryGcd) {
  Rng rng(GetParam() * 6151 + 11);
  for (int i = 0; i < 40; ++i) {
    const U256 a = random_scalar(rng);
    EXPECT_EQ(invmod_odd_var(a, secp::order_n()), invmod_odd(a, secp::order_n()));
    const U256 b = random_u256(rng) % secp::field_p();
    if (!b.is_zero()) {
      EXPECT_EQ(invmod_odd_var(b, secp::field_p()), invmod_odd(b, secp::field_p()));
    }
  }
}

TEST(FastKernelEdgeCases, DivstepsInverseEdges) {
  const U256& n = secp::order_n();
  const U256& p = secp::field_p();
  for (const U256* m : {&n, &p}) {
    // 1, m-1, tiny, sparse high-bit, and near-half patterns.
    const U256 cases[] = {U256::one(),           *m - U256::one(),     U256(2),
                          U256(3),               U256::one() << 255,   (U256::one() << 255) | U256::one(),
                          *m >> 1,               (*m >> 1) + U256::one()};
    for (const U256& a : cases) {
      const U256 r = invmod_odd_var(a, *m);
      EXPECT_EQ(r, invmod_odd(a, *m)) << a.to_hex();
      // Round-trip: a * a^-1 == 1 (mod m). mulmod via 512-bit divmod.
      EXPECT_EQ(divmod(a.mul_wide(r), *m).remainder, U256::one()) << a.to_hex();
    }
  }
  // a == 0 and a >= m are handled like the hot-path callers expect.
  EXPECT_TRUE(invmod_odd_var(U256::zero(), n).is_zero());
  EXPECT_EQ(invmod_odd_var(n + U256(5), n), invmod_odd(U256(5), n));
  // Non-coprime input to an odd composite modulus: no inverse, returns 0.
  EXPECT_TRUE(invmod_odd_var(U256(3), U256(9)).is_zero());
}

TEST_P(FastKernelEquivalence, SquareMatchesSelfMultiply) {
  Rng rng(GetParam() * 7919 + 1);
  const U256 a = random_u256(rng) % secp::field_p();
  EXPECT_EQ(secp::fsqr(a), secp::fmul(a, a));
}

// 20 seeds x 50 iterations = 1000 random scalars through each kernel.
INSTANTIATE_TEST_SUITE_P(Seeds, FastKernelEquivalence, ::testing::Range<std::uint64_t>(300, 320));

TEST(FastKernelEdgeCases, EdgeScalars) {
  Rng rng(424242);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const U256 n_minus_1 = secp::order_n() - U256::one();

  // k = 0 -> identity everywhere.
  EXPECT_TRUE(secp::scalar_mul(U256::zero(), p).is_infinity());
  EXPECT_TRUE(secp::scalar_mul_base(U256::zero()).is_infinity());
  EXPECT_TRUE(secp::scalar_mul_naive(U256::zero(), p).is_infinity());

  // k = 1 -> the point itself.
  EXPECT_EQ(secp::to_affine(secp::scalar_mul(U256::one(), p)), p);
  EXPECT_EQ(secp::to_affine(secp::scalar_mul_base(U256::one())), secp::generator());

  // k = n-1 -> -P (negation), and fast == naive.
  const auto neg_fast = secp::to_affine(secp::scalar_mul(n_minus_1, p));
  const auto neg_naive = secp::to_affine(secp::scalar_mul_naive(n_minus_1, p));
  EXPECT_EQ(neg_fast, neg_naive);
  EXPECT_EQ(neg_fast.x, p.x);
  EXPECT_EQ(neg_fast.y, secp::fneg(p.y));

  // Point at infinity inputs.
  const auto inf = secp::AffinePoint::identity();
  EXPECT_TRUE(secp::scalar_mul(U256(7), inf).is_infinity());
  EXPECT_TRUE(secp::scalar_mul_naive(U256(7), inf).is_infinity());
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(U256(5), U256(9), inf)),
            secp::to_affine(secp::scalar_mul_base(U256(5))));

  // Degenerate Shamir operands fall back to single-scalar paths.
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(U256::zero(), U256(9), p)),
            secp::to_affine(secp::scalar_mul(U256(9), p)));
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(U256(5), U256::zero(), p)),
            secp::to_affine(secp::scalar_mul_base(U256(5))));
  EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(n_minus_1, n_minus_1, p)),
            secp::to_affine(secp::jadd(secp::scalar_mul_naive(n_minus_1, secp::generator()),
                                       secp::scalar_mul_naive(n_minus_1, p))));
}

// --- GLV endomorphism: decomposition identities and the four-stream
// multi-scalar kernels (per-call shared-frame tables and the cached
// wide-precomp variant) pinned against the naive reference. ---

class GlvProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlvProperty, SplitRecombinesWithSignsAndBounds) {
  Rng rng(GetParam() * 6151 + 11);
  const U256& n = secp::order_n();
  for (int i = 0; i < 50; ++i) {
    const U256 k = random_scalar(rng);
    const auto s = secp::glv_split(k);
    // Magnitudes stay half-length: the lattice bound is < 2^129.
    if (!s.k1.is_zero()) { EXPECT_LE(s.k1.top_bit(), 129); }
    if (!s.k2.is_zero()) { EXPECT_LE(s.k2.top_bit(), 129); }
    // A negated magnitude is never zero (zero never exceeds n/2).
    if (s.neg1) { EXPECT_FALSE(s.k1.is_zero()); }
    if (s.neg2) { EXPECT_FALSE(s.k2.is_zero()); }
    // k ≡ (±k1) + λ·(±k2) (mod n).
    const U256 t1 = s.neg1 ? n - s.k1 : s.k1;
    const U256 t2 = s.neg2 ? n - s.k2 : s.k2;
    EXPECT_EQ(secp::nadd(t1, secp::nmul(secp::glv_lambda(), t2)), k);
  }
}

TEST_P(GlvProperty, EndomorphismIsLambdaMultiplication) {
  Rng rng(GetParam() * 271 + 5);
  // φ(P) = (β·x, y) must equal λ·P for arbitrary P.
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const secp::AffinePoint phi{secp::fmul(secp::glv_beta(), p.x), p.y, false};
  EXPECT_TRUE(secp::on_curve(phi));
  EXPECT_EQ(phi, secp::to_affine(secp::scalar_mul_naive(secp::glv_lambda(), p)));
}

TEST_P(GlvProperty, MultiScalarMatchesNaiveComposition) {
  Rng rng(GetParam() * 389 + 7);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  for (int i = 0; i < 10; ++i) {
    const U256 u1 = random_scalar(rng);
    const U256 u2 = random_scalar(rng);
    const auto naive = secp::to_affine(secp::jadd(secp::scalar_mul_naive(u1, secp::generator()),
                                                  secp::scalar_mul_naive(u2, p)));
    // GLV with per-call shared-frame tables (the cold verify path).
    EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(u1, u2, p)), naive);
    // Legacy Shamir baseline stays equivalent too.
    EXPECT_EQ(secp::to_affine(secp::double_scalar_mul_shamir(u1, u2, p)), naive);
  }
}

TEST_P(GlvProperty, PrecompKernelMatchesPerCallKernel) {
  Rng rng(GetParam() * 911 + 13);
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto pre = secp::build_pubkey_precomp(p);
  secp::PointTables tables;
  secp::build_point_tables(p, tables);
  for (int i = 0; i < 10; ++i) {
    const U256 u1 = random_scalar(rng);
    const U256 u2 = random_scalar(rng);
    const auto cold = secp::to_affine(secp::double_scalar_mul_tables(u1, u2, tables));
    const auto warm = secp::to_affine(secp::double_scalar_mul_precomp(u1, u2, pre));
    EXPECT_EQ(cold, warm);
    EXPECT_EQ(warm, secp::to_affine(secp::double_scalar_mul_shamir(u1, u2, p)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlvProperty, ::testing::Range<std::uint64_t>(500, 510));

TEST(GlvEdgeCases, EdgeScalarSplitsAndKernels) {
  Rng rng(987654);
  const U256& n = secp::order_n();
  const auto p = secp::to_affine(secp::scalar_mul_base(random_scalar(rng)));
  const auto pre = secp::build_pubkey_precomp(p);

  const U256 edges[] = {U256::zero(),          U256::one(),
                        n - U256::one(),       secp::half_order(),
                        secp::half_order() + U256::one(), secp::glv_lambda(),
                        n - secp::glv_lambda()};
  for (const U256& k : edges) {
    // Split recombines even at the extremes (0 splits to (0, 0)).
    const auto s = secp::glv_split(k);
    const U256 t1 = s.neg1 ? n - s.k1 : s.k1;
    const U256 t2 = s.neg2 ? n - s.k2 : s.k2;
    EXPECT_EQ(secp::nadd(t1, secp::nmul(secp::glv_lambda(), t2)), k);
    // Every (edge, edge) pair through both GLV kernels vs the reference.
    for (const U256& u2 : edges) {
      if (u2.is_zero()) continue;  // precomp kernel requires u2 != 0 upstream
      const auto naive = secp::to_affine(secp::jadd(
          secp::scalar_mul_naive(k, secp::generator()), secp::scalar_mul_naive(u2, p)));
      EXPECT_EQ(secp::to_affine(secp::double_scalar_mul(k, u2, p)), naive);
      EXPECT_EQ(secp::to_affine(secp::double_scalar_mul_precomp(k, u2, pre)), naive);
    }
  }
}

// --- the 5×52 Fe engine (crypto/field.h) against the U256 oracle. Each
// operation is fed random limbs at the largest magnitude its contract
// admits, plus edge forms; results are compared by value mod p (the
// oracle folds limbs with fmul/fadd only) and checked against the output
// magnitude the contract promises. ---

using secp::Fe;
namespace fe = secp::fe;

constexpr std::uint64_t kM52 = fe::kM52;
constexpr std::uint64_t kM48 = fe::kM48;

/// The value an Fe represents, reduced mod p by U256 arithmetic alone:
/// Horner over the limbs, acc = acc·2^52 + limb.
U256 fe_value(const Fe& a) {
  const U256 two52 = U256::one() << 52;
  U256 acc = U256::zero();
  for (int i = 4; i >= 0; --i) acc = secp::fadd(secp::fmul(acc, two52), U256(a.n[i]));
  return acc;
}

/// Limbs within magnitude m: n[0..3] ≤ 2m·(2^52−1), n[4] ≤ 2m·(2^48−1).
bool within_magnitude(const Fe& a, std::uint64_t m) {
  for (int i = 0; i < 4; ++i) {
    if (a.n[i] > 2 * m * kM52) return false;
  }
  return a.n[4] <= 2 * m * kM48;
}

bool is_canonical(const Fe& a) {
  for (int i = 0; i < 4; ++i) {
    if (a.n[i] > kM52) return false;
  }
  if (a.n[4] > kM48) return false;
  U256 v;  // repack without reducing
  v.w[0] = a.n[0] | (a.n[1] << 52);
  v.w[1] = (a.n[1] >> 12) | (a.n[2] << 40);
  v.w[2] = (a.n[2] >> 24) | (a.n[3] << 28);
  v.w[3] = (a.n[3] >> 36) | (a.n[4] << 16);
  return v < secp::field_p();
}

/// Random limbs at magnitude m. A quarter of the limbs sit exactly on a
/// bound (0 or the maximum) so carries out of full limbs get exercised.
Fe random_fe(Rng& rng, std::uint64_t m) {
  Fe a{};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t bound = 2 * m * (i == 4 ? kM48 : kM52);
    const std::uint64_t pick = rng.below(8);
    a.n[i] = pick == 0 ? bound : pick == 1 ? 0 : rng.below(bound + 1);
  }
  return a;
}

/// Edge forms at magnitude m: 0, 1, p−1, p and p+1 as from_u256 gives
/// them, 2^256−1, the all-maximum limb vector, and 0 and 1 lifted by the
/// largest multiple of p the magnitude holds (p's limbs times 2m−1).
std::vector<Fe> edge_fes(std::uint64_t m) {
  const U256& p = secp::field_p();
  std::vector<Fe> v = {fe::from_u64(0), fe::from_u64(1),
                       fe::from_u256(p - U256::one()), fe::from_u256(p),
                       fe::from_u256(p + U256::one()), fe::from_u256(U256::max())};
  Fe top{};
  for (int i = 0; i < 5; ++i) top.n[i] = 2 * m * (i == 4 ? kM48 : kM52);
  v.push_back(top);
  if (m >= 1) {
    const Fe pk = fe::mul_int(fe::from_u256(p), 2 * m - 1);
    v.push_back(pk);                              // ≡ 0
    v.push_back(fe::add(pk, fe::from_u64(1)));    // ≡ 1
  }
  return v;
}

class FeOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeOracle, MulAndSqrMatchU256AtMagnitude8) {
  Rng rng(GetParam() * 7001 + 3);
  std::vector<Fe> in = edge_fes(8);
  for (int i = 0; i < 200; ++i) in.push_back(random_fe(rng, 8));
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Fe& a = in[i];
    const Fe& b = in[(i * 7 + 3) % in.size()];
    ASSERT_TRUE(within_magnitude(a, 8));
    const Fe prod = fe::mul(a, b);
    const Fe square = fe::sqr(a);
    EXPECT_EQ(fe_value(prod), secp::fmul(fe_value(a), fe_value(b))) << i;
    EXPECT_EQ(fe_value(square), secp::fsqr(fe_value(a))) << i;
    EXPECT_TRUE(within_magnitude(prod, 1)) << i;
    EXPECT_TRUE(within_magnitude(square, 1)) << i;
  }
  // Every edge form against every other one.
  const auto edges = edge_fes(8);
  for (const Fe& a : edges) {
    for (const Fe& b : edges) {
      EXPECT_EQ(fe_value(fe::mul(a, b)), secp::fmul(fe_value(a), fe_value(b)));
    }
  }
}

TEST_P(FeOracle, LinearOpsMatchU256AtTheirLargestMagnitude) {
  Rng rng(GetParam() * 7013 + 5);
  for (int i = 0; i < 200; ++i) {
    // add: 16 + 16 = 32.
    const Fe a = random_fe(rng, 16);
    const Fe b = random_fe(rng, 16);
    const Fe sum = fe::add(a, b);
    EXPECT_EQ(fe_value(sum), secp::fadd(fe_value(a), fe_value(b)));
    EXPECT_TRUE(within_magnitude(sum, 32));
    // mul_int: magnitude 4 times 8.
    const Fe c = random_fe(rng, 4);
    const Fe c8 = fe::mul_int(c, 8);
    EXPECT_EQ(fe_value(c8), secp::fmul(fe_value(c), U256(8)));
    EXPECT_TRUE(within_magnitude(c8, 32));
    // negate and cneg: magnitude 31 in, 32 out.
    const Fe d = random_fe(rng, 31);
    const Fe nd = fe::negate(d, 31);
    EXPECT_EQ(fe_value(nd), secp::fneg(fe_value(d)));
    EXPECT_TRUE(within_magnitude(nd, 32));
    for (const bool flag : {false, true}) {
      const Fe cd = fe::cneg(d, 31, flag);
      EXPECT_EQ(fe_value(cd), flag ? secp::fneg(fe_value(d)) : fe_value(d));
      EXPECT_TRUE(within_magnitude(cd, 32));
    }
    // negate at magnitude 1, the chain's common case.
    const Fe e = random_fe(rng, 1);
    EXPECT_EQ(fe_value(fe::negate(e, 1)), secp::fneg(fe_value(e)));
  }
}

TEST_P(FeOracle, NormalizationAndZeroTestMatchU256AtMagnitude32) {
  Rng rng(GetParam() * 7027 + 7);
  std::vector<Fe> in = edge_fes(32);
  for (const Fe& e : edge_fes(1)) in.push_back(e);
  for (int i = 0; i < 300; ++i) in.push_back(random_fe(rng, 32));
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Fe& a = in[i];
    const U256 v = fe_value(a);
    const Fe weak = fe::normalize_weak(a);
    EXPECT_EQ(fe_value(weak), v) << i;
    EXPECT_TRUE(within_magnitude(weak, 1)) << i;
    const Fe full = fe::normalize(a);
    EXPECT_TRUE(is_canonical(full)) << i;
    EXPECT_EQ(fe::to_u256(a), v) << i;
    EXPECT_EQ(fe::to_u256(full), v) << i;
    EXPECT_EQ(fe::is_zero(a), v.is_zero()) << i;
    if (within_magnitude(a, 30)) {
      EXPECT_TRUE(fe::equal(a, fe::from_u256(v))) << i;
      EXPECT_FALSE(fe::equal(a, fe::from_u256(secp::fadd(v, U256::one())))) << i;
    }
  }
  // from_u256 round-trips every canonical value and is magnitude 1 for
  // any 256-bit input.
  for (int i = 0; i < 200; ++i) {
    const auto raw = rng.bytes<32>();
    const U256 x = U256::from_be_bytes({raw.data(), raw.size()});
    const Fe f = fe::from_u256(x);
    EXPECT_TRUE(within_magnitude(f, 1));
    EXPECT_EQ(fe::to_u256(f), x >= secp::field_p() ? x - secp::field_p() : x);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeOracle, ::testing::Range<std::uint64_t>(700, 710));

/// Reference decompress in U256 arithmetic alone: the square root is the
/// generic powmod to (p+1)/4.
std::optional<secp::AffinePoint> reference_decompress(ByteSpan bytes) {
  if (bytes.size() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03)) return std::nullopt;
  const U256 x = U256::from_be_bytes(bytes.subspan(1));
  if (x >= secp::field_p()) return std::nullopt;
  const U256 rhs = secp::fadd(secp::fmul(secp::fsqr(x), x), U256(7));
  U256 y = powmod(rhs, (secp::field_p() + U256::one()) >> 2, secp::field_p());
  if (secp::fsqr(y) != rhs) return std::nullopt;
  if (y.bit(0) != (bytes[0] == 0x03)) y = secp::fneg(y);
  const secp::AffinePoint pt{x, y, false};
  if (!secp::on_curve(pt)) return std::nullopt;
  return pt;
}

TEST(FeSqrt, DecompressMatchesTheU256Reference) {
  Rng rng(8080);
  const U256& p = secp::field_p();
  std::vector<U256> xs = {U256::zero(), U256::one(),    U256(7),      p - U256::one(),
                          p,            p + U256::one(), U256::max(), secp::generator().x};
  for (int i = 0; i < 120; ++i) {
    const auto raw = rng.bytes<32>();
    xs.push_back(U256::from_be_bytes({raw.data(), raw.size()}));
  }
  int residues = 0;
  int non_residues = 0;
  for (const U256& x : xs) {
    const auto xb = x.to_be_bytes();
    for (const std::uint8_t prefix : {0x02, 0x03, 0x00, 0x04, 0x01, 0xff}) {
      ByteArray<33> enc{};
      enc[0] = prefix;
      for (std::size_t i = 0; i < 32; ++i) enc[i + 1] = xb[i];
      const auto got = secp::decompress({enc.data(), enc.size()});
      const auto want = reference_decompress({enc.data(), enc.size()});
      ASSERT_EQ(got.has_value(), want.has_value()) << x.to_hex() << " prefix " << int{prefix};
      if (got) {
        EXPECT_EQ(*got, *want);
        EXPECT_TRUE(secp::on_curve(*got));
        EXPECT_EQ(got->y.bit(0), prefix == 0x03);
      }
      if (prefix == 0x02 && x < p) (want ? residues : non_residues) += 1;
    }
    // Short and long encodings are refused.
    ByteArray<34> long_enc{};
    long_enc[0] = 0x02;
    EXPECT_FALSE(secp::decompress({long_enc.data(), 32}).has_value());
    EXPECT_FALSE(secp::decompress({long_enc.data(), 34}).has_value());
  }
  // Both branches of the square-root test were taken.
  EXPECT_GT(residues, 20);
  EXPECT_GT(non_residues, 20);
}

TEST(FeSqrt, FsqrtMatchesGenericPowmod) {
  Rng rng(9090);
  const U256& p = secp::field_p();
  const U256 e = (p + U256::one()) >> 2;
  std::vector<U256> as = {U256::zero(), U256::one(), U256(4), p - U256::one(), p, U256::max()};
  for (int i = 0; i < 60; ++i) {
    const auto raw = rng.bytes<32>();
    as.push_back(U256::from_be_bytes({raw.data(), raw.size()}) % p);
  }
  for (const U256& a : as) {
    const auto got = secp::fsqrt(a);
    if (a >= p) {
      EXPECT_FALSE(got.has_value()) << a.to_hex();  // outside the contract: never a square
      continue;
    }
    const U256 cand = powmod(a, e, p);
    if (secp::fsqr(cand) == a) {
      ASSERT_TRUE(got.has_value()) << a.to_hex();
      EXPECT_EQ(*got, cand);
    } else {
      EXPECT_FALSE(got.has_value()) << a.to_hex();
    }
  }
}

class EcdsaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdsaProperty, SignVerifyHolds) {
  Rng rng(GetParam());
  const auto key = PrivateKey::from_scalar(random_scalar(rng));
  ASSERT_TRUE(key.has_value());
  const auto pub = PublicKey::derive(*key);
  const auto msg = rng.bytes<48>();
  const auto digest = sha256({msg.data(), msg.size()});
  const Signature sig = ecdsa_sign(*key, digest);
  EXPECT_TRUE(ecdsa_verify(pub, digest, sig));
}

TEST_P(EcdsaProperty, TamperedSignatureFails) {
  Rng rng(GetParam());
  const auto key = PrivateKey::from_scalar(random_scalar(rng));
  const auto pub = PublicKey::derive(*key);
  const auto msg = rng.bytes<48>();
  const auto digest = sha256({msg.data(), msg.size()});
  Signature sig = ecdsa_sign(*key, digest);
  // Flip a random bit of r or s.
  const unsigned bitpos = static_cast<unsigned>(rng.below(256));
  if (rng.chance(0.5)) {
    sig.r = sig.r + (U256::one() << bitpos);
    sig.r = sig.r % secp::order_n();
  } else {
    sig.s = sig.s + (U256::one() << bitpos);
    sig.s = sig.s % secp::order_n();
  }
  if (sig.r.is_zero() || sig.s.is_zero()) return;  // degenerate flip; skip
  EXPECT_FALSE(ecdsa_verify(pub, digest, sig));
}

TEST_P(EcdsaProperty, DeterministicSignatures) {
  Rng rng(GetParam());
  const auto key = PrivateKey::from_scalar(random_scalar(rng));
  const auto msg = rng.bytes<32>();
  const auto digest = sha256({msg.data(), msg.size()});
  EXPECT_EQ(ecdsa_sign(*key, digest), ecdsa_sign(*key, digest));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaProperty, ::testing::Range<std::uint64_t>(200, 210));

// --- verdict parity: fresh signatures through the cold, precomp and
// batch_verify paths must agree with the frozen U256 Shamir baseline and
// with how each triple was made. Ten seeds × 1000 triples. ---

enum class Corruption { kNone, kWrongDigest, kTamperedS, kTamperedR, kWrongKey };

class VerdictParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerdictParity, FreshTriplesAgreeAcrossEveryPath) {
  Rng rng(GetParam() * 104729 + 1);
  constexpr int kKeys = 16;
  constexpr int kTriples = 1000;
  constexpr std::size_t kBatch = 50;

  std::vector<PrivateKey> privs;
  std::vector<PublicKey> pubs;
  std::vector<secp::PubkeyPrecomp> pres;
  for (int k = 0; k < kKeys; ++k) {
    privs.push_back(*PrivateKey::from_scalar(random_scalar(rng)));
    pubs.push_back(PublicKey::derive(privs.back()));
    pres.push_back(secp::build_pubkey_precomp(pubs.back().point()));
  }
  // The warm batch cache holds every key's tables (two touches each).
  PubkeyPrecompCache warm(64);
  for (const auto& pub : pubs) {
    warm.note_verified(pub.serialize(), pub.point());
    warm.note_verified(pub.serialize(), pub.point());
  }
  common::ThreadPool pool(0);

  std::vector<SigCheckJob> jobs;
  std::vector<bool> expect;
  int per_kind[5] = {0, 0, 0, 0, 0};
  auto flush = [&] {
    const auto cold = batch_verify(pool, jobs, nullptr, nullptr);
    const auto hot = batch_verify(pool, jobs, nullptr, &warm);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_EQ(cold[j] != 0, expect[j]) << "batch cold, job " << j;
      EXPECT_EQ(hot[j] != 0, expect[j]) << "batch warm, job " << j;
    }
    jobs.clear();
    expect.clear();
  };

  for (int t = 0; t < kTriples; ++t) {
    const int k = static_cast<int>(rng.below(kKeys));
    const auto msg = rng.bytes<32>();
    Sha256Digest digest = sha256({msg.data(), msg.size()});
    Signature sig = ecdsa_sign(privs[static_cast<std::size_t>(k)], digest);
    int vk = k;  // the key the verifier is handed
    const auto kind = static_cast<Corruption>(rng.chance(0.7) ? 0 : 1 + rng.below(4));
    switch (kind) {
      case Corruption::kNone:
        break;
      case Corruption::kWrongDigest:
        digest[rng.below(32)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
      case Corruption::kTamperedS:
        sig.s = secp::nadd(sig.s, U256(1 + rng.below(1000)));
        break;
      case Corruption::kTamperedR:
        sig.r = secp::nadd(sig.r, U256(1 + rng.below(1000)));
        break;
      case Corruption::kWrongKey:
        vk = static_cast<int>((static_cast<std::uint64_t>(k) + 1 + rng.below(kKeys - 1)) % kKeys);
        break;
    }
    ++per_kind[static_cast<int>(kind)];
    const bool valid = kind == Corruption::kNone;
    const auto& pub = pubs[static_cast<std::size_t>(vk)];
    ASSERT_FALSE(sig.r.is_zero() || sig.s.is_zero());

    EXPECT_EQ(ecdsa_verify_baseline(pub, digest, sig), valid) << "baseline, triple " << t;
    EXPECT_EQ(ecdsa_verify(pub, digest, sig), valid) << "cold, triple " << t;
    EXPECT_EQ(ecdsa_verify_precomp(digest, sig, pres[static_cast<std::size_t>(vk)]), valid)
        << "precomp, triple " << t;
    jobs.push_back({digest, pub.serialize(), sig.serialize()});
    expect.push_back(valid);
    if (jobs.size() == kBatch) flush();
  }
  flush();
  for (const int n : per_kind) EXPECT_GT(n, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerdictParity, ::testing::Range<std::uint64_t>(800, 810));

TEST(VerdictParityEdges, RPlusNCandidateIsCheckedOnEveryPath) {
  // x(R) in [n, p) reduces to r = x(R) − n, and only the second candidate
  // of check_r_matches (r + n, taken when r + n < p) matches. Such an R is
  // ~2^-128 likely from a real signature, so build one: Q = R on the
  // curve with x ≥ n, digest 0 and s = r give u1 = 0, u2 = 1, so R = Q.
  const U256& n = secp::order_n();
  std::optional<secp::AffinePoint> q;
  for (std::uint64_t d = 1; d < 1000 && !q; ++d) {  // d = 0 would make r = 0
    ByteArray<33> enc{};
    enc[0] = 0x02;
    const auto xb = (n + U256(d)).to_be_bytes();
    for (std::size_t i = 0; i < 32; ++i) enc[i + 1] = xb[i];
    q = secp::decompress({enc.data(), enc.size()});
  }
  ASSERT_TRUE(q.has_value());
  ASSERT_GE(q->x, n);
  const PublicKey pub = *PublicKey::parse(secp::compress(*q));
  const Sha256Digest zero{};
  const U256 r = q->x - n;
  ASSERT_LT(r, secp::field_p() - n);
  const Signature good{r, r};
  const Signature bad{r + U256::one(), r + U256::one()};
  const auto pre = secp::build_pubkey_precomp(*q);
  PubkeyPrecompCache warm(4);
  warm.note_verified(pub.serialize(), *q);
  warm.note_verified(pub.serialize(), *q);
  common::ThreadPool pool(0);
  const std::vector<SigCheckJob> jobs = {{zero, pub.serialize(), good.serialize()},
                                         {zero, pub.serialize(), bad.serialize()}};
  EXPECT_TRUE(ecdsa_verify_baseline(pub, zero, good));
  EXPECT_TRUE(ecdsa_verify(pub, zero, good));
  EXPECT_TRUE(ecdsa_verify_precomp(zero, good, pre));
  EXPECT_FALSE(ecdsa_verify_baseline(pub, zero, bad));
  EXPECT_FALSE(ecdsa_verify(pub, zero, bad));
  EXPECT_FALSE(ecdsa_verify_precomp(zero, bad, pre));
  for (PubkeyPrecompCache* cache : {static_cast<PubkeyPrecompCache*>(nullptr), &warm}) {
    const auto got = batch_verify(pool, jobs, nullptr, cache);
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 0}));
  }
  EXPECT_EQ(warm.stats().hits, 1u);
}

class MerkleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProperty, AllBranchesVerifyAtThisSize) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Hash32> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(rng.bytes<32>());
  const Hash32 root = merkle_root(leaves);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto branch = merkle_branch(leaves, i);
    EXPECT_TRUE(merkle_verify(leaves[i], branch, root)) << "leaf " << i << " of " << n;
    // And the branch depth is ceil(log2(n)) for n > 1.
    if (n > 1) {
      std::size_t depth = 0;
      std::size_t m = n;
      while (m > 1) {
        m = (m + 1) / 2;
        ++depth;
      }
      EXPECT_EQ(branch.siblings.size(), depth);
    }
  }
}

TEST_P(MerkleProperty, ForeignLeafNeverVerifies) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 7);
  std::vector<Hash32> leaves;
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(rng.bytes<32>());
  const Hash32 root = merkle_root(leaves);
  const Hash32 foreign = rng.bytes<32>();
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_FALSE(merkle_verify(foreign, merkle_branch(leaves, i), root));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProperty,
                         ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 100));

}  // namespace
}  // namespace btcfast::crypto
