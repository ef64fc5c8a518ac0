// Unit tests for the common kernel: hex, serialization, RNG, clock, result, log.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/hex.h"
#include "common/log.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace btcfast {
namespace {

TEST(Hex, RoundTrip) {
  const Bytes data{0x00, 0x01, 0xab, 0xff, 0x7f};
  const std::string hex = to_hex(data);
  EXPECT_EQ(hex, "0001abff7f");
  auto back = from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, UpperCaseAccepted) {
  auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Hex, RejectsOddLength) { EXPECT_FALSE(from_hex("abc").has_value()); }

TEST(Hex, RejectsNonHex) { EXPECT_FALSE(from_hex("zz").has_value()); }

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex({}), "");
  auto v = from_hex("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

TEST(Hex, ReversedMatchesBitcoinDisplayConvention) {
  const Bytes data{0x01, 0x02, 0x03};
  EXPECT_EQ(to_hex_reversed(data), "030201");
}

TEST(Serialize, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16le(0x1234);
  w.u32le(0xdeadbeef);
  w.u64le(0x0123456789abcdefULL);
  w.u32be(0xcafebabe);
  w.u64be(0x1122334455667788ULL);
  w.i64le(-42);

  Reader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16le().value(), 0x1234);
  EXPECT_EQ(r.u32le().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64le().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.u32be().value(), 0xcafebabeu);
  EXPECT_EQ(r.u64be().value(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i64le().value(), -42);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, VarintBoundaries) {
  const std::uint64_t cases[] = {0,      1,          0xfc,        0xfd,
                                 0xffff, 0x10000,    0xffffffff,  0x100000000ULL,
                                 0xffffffffffffffffULL};
  for (std::uint64_t v : cases) {
    Writer w;
    w.varint(v);
    Reader r({w.data().data(), w.data().size()});
    EXPECT_EQ(r.varint().value(), v) << v;
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Serialize, VarintCompactSizes) {
  auto encoded_size = [](std::uint64_t v) {
    Writer w;
    w.varint(v);
    return w.size();
  };
  EXPECT_EQ(encoded_size(0xfc), 1u);
  EXPECT_EQ(encoded_size(0xfd), 3u);
  EXPECT_EQ(encoded_size(0xffff), 3u);
  EXPECT_EQ(encoded_size(0x10000), 5u);
  EXPECT_EQ(encoded_size(0xffffffff), 5u);
  EXPECT_EQ(encoded_size(0x100000000ULL), 9u);
}

TEST(Serialize, BytesWithLenRoundTrip) {
  Writer w;
  const Bytes payload{1, 2, 3, 4, 5};
  w.bytes_with_len(payload);
  Reader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.bytes_with_len().value(), payload);
}

TEST(Serialize, ReaderFailsOnTruncation) {
  Writer w;
  w.u32le(42);
  Reader r({w.data().data(), 2});
  EXPECT_FALSE(r.u32le().has_value());
  EXPECT_FALSE(r.ok());
  // Stays failed.
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Serialize, BytesWithLenRejectsAbsurdLength) {
  Writer w;
  w.varint(1ULL << 40);
  Reader r({w.data().data(), w.data().size()});
  EXPECT_FALSE(r.bytes_with_len().has_value());
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, StringRoundTrip) {
  Writer w;
  w.str_with_len("hello");
  Reader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.str_with_len().value(), "hello");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(600.0);
  EXPECT_NEAR(sum / n, 600.0, 15.0);
}

TEST(Rng, FillCoversBuffer) {
  Rng rng(3);
  Bytes buf(100, 0);
  rng.fill({buf.data(), buf.size()});
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 80);
}

TEST(Clock, MonotoneAdvance) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance_to(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance_to(50);  // never goes backwards
  EXPECT_EQ(clock.now(), 100);
}

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err = make_error("bad-input", "details");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "bad-input");
  EXPECT_EQ(err.value_or(-1), -1);
  EXPECT_THROW((void)err.value(), std::logic_error);
}

TEST(Result, StatusBehaviour) {
  Status good;
  EXPECT_TRUE(good.ok());
  Status bad = make_error("fail");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "fail");
}

TEST(Log, DisabledLevelSkipsTheStreamOperands) {
  int evaluated = 0;
  const auto operand = [&] { return ++evaluated; };
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);
  BTCFAST_LOG(LogLevel::kError, "test") << "never built " << operand();
  EXPECT_EQ(evaluated, 0);
  set_log_level(LogLevel::kError);
  BTCFAST_LOG(LogLevel::kWarn, "test") << "below threshold " << operand();
  EXPECT_EQ(evaluated, 0);
  BTCFAST_LOG(LogLevel::kError, "test") << "at threshold " << operand();
  EXPECT_EQ(evaluated, 1);
  set_log_level(saved);
}

}  // namespace
}  // namespace btcfast
