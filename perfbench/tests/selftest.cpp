// Tests of the benchmark's own logic: the percentile and open-loop
// lateness math, span self time, the inputs digest, and the liveness of
// every correctness check — a run with one injected fault must end as a
// counted failure, or the check would be vacuous.
#include <gtest/gtest.h>

#include <string>
#include <unistd.h>

#include "pay.h"
#include "storm.h"
#include "trace.h"
#include "util.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnUnsortedSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({7.5}, 99), 7.5);
  EXPECT_EQ(percentile({}, 50), 0);
  // Always a measured value, never an interpolation.
  EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2);
  EXPECT_EQ(mean({1, 2, 3, 6}), 3);
}

TEST(Percentile, WindowMedianMeanCountsEverySlice) {
  // 40 slices of 3 samples (kWindows); the last 10 slices run 1.0 slower,
  // as a cost that sets in late in a run would.
  std::vector<double> v;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double base = w < 30 ? 2.0 : 3.0;
    v.insert(v.end(), {base + 0.5, base, base + 0.1});
  }
  EXPECT_DOUBLE_EQ(window_median_mean(v), 2.1 + 0.25);
  // A single slow sample per slice does not move it; a slower slice does.
  v[0] = 100;
  EXPECT_DOUBLE_EQ(window_median_mean(v), 2.1 + 0.25);
  EXPECT_DOUBLE_EQ(window_median_mean({4, 1, 2}), 2);  // fewer samples than slices
}

TEST(OpenLoop, LatencyCountsFromDueTimeAcrossAStall) {
  constexpr std::uint64_t ms = 1'000'000;
  // Due every 10 ms; the generator stalls so requests 1..3 go out at
  // 45 ms; every response takes 5 ms after its send. Request 4 is never
  // answered.
  std::vector<Request> r(5);
  for (std::size_t i = 0; i < r.size(); ++i) r[i].due_ns = 100 * ms + i * 10 * ms;
  r[0].sent_ns = r[0].due_ns;
  for (std::size_t i = 1; i <= 3; ++i) r[i].sent_ns = 145 * ms;
  for (std::size_t i = 0; i <= 3; ++i) r[i].done_ns = r[i].sent_ns + 5 * ms;
  r[4].sent_ns = r[4].due_ns;
  const OpenLoopStats s = open_loop_stats(r);
  ASSERT_EQ(s.latency_ms.size(), 4u);
  EXPECT_DOUBLE_EQ(s.latency_ms[0], 5);
  EXPECT_DOUBLE_EQ(s.latency_ms[1], 40);  // due 110, done 150: the stall is charged
  EXPECT_DOUBLE_EQ(s.latency_ms[2], 30);
  EXPECT_DOUBLE_EQ(s.latency_ms[3], 20);
  ASSERT_EQ(s.late_ms.size(), 5u);
  EXPECT_DOUBLE_EQ(s.late_ms[0], 0);
  EXPECT_DOUBLE_EQ(s.late_ms[1], 35);
  EXPECT_DOUBLE_EQ(s.late_ms[3], 15);
  EXPECT_EQ(s.missing, 1u);
  EXPECT_DOUBLE_EQ(percentile(s.latency_ms, 50), 20);
  EXPECT_DOUBLE_EQ(percentile(s.late_ms, 99), 35);
}

Span span(std::uint32_t id, std::uint32_t parent, const char* name, std::uint64_t a,
          std::uint64_t b) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = a * 1000;
  s.end_ns = b * 1000;
  return s;
}

TEST(Spans, SelfTimeOfAHandBuiltTree) {
  // root [0,100] has children A [10,40] and B [30,60] (overlapping) and
  // C [90,120] (overruns root, clipped to [90,100]); A has a child G
  // [15,20].
  const std::vector<Span> spans = {
      span(1, 0, "root", 0, 100), span(2, 1, "A", 10, 40), span(3, 1, "B", 30, 60),
      span(4, 1, "C", 90, 120),   span(5, 2, "G", 15, 20),
  };
  const auto t = span_totals(spans);
  EXPECT_DOUBLE_EQ(t.at("root").total_us, 100);
  EXPECT_DOUBLE_EQ(t.at("root").self_us, 40);  // 100 - |[10,60] u [90,100]|
  EXPECT_DOUBLE_EQ(t.at("A").self_us, 25);
  EXPECT_DOUBLE_EQ(t.at("B").self_us, 30);
  EXPECT_DOUBLE_EQ(t.at("C").self_us, 30);
  EXPECT_DOUBLE_EQ(t.at("G").self_us, 5);
  EXPECT_EQ(t.at("root").count, 1u);
}

TEST(Spans, TracerNestsPerThreadAndIsFreeWhenOff) {
  Tracer off(false);
  EXPECT_EQ(off.begin("x"), 0u);
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    Scoped outer(on, "outer", 7);
    { Scoped inner(on, "inner", 7); }
  }
  on.record("client", 7, 1, 2);
  const auto s = on.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, 0u);
  EXPECT_EQ(s[1].parent, s[0].id);
  EXPECT_EQ(s[2].parent, 0u);
  EXPECT_GE(s[0].end_ns, s[1].end_ns);
}

TEST(Zipf, SkewedAndDeterministic) {
  const Zipf z(100, 1.0);
  SplitMix a(5), b(5);
  std::vector<int> hist(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = z.sample(a);
    ASSERT_EQ(k, z.sample(b));
    ++hist[k];
  }
  EXPECT_GT(hist[0], hist[1]);
  EXPECT_GT(hist[1], hist[10]);
  EXPECT_GT(hist[10], hist[99]);
}

std::string scratch(const char* tag) {
  return ".bench_build/selftest-" + std::string(tag) + "-" + std::to_string(::getpid());
}

PayConfig small_pay(Mutation m) {
  PayConfig cfg;
  cfg.rate_per_s = 200;
  cfg.seconds = 0.3;
  cfg.world.customers = 40;
  cfg.mutation = m;
  cfg.run_dir = scratch("pay");
  return cfg;
}

StormConfig small_storm(Mutation m) {
  StormConfig cfg;
  cfg.seconds = 0.05;
  cfg.mutation = m;
  return cfg;
}

TEST(Inputs, DigestIsAFunctionOfTheSeed) {
  PayShape shape;
  shape.customers = 10;
  shape.payments = 12;
  EXPECT_EQ(build_pay_world(3, shape)->inputs_digest, build_pay_world(3, shape)->inputs_digest);
  EXPECT_NE(build_pay_world(3, shape)->inputs_digest, build_pay_world(4, shape)->inputs_digest);
  EXPECT_EQ(build_storm_world(3)->inputs_digest, build_storm_world(3)->inputs_digest);
  EXPECT_NE(build_storm_world(3)->inputs_digest, build_storm_world(4)->inputs_digest);
}

TEST(Liveness, CleanPayRunPassesEveryCheck) {
  const Result r = run_pay(small_pay(Mutation::kNone), 1);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.attempted, 100u + 60u + 2u * kDrillRepeats);  // warm-up, measured, drills
  EXPECT_TRUE(r.check_failures.empty()) << r.check_failures.front();
}

TEST(Liveness, OneFlippedAcceptIsACountedFailure) {
  const Result r = run_pay(small_pay(Mutation::kFlipAccept), 1);
  EXPECT_FALSE(r.correct);
  EXPECT_GE(r.failed, 1u);
}

TEST(Liveness, OneCorruptedRecoveredRecordIsACountedFailure) {
  const Result r = run_pay(small_pay(Mutation::kCorruptRecovery), 1);
  EXPECT_FALSE(r.correct);
  EXPECT_GE(r.failed, 1u);
}

TEST(Liveness, CleanStormRunPassesEveryCheck) {
  const Result r = run_storm(small_storm(Mutation::kNone), 1);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.attempted, kStormDisputes);
}

TEST(Liveness, OneAlteredVerdictIsACountedFailure) {
  const Result r = run_storm(small_storm(Mutation::kAlterVerdict), 1);
  EXPECT_FALSE(r.correct);
  EXPECT_GE(r.failed, 1u);
}

}  // namespace
}  // namespace perfbench
