// Small helpers shared by the benchmark's workloads: clocks, the
// percentile and open-loop lateness math, a seeded Zipf sampler, the
// inputs digest and the result record every workload fills.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace perfbench {

/// Steady-clock nanoseconds.
[[nodiscard]] std::uint64_t now_ns();
/// CPU time of the calling thread / of the whole process, microseconds.
[[nodiscard]] double thread_cpu_us();
[[nodiscard]] double process_cpu_us();

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty. Nearest-rank always returns a measured value, never an
/// interpolation between two.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// The typical value of a run's samples, in time order: they are cut into
/// kWindows equal consecutive slices (a quarter second each in a 10 s
/// run), and the mean of the slice medians is returned. It is robust to
/// stray outliers and smooth in the share of time a shared machine spends
/// in each of its speed modes. Every slice counts, so a cost that recurs,
/// or grows over the run, moves it in proportion.
inline constexpr std::size_t kWindows = 40;
[[nodiscard]] double window_median_mean(const std::vector<double>& samples);

/// Worlds built per run; setup_s is the median of their build times.
inline constexpr int kSetupBuilds = 5;

/// One open-loop request as the generator saw it (steady-clock ns).
struct Request {
  std::uint64_t due_ns = 0;   ///< when the schedule said to send it
  std::uint64_t sent_ns = 0;  ///< when the write went out (0 = never)
  std::uint64_t done_ns = 0;  ///< when its response arrived (0 = never)
};

/// Lateness and latency of a request schedule. Latency is measured from
/// the due time, so a stall that delays later sends is charged to those
/// requests too (no coordinated omission).
struct OpenLoopStats {
  std::vector<double> latency_ms;  ///< done - due, completed requests only
  std::vector<double> late_ms;     ///< sent - due, sent requests only
  std::uint64_t missing = 0;       ///< never answered
};
[[nodiscard]] OpenLoopStats open_loop_stats(const std::vector<Request>& requests);

/// Deterministic 64-bit generator (splitmix64) — portable across
/// standard libraries, unlike std::*_distribution.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): P(k) ∝ 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

/// SHA-256 over everything a workload feeds the program, so two runs or
/// two commits can show they measured byte-identical inputs.
class InputsDigest {
 public:
  void add(btcfast::ByteSpan bytes);
  void add_u64(std::uint64_t v);
  [[nodiscard]] std::string hex();

 private:
  btcfast::crypto::Sha256 hasher_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is printed with tracing
/// off, `per_layer` with tracing on; `notes` go to stdout ahead of the
/// result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;
  std::vector<std::string> check_failures;

  /// A correctness check: false marks the run incorrect and counts one
  /// failed operation, with `what` printed.
  void check(bool ok, const std::string& what);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Fault injected by the liveness tests: each one must turn a run into a
/// counted failure, proving the matching correctness check is live.
enum class Mutation {
  kNone,
  kFlipAccept,       ///< one accept response rewritten as a rejection
  kCorruptRecovery,  ///< one recovered reservation altered after open()
  kAlterVerdict,     ///< one judge receipt's verdict swapped
};

}  // namespace perfbench
