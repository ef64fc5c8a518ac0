#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <numeric>

#include "common/hex.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

namespace {
double clock_us(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}
}  // namespace

double thread_cpu_us() { return clock_us(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_us() { return clock_us(CLOCK_PROCESS_CPUTIME_ID); }

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double window_median_mean(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  if (n < kWindows) return percentile(samples, 50);
  double sum = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * n / kWindows);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / kWindows);
    sum += percentile(std::vector<double>(first, last), 50);
  }
  return sum / static_cast<double>(kWindows);
}

OpenLoopStats open_loop_stats(const std::vector<Request>& requests) {
  OpenLoopStats out;
  for (const auto& r : requests) {
    if (r.sent_ns != 0) {
      out.late_ms.push_back(static_cast<double>(r.sent_ns - std::min(r.sent_ns, r.due_ns)) / 1e6);
    }
    if (r.done_ns == 0) {
      ++out.missing;
      continue;
    }
    out.latency_ms.push_back(static_cast<double>(r.done_ns - std::min(r.done_ns, r.due_ns)) /
                             1e6);
  }
  return out;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

std::size_t Zipf::sample(SplitMix& rng) const {
  const double u = rng.unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void InputsDigest::add(btcfast::ByteSpan bytes) {
  add_u64(bytes.size());
  hasher_.update(bytes);
}

void InputsDigest::add_u64(std::uint64_t v) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  hasher_.update({le, sizeof(le)});
}

std::string InputsDigest::hex() {
  const auto d = hasher_.finalize();
  return btcfast::to_hex({d.data(), d.size()});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  ++failed;
  check_failures.push_back(what);
}

}  // namespace perfbench
