#include "gateway/stats.h"

#include <bit>
#include <sstream>

namespace btcfast::gateway {

void LatencyHistogram::record_us(std::uint64_t us) noexcept {
  std::size_t idx = us == 0 ? 0 : static_cast<std::size_t>(std::bit_width(us) - 1);
  if (idx >= kBuckets) idx = kBuckets - 1;
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

void LatencyHistogram::accumulate(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

double LatencyHistogram::percentile_us(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the target sample (1-based), then walk buckets.
  const double rank = p / 100.0 * static_cast<double>(n);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (seen + static_cast<double>(c) >= rank) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ull << i);
      const double hi = static_cast<double>(1ull << (i + 1));
      const double frac = (rank - seen) / static_cast<double>(c);
      return lo + (hi - lo) * (frac < 0 ? 0 : frac);
    }
    seen += static_cast<double>(c);
  }
  return static_cast<double>(1ull << kBuckets);
}

double LatencyHistogram::mean_us() const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / static_cast<double>(n);
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kDecode: return "decode";
    case Stage::kVerify: return "verify";
    case Stage::kEvaluate: return "evaluate";
    case Stage::kReserve: return "reserve";
    case Stage::kWal: return "wal";
    case Stage::kCommit: return "commit";
    case Stage::kRespond: return "respond";
  }
  return "unknown";
}

void GatewayStats::accumulate(const GatewayStats& other) noexcept {
  accepts_.fetch_add(other.accepts(), std::memory_order_relaxed);
  rejects_.fetch_add(other.rejects(), std::memory_order_relaxed);
  sheds_.fetch_add(other.sheds(), std::memory_order_relaxed);
  queue_depth_.fetch_add(other.queue_depth(), std::memory_order_relaxed);
  // Peak depth is a high-water mark: summing shard peaks would report a
  // depth the queue never reached, so take the max.
  const auto other_peak = other.peak_queue_depth();
  auto peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (other_peak > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, other_peak, std::memory_order_relaxed)) {
  }
  for (std::size_t i = 0; i < by_reason_.size(); ++i) {
    const auto c = other.by_reason_[i].load(std::memory_order_relaxed);
    if (c != 0) by_reason_[i].fetch_add(c, std::memory_order_relaxed);
  }
  auto take_max = [](std::atomic<std::uint64_t>& dst, std::uint64_t v) {
    auto cur = dst.load(std::memory_order_relaxed);
    while (v > cur && !dst.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  };
  take_max(store_wal_appends_, other.store_wal_appends());
  take_max(store_wal_fsyncs_, other.store_wal_fsyncs());
  take_max(store_recovery_replayed_, other.store_recovery_replayed());
  take_max(store_snapshot_bytes_, other.store_snapshot_bytes());
  take_max(sigcache_hits_, other.sigcache_hits());
  take_max(sigcache_misses_, other.sigcache_misses());
  take_max(sigcache_insertions_, other.sigcache_insertions());
  take_max(sigcache_evictions_, other.sigcache_evictions());
  take_max(precomp_hits_, other.precomp_hits());
  take_max(precomp_misses_, other.precomp_misses());
  take_max(precomp_insertions_, other.precomp_insertions());
  take_max(precomp_evictions_, other.precomp_evictions());
  take_max(net_conns_accepted_, other.net_conns_accepted());
  take_max(net_conns_active_, other.net_conns_active());
  take_max(net_bans_, other.net_bans());
  take_max(net_frames_in_, other.net_frames_in());
  take_max(net_sheds_seen_, other.net_sheds_seen());
  take_max(net_disconnects_, other.net_disconnects());
  latency_.accumulate(other.latency_);
  for (std::size_t i = 0; i < kStageCount; ++i) stages_[i].accumulate(other.stages_[i]);
}

void GatewayStats::on_accept(std::uint64_t latency_us) noexcept {
  accepts_.fetch_add(1, std::memory_order_relaxed);
  latency_.record_us(latency_us);
}

void GatewayStats::on_reject(core::RejectReason code, std::uint64_t latency_us) noexcept {
  rejects_.fetch_add(1, std::memory_order_relaxed);
  by_reason_[static_cast<std::size_t>(code) % by_reason_.size()].fetch_add(
      1, std::memory_order_relaxed);
  latency_.record_us(latency_us);
}

void GatewayStats::on_shed() noexcept {
  sheds_.fetch_add(1, std::memory_order_relaxed);
  by_reason_[static_cast<std::size_t>(core::RejectReason::kOverloaded)].fetch_add(
      1, std::memory_order_relaxed);
  note_depth();
}

void GatewayStats::note_depth() noexcept {
  const auto depth = queue_depth_.load(std::memory_order_relaxed);
  auto peak = peak_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !peak_queue_depth_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
}

std::uint64_t GatewayStats::rejects_for(core::RejectReason code) const noexcept {
  return by_reason_[static_cast<std::size_t>(code) % by_reason_.size()].load(
      std::memory_order_relaxed);
}

std::string GatewayStats::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"accepts\": " << accepts() << ",\n";
  os << "  \"rejects\": " << rejects() << ",\n";
  os << "  \"sheds\": " << sheds() << ",\n";
  os << "  \"queue_depth\": " << queue_depth() << ",\n";
  os << "  \"peak_queue_depth\": " << peak_queue_depth() << ",\n";
  os << "  \"rejects_by_reason\": {";
  bool first = true;
  for (std::size_t i = 1; i < by_reason_.size(); ++i) {
    const auto c = by_reason_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << core::describe(static_cast<core::RejectReason>(i)) << "\": " << c;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"store\": {\n";
  os << "    \"wal_appends\": " << store_wal_appends() << ",\n";
  os << "    \"fsyncs\": " << store_wal_fsyncs() << ",\n";
  os << "    \"recovery_replayed_records\": " << store_recovery_replayed() << ",\n";
  os << "    \"snapshot_bytes\": " << store_snapshot_bytes() << "\n";
  os << "  },\n";
  os << "  \"caches\": {\n";
  os << "    \"sigcache\": {\"hits\": " << sigcache_hits() << ", \"misses\": " << sigcache_misses()
     << ", \"insertions\": " << sigcache_insertions() << ", \"evictions\": " << sigcache_evictions()
     << "},\n";
  os << "    \"pubkey_precomp\": {\"hits\": " << precomp_hits()
     << ", \"misses\": " << precomp_misses() << ", \"insertions\": " << precomp_insertions()
     << ", \"evictions\": " << precomp_evictions() << "}\n";
  os << "  },\n";
  os << "  \"net\": {\n";
  os << "    \"conns_accepted\": " << net_conns_accepted() << ",\n";
  os << "    \"conns_active\": " << net_conns_active() << ",\n";
  os << "    \"bans\": " << net_bans() << ",\n";
  os << "    \"frames_in\": " << net_frames_in() << ",\n";
  os << "    \"sheds_seen\": " << net_sheds_seen() << ",\n";
  os << "    \"disconnects\": " << net_disconnects() << "\n";
  os << "  },\n";
  os << "  \"latency_us\": {\n";
  os << "    \"count\": " << latency_.count() << ",\n";
  os << "    \"mean\": " << latency_.mean_us() << ",\n";
  os << "    \"p50\": " << latency_.percentile_us(50) << ",\n";
  os << "    \"p90\": " << latency_.percentile_us(90) << ",\n";
  os << "    \"p99\": " << latency_.percentile_us(99) << "\n";
  os << "  },\n";
  os << "  \"stages_us\": {";
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto& h = stages_[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    \"" << stage_name(static_cast<Stage>(i)) << "\": {"
       << "\"count\": " << h.count() << ", \"mean\": " << h.mean_us()
       << ", \"p50\": " << h.percentile_us(50) << ", \"p99\": " << h.percentile_us(99) << "}";
  }
  os << "\n  }\n";
  os << "}\n";
  return os.str();
}

void GatewayStats::reset() noexcept {
  accepts_.store(0, std::memory_order_relaxed);
  rejects_.store(0, std::memory_order_relaxed);
  sheds_.store(0, std::memory_order_relaxed);
  queue_depth_.store(0, std::memory_order_relaxed);
  peak_queue_depth_.store(0, std::memory_order_relaxed);
  for (auto& r : by_reason_) r.store(0, std::memory_order_relaxed);
  store_wal_appends_.store(0, std::memory_order_relaxed);
  store_wal_fsyncs_.store(0, std::memory_order_relaxed);
  store_recovery_replayed_.store(0, std::memory_order_relaxed);
  store_snapshot_bytes_.store(0, std::memory_order_relaxed);
  set_cache_metrics(0, 0, 0, 0, 0, 0, 0, 0);
  set_net_metrics(0, 0, 0, 0, 0, 0);
  latency_.reset();
  for (auto& s : stages_) s.reset();
}

}  // namespace btcfast::gateway
