// In-memory span recorder for the traced run. The benchmark wraps every
// call it makes into a layer (FrameHandler::handle, CommitGate,
// FollowerLink, flush_accepted, DurableStore::open, restore_from,
// promote_follower, StormEngine::execute_batch) in a span: name, request
// id, parent, start, end. Spans stay in memory and are written out when
// the run ends; nothing inside the program is instrumented.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t rid = 0;     ///< request id (0 = not tied to one request)
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< id of the enclosing span, 0 for a root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Self time of every span name over a finished span set. A child that
/// overruns its parent is clipped to the parent's interval; overlapping
/// children are counted once.
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

/// One printable line per span name: count, mean and mean self time.
[[nodiscard]] std::vector<std::string> span_report(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  /// Switch recording on or off between phases (spans already open
  /// still close normally).
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Open a span on the calling thread; the innermost span this thread
  /// has open becomes its parent. Returns 0 (a no-op id) when disabled.
  std::uint32_t begin(const char* name, std::uint64_t rid = 0);
  void end(std::uint32_t id);
  /// Record an already-timed span with an explicit parent (the load
  /// generator's per-request spans cross threads, so they are stored
  /// whole once the response is in).
  void record(const char* name, std::uint64_t rid, std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] std::vector<Span> spans() const;
  /// One JSON object per line. Returns false on IO error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::uint64_t rid = 0)
      : tracer_(tracer), id_(tracer.begin(name, rid)) {}
  ~Scoped() { tracer_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
