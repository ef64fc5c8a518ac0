#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "util.h"

namespace perfbench {

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint32_t> t_open;
}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint64_t rid) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.rid = rid;
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.start_ns = now_ns();
  std::lock_guard lock(mu_);
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  const std::uint64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard lock(mu_);
  spans_[id - 1].end_ns = t;
}

void Tracer::record(const char* name, std::uint64_t rid, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  if (!enabled()) return;
  Span s;
  s.name = name;
  s.rid = rid;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  std::lock_guard lock(mu_);
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"rid\":" << s.rid << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans) {
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    std::uint64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        const std::uint64_t a = std::max(c->start_ns, s.start_ns);
        const std::uint64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_a = 0, cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (cur_b == 0 || a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_us += static_cast<double>(dur) / 1e3;
    t.self_us += static_cast<double>(dur - std::min(dur, covered)) / 1e3;
  }
  return out;
}

std::vector<std::string> span_report(const std::vector<Span>& spans) {
  std::vector<std::string> out;
  for (const auto& [name, t] : span_totals(spans)) {
    char line[160];
    const double n = static_cast<double>(t.count);
    std::snprintf(line, sizeof(line), "span %-24s count %8llu  mean %10.1f us  self %10.1f us",
                  name.c_str(), static_cast<unsigned long long>(t.count), t.total_us / n,
                  t.self_us / n);
    out.emplace_back(line);
  }
  return out;
}

}  // namespace perfbench
