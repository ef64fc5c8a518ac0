// Minimal leveled logger. Quiet by default so tests and benches stay
// clean; examples raise the level to narrate runs.
#pragma once

#include <sstream>
#include <string>

namespace btcfast {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold (process-wide; safe to read and set from any thread).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();
[[nodiscard]] inline bool log_enabled(LogLevel level) { return level >= log_level(); }

/// Emit one line at the given level (no-op if below the threshold).
void log_line(LogLevel level, const std::string& component, const std::string& message);

/// Stream-style helper: LOG_AT(LogLevel::kInfo, "merchant") << "accepted " << txid;
class LogStream {
 public:
  LogStream(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogStream() { log_line(level_, component_, os_.str()); }

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream os_;
};

/// Swallows a finished LogStream expression so the macro below is a
/// well-formed void ternary (binds looser than <<, tighter than ?:).
struct LogVoidify {
  void operator&(const LogStream&) const noexcept {}
};

}  // namespace btcfast

/// Below the threshold neither the stream nor its operands are evaluated.
#define BTCFAST_LOG(level, component)                  \
  !::btcfast::log_enabled(level) ? static_cast<void>(0) \
                                 : ::btcfast::LogVoidify() & ::btcfast::LogStream((level), (component))
