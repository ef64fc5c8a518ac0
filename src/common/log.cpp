#include "common/log.h"

#include <atomic>
#include <cstdio>

namespace btcfast {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kOff};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void log_line(LogLevel level, const std::string& component, const std::string& message) {
  if (!log_enabled(level)) return;
  std::fprintf(stderr, "[%s] %-10s %s\n", level_name(level), component.c_str(), message.c_str());
}

}  // namespace btcfast
