#include "src/sim/log.h"

#include <cstdio>

namespace saba {
namespace {

constexpr LogLevel kMinLevel = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, const std::string& message) {
  if (level < kMinLevel || level == LogLevel::kNone) {
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

}  // namespace saba
