// Minimal leveled logging for the simulator and controller.
//
// Benchmarks print their tables to stdout; diagnostics go to stderr through
// this logger so the two never interleave in captured output. Messages below
// kWarning are dropped so benches stay quiet.

#ifndef SRC_SIM_LOG_H_
#define SRC_SIM_LOG_H_

#include <sstream>
#include <string>

namespace saba {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kNone = 4,
};

// Emits one line to stderr if `level` >= kWarning.
void LogMessage(LogLevel level, const std::string& message);

// Stream-style helper: LogStream(LogLevel::kInfo) << "x=" << x; emits at
// destruction.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogMessage(level_, stream_.str()); }

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

#define SABA_LOG(level) ::saba::LogStream(level)
#define SABA_LOG_DEBUG ::saba::LogStream(::saba::LogLevel::kDebug)
#define SABA_LOG_INFO ::saba::LogStream(::saba::LogLevel::kInfo)
#define SABA_LOG_WARNING ::saba::LogStream(::saba::LogLevel::kWarning)
#define SABA_LOG_ERROR ::saba::LogStream(::saba::LogLevel::kError)

}  // namespace saba

#endif  // SRC_SIM_LOG_H_
