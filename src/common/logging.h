/// \file logging.h
/// Minimal leveled logging with a process-wide threshold.
///
/// Usage: `DIEVENT_LOG(INFO) << "processed " << n << " frames";`
/// Messages at or above the global threshold go to stderr, prefixed with the
/// level and the source location. Logging is for diagnostics only; library
/// code reports errors via Status, never via log-and-continue.

#ifndef DIEVENT_COMMON_LOGGING_H_
#define DIEVENT_COMMON_LOGGING_H_

#include <cstdlib>
#include <ostream>
#include <sstream>
#include <string>

namespace dievent {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Sets the minimum level that is emitted. Default: kWarning (libraries are
/// quiet unless asked).
void SetLogThreshold(LogLevel level);
LogLevel GetLogThreshold();

/// Redirects log output to `stream` (nullptr restores stderr). The sink is
/// mutex-serialized: concurrent DIEVENT_LOG statements from reader and
/// worker threads emit whole lines, never interleaved fragments.
/// Thread-safe; intended for tests and embedding applications.
void SetLogStream(std::ostream* stream);

namespace internal {

/// Accumulates one log statement and emits it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal

#define DIEVENT_LOG(severity)                                        \
  ::dievent::internal::LogMessage(::dievent::LogLevel::k##severity, \
                                  __FILE__, __LINE__)

/// Aborts with a message when `cond` is false. Enabled in all build types;
/// use for internal invariants, not for validating user input.
#define DIEVENT_CHECK(cond)                                            \
  if (!(cond))                                                         \
  ::dievent::internal::LogMessage(::dievent::LogLevel::kFatal,         \
                                  __FILE__, __LINE__)                  \
      << "Check failed: " #cond " "

}  // namespace dievent

#endif  // DIEVENT_COMMON_LOGGING_H_
