#include "common/logging.h"

#include <atomic>
#include <cstring>
#include <iostream>

#include "common/thread_annotations.h"

namespace dievent {

namespace {

std::atomic<int> g_threshold{static_cast<int>(LogLevel::kWarning)};

/// Process-wide log sink. Emission is serialized under an annotated mutex
/// so concurrent log statements (supervisor readers and
/// pool workers) produce whole lines; the stream override used by tests
/// shares the same guard so a redirect cannot race an in-flight write.
class LogSink {
 public:
  void Emit(const std::string& line) {
    MutexLock lock(mutex_);
    std::ostream* out = stream_ != nullptr ? stream_ : &std::cerr;
    (*out) << line << std::endl;
  }

  void SetStream(std::ostream* stream) {
    MutexLock lock(mutex_);
    stream_ = stream;
  }

 private:
  Mutex mutex_{LockRank::kLogSink};
  std::ostream* stream_ GUARDED_BY(mutex_) = nullptr;  ///< null = stderr
};

LogSink& Sink() {
  static LogSink* sink = new LogSink;  // leaked: outlives static dtors
  return *sink;
}

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
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

}  // namespace

void SetLogThreshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogThreshold() {
  return static_cast<LogLevel>(g_threshold.load(std::memory_order_relaxed));
}

void SetLogStream(std::ostream* stream) { Sink().SetStream(stream); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >=
      g_threshold.load(std::memory_order_relaxed)) {
    std::string line = "[";
    line += LevelName(level_);
    line += ' ';
    line += Basename(file_);
    line += ':';
    line += std::to_string(line_);
    line += "] ";
    line += stream_.str();
    Sink().Emit(line);
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal

}  // namespace dievent
