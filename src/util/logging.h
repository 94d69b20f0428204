// Minimal leveled logger.
//
// Logging is off by default (benchmarks must stay quiet); tests and examples
// raise the level explicitly. Thread-safe: the level is atomic and emission
// is serialized. While the staged execution core (DESIGN.md §8) runs vCPU
// slices on worker threads, a message emitted inside a slice goes into the
// log buffer its ExecutePhase carries (found through the thread's current
// slice, since a log line cannot take a token); the host thread flushes the
// buffers at the round barrier in deterministic commit order, so log output
// is identical for any worker count.

#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>
#include <string_view>

#include "src/util/phase.h"

namespace hyperion {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

// Process-wide minimum level; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

bool LogEnabled(LogLevel level);

// Writes already-formatted log text to stderr under the emission lock.
// Used by the run loop to flush staged per-slice buffers at commit; the
// direct-phase token keeps lanes from bypassing their slice buffer.
void WriteLogText(const DirectPhase&, const std::string& text);

// Accumulates one message and emits it on destruction: into the executing
// slice's log buffer on a worker lane, to stderr otherwise.
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define HYP_LOG(level)                                            \
  if (!::hyperion::internal::LogEnabled(::hyperion::LogLevel::level)) \
    ;                                                             \
  else                                                            \
    ::hyperion::internal::LogMessage(::hyperion::LogLevel::level, __FILE__, __LINE__)

}  // namespace hyperion

#endif  // SRC_UTIL_LOGGING_H_
