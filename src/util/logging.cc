#include "src/util/logging.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace hyperion {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kOff};

std::mutex& EmitMutex() {
  static std::mutex mu;
  return mu;
}

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "T";
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarn:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

namespace internal {

bool LogEnabled(LogLevel level) {
  LogLevel min = g_level.load(std::memory_order_relaxed);
  return level >= min && min != LogLevel::kOff;
}

void WriteLogText(const DirectPhase&, const std::string& text) {
  if (text.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(EmitMutex());
  std::fwrite(text.data(), 1, text.size(), stderr);
}

LogMessage::LogMessage(LogLevel level, std::string_view file, int line) : level_(level) {
  // Strip the directory part; the basename is enough to locate the call site.
  size_t slash = file.rfind('/');
  if (slash != std::string_view::npos) {
    file = file.substr(slash + 1);
  }
  stream_ << "[" << LevelTag(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::string text = stream_.str();
  if (const ExecutePhase* slice = ExecutePhase::Current()) {
    slice->log_ += text;
    return;
  }
  std::lock_guard<std::mutex> lock(EmitMutex());
  std::fputs(text.c_str(), stderr);
}

}  // namespace internal
}  // namespace hyperion
