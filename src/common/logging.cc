#include "src/common/logging.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <mutex>

namespace seastar {
namespace {

std::atomic<int> g_min_severity{-1};  // -1 = not initialized yet.
std::atomic<void (*)()> g_fatal_hook{nullptr};

// "warning" / "WARN" / "2" -> 2; -1 when unparseable.
int ParseSeverity(const char* text) {
  std::string lowered;
  for (const char* p = text; *p != '\0'; ++p) {
    lowered += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  }
  if (lowered == "debug") return 0;
  if (lowered == "info") return 1;
  if (lowered == "warning" || lowered == "warn") return 2;
  if (lowered == "error") return 3;
  if (lowered == "fatal") return 4;
  if (!lowered.empty() && lowered.find_first_not_of("0123456789") == std::string::npos) {
    return std::min(4, std::atoi(lowered.c_str()));
  }
  return -1;
}

int SeverityFromEnv() {
  const char* env = std::getenv("SEASTAR_LOG");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(LogSeverity::kInfo);
  }
  const int parsed = ParseSeverity(env);
  if (parsed >= 0) {
    return parsed;
  }
  std::cerr << "[W logging] ignoring unparseable SEASTAR_LOG='" << env
            << "' (want debug|info|warning|error|fatal or 0-4)" << std::endl;
  return static_cast<int>(LogSeverity::kInfo);
}

const char* SeverityName(LogSeverity severity) {
  switch (severity) {
    case LogSeverity::kDebug:
      return "D";
    case LogSeverity::kInfo:
      return "I";
    case LogSeverity::kWarning:
      return "W";
    case LogSeverity::kError:
      return "E";
    case LogSeverity::kFatal:
      return "F";
  }
  return "?";
}

// Serializes whole log lines so concurrent threads do not interleave.
std::mutex& LogMutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

LogSeverity MinLogSeverity() {
  int current = g_min_severity.load(std::memory_order_relaxed);
  if (current < 0) {
    current = SeverityFromEnv();
    g_min_severity.store(current, std::memory_order_relaxed);
  }
  return static_cast<LogSeverity>(current);
}

void SetMinLogSeverity(LogSeverity severity) {
  g_min_severity.store(static_cast<int>(severity), std::memory_order_relaxed);
}

void SetFatalHook(void (*hook)()) { g_fatal_hook.store(hook, std::memory_order_release); }

namespace log_internal {

std::string QuoteIfNeeded(const std::string& value) {
  if (value.find_first_of(" \t\"") == std::string::npos) {
    return value;
  }
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"') {
      quoted += '\\';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

LogMessage::LogMessage(LogSeverity severity, const char* file, int line) : severity_(severity) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << SeverityName(severity) << " " << (base != nullptr ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  if (severity_ >= MinLogSeverity() || severity_ == LogSeverity::kFatal) {
    std::lock_guard<std::mutex> lock(LogMutex());
    std::cerr << stream_.str() << std::endl;
  }
  if (severity_ == LogSeverity::kFatal) {
    // Run the crash hook exactly once even if the hook itself CHECK-fails.
    if (void (*hook)() = g_fatal_hook.exchange(nullptr, std::memory_order_acq_rel);
        hook != nullptr) {
      hook();
    }
    std::abort();
  }
}

}  // namespace log_internal
}  // namespace seastar
