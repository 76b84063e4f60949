// Lightweight logging and invariant-checking utilities used across the Seastar
// codebase. Modeled on the usual LOG()/CHECK() idiom: CHECK failures denote
// programming errors and abort with a message; they are never used for
// recoverable conditions.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>

namespace seastar {

enum class LogSeverity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Returns the process-wide minimum severity that is actually emitted.
// Controlled by the SEASTAR_LOG environment variable, which accepts either a
// severity name ("debug", "info", "warning", "error", "fatal", any case) or
// a number 0-4. Defaults to kInfo (also when the value is unparseable).
LogSeverity MinLogSeverity();

// Sets the minimum emitted severity programmatically (overrides the env var).
void SetMinLogSeverity(LogSeverity severity);

// Installs a hook that runs once, just before the process aborts on a
// kFatal message (after the fatal line itself is flushed). The flight
// recorder uses this to dump its ring and a metrics snapshot on crash.
// Passing nullptr clears the hook. Not thread-safe against a concurrent
// fatal; install at startup.
void SetFatalHook(void (*hook)());

// Structured key=value suffix for grep-able logs:
//   SEASTAR_LOG(Info) << "request done" << LogKv("id", id) << LogKv("ms", ms);
// renders as:  request done id=17 ms=3.2
// String values containing spaces are double-quoted so `grep 'key='` and
// field-splitting tools both work.
namespace log_internal {
std::string QuoteIfNeeded(const std::string& value);
}  // namespace log_internal

template <typename T>
struct LogKeyValue {
  const char* key;
  const T& value;
};

template <typename T>
LogKeyValue<T> LogKv(const char* key, const T& value) {
  return LogKeyValue<T>{key, value};
}

template <typename T>
std::ostream& operator<<(std::ostream& os, const LogKeyValue<T>& kv) {
  if constexpr (std::is_convertible_v<const T&, std::string>) {
    return os << ' ' << kv.key << '=' << log_internal::QuoteIfNeeded(std::string(kv.value));
  } else {
    return os << ' ' << kv.key << '=' << kv.value;
  }
}

namespace log_internal {

// Accumulates one log line and flushes it (to stderr) on destruction.
// For kFatal the destructor aborts the process.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when a log statement is compiled out.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace log_internal

#define SEASTAR_LOG(severity)                                                             \
  ::seastar::log_internal::LogMessage(::seastar::LogSeverity::k##severity, __FILE__, __LINE__) \
      .stream()

#define SEASTAR_CHECK(cond)                                                  \
  if (cond) {                                                                \
  } else /* NOLINT */                                                        \
    SEASTAR_LOG(Fatal) << "Check failed: " #cond " "

#define SEASTAR_CHECK_OP(op, a, b)                                                      \
  if ((a)op(b)) {                                                                       \
  } else /* NOLINT */                                                                   \
    SEASTAR_LOG(Fatal) << "Check failed: " #a " " #op " " #b " (" << (a) << " vs " << (b) \
                       << ") "

#define SEASTAR_CHECK_EQ(a, b) SEASTAR_CHECK_OP(==, a, b)
#define SEASTAR_CHECK_NE(a, b) SEASTAR_CHECK_OP(!=, a, b)
#define SEASTAR_CHECK_LT(a, b) SEASTAR_CHECK_OP(<, a, b)
#define SEASTAR_CHECK_LE(a, b) SEASTAR_CHECK_OP(<=, a, b)
#define SEASTAR_CHECK_GT(a, b) SEASTAR_CHECK_OP(>, a, b)
#define SEASTAR_CHECK_GE(a, b) SEASTAR_CHECK_OP(>=, a, b)

}  // namespace seastar

#endif  // SRC_COMMON_LOGGING_H_
