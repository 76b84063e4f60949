#include "src/common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace seastar {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> pieces;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      pieces.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  pieces.push_back(current);
  return pieces;
}

std::string HumanBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buffer[32];
  if (unit == 0) {
    std::snprintf(buffer, sizeof(buffer), "%llu B", static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f %s", value, kUnits[unit]);
  }
  return buffer;
}

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() && text.compare(0, prefix.size(), prefix) == 0;
}

namespace {

// Index in argv of the first argument that sets `key` ("--key=value" or a
// bare "--key"), or 0 when none does.
int FindFlag(int argc, char** argv, const std::string& key) {
  const std::string bare = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == bare || StartsWith(argv[i], bare + "=")) {
      return i;
    }
  }
  return 0;
}

// Numeric flag `key` parsed by `parse` (a strtod/strtoll wrapper), which
// must consume its whole value: a malformed, out-of-range, non-finite,
// empty or bare value exits 1 naming the flag instead of reading as 0.
template <typename T, typename Parse>
T NumericFlag(int argc, char** argv, const std::string& key, T fallback, const char* expected,
              Parse parse) {
  const int i = FindFlag(argc, argv, key);
  if (i == 0) {
    return fallback;
  }
  const char* text = argv[i] + key.size() + 2;
  text += *text == '=';  // "" for a bare "--key".
  char* end = nullptr;
  errno = 0;
  const T value = parse(text, &end);
  if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
      errno == ERANGE || !std::isfinite(static_cast<double>(value))) {
    std::fprintf(stderr, "flag --%s: '%s' is not %s\n", key.c_str(), text, expected);
    std::exit(1);
  }
  return value;
}

}  // namespace

std::string FlagValue(int argc, char** argv, const std::string& key, const std::string& fallback) {
  const int i = FindFlag(argc, argv, key);
  if (i == 0) {
    return fallback;
  }
  const char* rest = argv[i] + key.size() + 2;
  return *rest == '\0' ? "true" : rest + 1;  // Bare flag form reads "true".
}

double FlagDouble(int argc, char** argv, const std::string& key, double fallback) {
  return NumericFlag(argc, argv, key, fallback, "a finite number",
                     [](const char* text, char** end) { return std::strtod(text, end); });
}

int64_t FlagInt(int argc, char** argv, const std::string& key, int64_t fallback) {
  return NumericFlag(argc, argv, key, fallback, "a 64-bit integer",
                     [](const char* text, char** end) -> int64_t {
                       return std::strtoll(text, end, 10);
                     });
}

std::string FirstUnknownFlag(int argc, char** argv, std::initializer_list<std::string_view> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--") ||
        std::find(known.begin(), known.end(), arg.substr(2, arg.find('=') - 2)) == known.end()) {
      return std::string(arg);
    }
  }
  return "";
}

bool FlagBool(int argc, char** argv, const std::string& key, bool fallback) {
  std::string value = FlagValue(argc, argv, key, "");
  if (value.empty()) {
    return fallback;
  }
  return value == "1" || value == "true" || value == "yes" || value == "on";
}

}  // namespace seastar
