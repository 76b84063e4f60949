// Small string helpers shared by the CLI benches and table printers.
#ifndef SRC_COMMON_STRING_UTIL_H_
#define SRC_COMMON_STRING_UTIL_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace seastar {

// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(const std::string& text, char sep);

// Bytes -> short human string, e.g. "1.50 GB", "38.2 MB", "512 B".
std::string HumanBytes(uint64_t bytes);

// Fixed-precision float formatting, e.g. FormatDouble(3.14159, 2) == "3.14".
std::string FormatDouble(double value, int precision);

// Returns true if `text` starts with `prefix`.
bool StartsWith(const std::string& text, const std::string& prefix);

// Parses "--key=value" style flags out of argv. Returns value for `key` or
// `fallback` if absent. `key` is given without the leading dashes; a bare
// "--key" reads as "true".
std::string FlagValue(int argc, char** argv, const std::string& key, const std::string& fallback);
// Numeric flags: a malformed, out-of-range, non-finite, empty or bare value
// prints the flag's name and exits 1, as the CLIs do for an unknown flag.
double FlagDouble(int argc, char** argv, const std::string& key, double fallback);
int64_t FlagInt(int argc, char** argv, const std::string& key, int64_t fallback);
bool FlagBool(int argc, char** argv, const std::string& key, bool fallback);

// The first argument that is not "--key" or "--key=value" for a `known` key
// (a positional argument counts as unknown), or "" when every argument is
// known. CLIs reject it, so a mistyped or retired flag fails loudly instead
// of being ignored.
std::string FirstUnknownFlag(int argc, char** argv, std::initializer_list<std::string_view> known);

}  // namespace seastar

#endif  // SRC_COMMON_STRING_UTIL_H_
