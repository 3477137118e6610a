// Flag parsing shared by the command-line tools: `--name=value` flags,
// and integer values read as a whole decimal string.
#ifndef RWDT_TOOLS_FLAGS_H_
#define RWDT_TOOLS_FLAGS_H_

#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>

namespace rwdt::tools {

/// True when `arg` is `<name>=<value>`; sets `*out` to the value.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

/// Reads `text` as an unsigned decimal number no larger than `max`. The
/// whole text must be digits: a sign, a blank, trailing text ("8x") or a
/// value out of range is refused (false), where atoi would have read
/// "-1" as a huge count and "70000" as a port modulo 65536.
template <typename T>
bool ParseDecimal(const std::string& text, T* out,
                  T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

}  // namespace rwdt::tools

#endif  // RWDT_TOOLS_FLAGS_H_
