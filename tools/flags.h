// Flag parsing shared by the command-line tools: `--name=value` flags,
// with numeric values read as a whole string (common/parse_number.h).
#ifndef RWDT_TOOLS_FLAGS_H_
#define RWDT_TOOLS_FLAGS_H_

#include <cstring>
#include <string>

#include "common/parse_number.h"

namespace rwdt::tools {

/// True when `arg` is `<name>=<value>`; sets `*out` to the value.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

/// Reads `text` as a whole finite number (rwdt::ParseFinite) for which
/// `in_range` holds, such as `x > 0` for a rate; false otherwise.
template <typename InRange>
bool ParseFiniteFlag(const std::string& text, double* out, InRange in_range) {
  double value = 0;
  if (!ParseFinite(text, &value) || !in_range(value)) return false;
  *out = value;
  return true;
}

}  // namespace rwdt::tools

#endif  // RWDT_TOOLS_FLAGS_H_
