// Strict number parsing for flags and environment variables: the whole
// text must be the number, so a typo is refused instead of read in part.
#ifndef RWDT_COMMON_PARSE_NUMBER_H_
#define RWDT_COMMON_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>

namespace rwdt {

/// Reads `text` as an unsigned decimal number no larger than `max`. The
/// whole text must be digits: a sign, a blank, trailing text ("8x") or a
/// value out of range is refused (false), where atoi or strtoul would
/// have read "-1" as a huge count, " 80" as 80 and "70000" as a port
/// modulo 65536.
template <typename T>
bool ParseDecimal(std::string_view text, T* out,
                  T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

/// Reads `text` as a whole finite decimal floating-point number ("20",
/// "0.25", "1e3", "-2"). Trailing text ("20x", "0.2s"), a blank, a '+',
/// an empty text, "inf", "nan" and a value out of double's range are
/// refused (false), where atof would have read "20x" as 20 and "x" as 0.
/// The caller checks the value's own range.
inline bool ParseFinite(std::string_view text, double* out) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

}  // namespace rwdt

#endif  // RWDT_COMMON_PARSE_NUMBER_H_
