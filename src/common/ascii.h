#ifndef RWDT_COMMON_ASCII_H_
#define RWDT_COMMON_ASCII_H_

namespace rwdt::ascii {

/// Character classes of the C locale, without the locale lookup that
/// <cctype> pays per call. Nothing in the toolkit calls setlocale, so
/// these give the same answers as std::isspace, std::isdigit,
/// std::isalpha, std::isalnum and std::toupper; bytes >= 0x80 are in no
/// class.
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool IsAlnum(char c) { return IsAlpha(c) || IsDigit(c); }
constexpr char ToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace rwdt::ascii

#endif  // RWDT_COMMON_ASCII_H_
