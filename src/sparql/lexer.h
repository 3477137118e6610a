#ifndef RWDT_SPARQL_LEXER_H_
#define RWDT_SPARQL_LEXER_H_

#include <array>
#include <cstdint>

#include "common/ascii.h"

namespace rwdt::sparql::lexer {

/// The character classes the SPARQL parser tests byte by byte, one bit
/// each.
enum CharClass : uint8_t {
  kSpace = 1 << 0,  // ascii::IsSpace
  kName = 1 << 1,   // a prefixed or bare name: [A-Za-z0-9_:.#-]
  kWord = 1 << 2,   // a variable name, a blank node label or a filter
                    // function name: [A-Za-z0-9_]
};

/// Every byte's classes, built at compile time from the ascii::
/// predicates, so a test is one load and a mask. Bytes >= 0x80 are in no
/// class.
inline constexpr std::array<uint8_t, 256> kCharClasses = [] {
  std::array<uint8_t, 256> table{};
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool word = ascii::IsAlnum(c) || c == '_';
    uint8_t classes = 0;
    if (ascii::IsSpace(c)) classes |= kSpace;
    if (word || c == ':' || c == '.' || c == '-' || c == '#') {
      classes |= kName;
    }
    if (word) classes |= kWord;
    table[static_cast<size_t>(b)] = classes;
  }
  return table;
}();

constexpr bool InClass(char c, CharClass cls) {
  return (kCharClasses[static_cast<unsigned char>(c)] & cls) != 0;
}
constexpr bool IsSpace(char c) { return InClass(c, kSpace); }
constexpr bool IsNameChar(char c) { return InClass(c, kName); }
constexpr bool IsWordChar(char c) { return InClass(c, kWord); }

}  // namespace rwdt::sparql::lexer

#endif  // RWDT_SPARQL_LEXER_H_
