#include "regex/parser.h"

#include <cctype>
#include <string>

#include "common/max_depth.h"

namespace rwdt::regex {
namespace {

bool IsSymbolChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '#' || c == '$' || c == '@';
}

/// Recursive-descent parser over the grammar
///   union   := concat ('|' concat)*
///   concat  := postfix+
///   postfix := atom ('*' | '+' | '?')*
///   atom    := symbol | '(' union ')' | '<eps>' | '<empty>'
class Parser {
 public:
  Parser(std::string_view input, Interner* dict)
      : input_(input), dict_(dict) {}

  Result<RegexPtr> Parse() {
    RWDT_ASSIGN_OR_RETURN(RegexPtr e, ParseUnion());
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  Result<RegexPtr> ParseUnion() {
    RWDT_ASSIGN_OR_RETURN(RegexPtr first, ParseConcat());
    std::vector<RegexPtr> parts = {std::move(first)};
    while (Peek() == '|') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(RegexPtr next, ParseConcat());
      parts.push_back(std::move(next));
    }
    return Regex::Union(std::move(parts));
  }

  Result<RegexPtr> ParseConcat() {
    std::vector<RegexPtr> parts;
    for (;;) {
      const char c = Peek();
      if (c == '\0' || c == '|' || c == ')') break;
      RWDT_ASSIGN_OR_RETURN(RegexPtr next, ParsePostfix());
      parts.push_back(std::move(next));
    }
    if (parts.empty()) {
      return Status::ParseError("empty alternative at offset " +
                                std::to_string(pos_));
    }
    return Regex::Concat(std::move(parts));
  }

  Result<RegexPtr> ParsePostfix() {
    RWDT_ASSIGN_OR_RETURN(RegexPtr e, ParseAtom());
    // Each postfix operator wraps the atom in one more AST level.
    size_t levels = depth_;
    for (;;) {
      // Postfix operators bind to the immediately preceding atom; no
      // whitespace skipping here so "a *" is concat(a, error) rather than
      // silently a*. SkipSpace would make 'a b*' ambiguous to read.
      if (pos_ >= input_.size()) break;
      const char c = input_[pos_];
      if (c == '*') {
        e = Regex::Star(e);
      } else if (c == '+') {
        e = Regex::Plus(e);
      } else if (c == '?') {
        e = Regex::Optional(e);
      } else {
        break;
      }
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++levels));
    }
    return e;
  }

  Result<RegexPtr> ParseAtom() {
    const char c = Peek();
    if (c == '(') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(RegexPtr inner, ParseUnion());
      if (Peek() != ')') {
        return Status::ParseError("expected ')' at offset " +
                                  std::to_string(pos_));
      }
      ++pos_;
      --depth_;
      return inner;
    }
    if (c == '<') {
      if (input_.substr(pos_, 5) == "<eps>") {
        pos_ += 5;
        return Regex::Epsilon();
      }
      if (input_.substr(pos_, 7) == "<empty>") {
        pos_ += 7;
        return Regex::Empty();
      }
      return Status::ParseError("unknown <...> token at offset " +
                                std::to_string(pos_));
    }
    if (c == '\'') {
      ++pos_;
      std::string name;
      while (pos_ < input_.size() && input_[pos_] != '\'') {
        name += input_[pos_++];
      }
      if (pos_ >= input_.size()) {
        return Status::ParseError("unterminated quoted symbol");
      }
      ++pos_;
      if (name.empty()) return Status::ParseError("empty quoted symbol");
      return Regex::Symbol(dict_->Intern(name));
    }
    if (IsSymbolChar(c)) {
      ++pos_;
      return Regex::Symbol(dict_->Intern(std::string_view(&c, 1)));
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' at offset " + std::to_string(pos_));
  }

  /// kResourceExhausted once `levels` exceeds the depth bound that
  /// every parser in the tree applies.
  Status CheckDepth(size_t levels) const {
    if (levels <= kDefaultMaxDepth) return Status::Ok();
    return Status::ResourceExhausted(
        "expression nests deeper than " + std::to_string(kDefaultMaxDepth) +
        " levels at offset " + std::to_string(pos_));
  }

  std::string_view input_;
  Interner* dict_;
  size_t pos_ = 0;
  /// Open groups. An error ends the parse, so only a closed group gives
  /// its level back.
  size_t depth_ = 0;
};

}  // namespace

Result<RegexPtr> ParseRegex(std::string_view input, Interner* dict) {
  return Parser(input, dict).Parse();
}

}  // namespace rwdt::regex
