#include "paths/path.h"

#include <functional>

#include "common/ascii.h"

namespace rwdt::paths {

size_t Path::Size() const {
  size_t n = 1;
  for (const auto& c : children_) n += c->Size();
  return n;
}

bool Path::IsTransitive() const {
  if (op_ == PathOp::kStar || op_ == PathOp::kPlus) return true;
  for (const auto& c : children_) {
    if (c->IsTransitive()) return true;
  }
  return false;
}

bool Path::UsesInverse() const {
  if (op_ == PathOp::kInverse) return true;
  for (const auto& [iri, inverted] : negated_) {
    (void)iri;
    if (inverted) return true;
  }
  for (const auto& c : children_) {
    if (c->UsesInverse()) return true;
  }
  return false;
}

namespace {

int Precedence(PathOp op) {
  switch (op) {
    case PathOp::kAlt:
      return 0;
    case PathOp::kSeq:
      return 1;
    default:
      return 2;
  }
}

}  // namespace

std::string Path::ToString(const Interner& dict) const {
  std::string out;
  std::function<void(const Path&, int)> render = [&](const Path& e,
                                                     int parent) {
    const int prec = Precedence(e.op());
    const bool parens = prec < parent;
    if (parens) out += '(';
    switch (e.op()) {
      case PathOp::kIri:
        out += dict.Name(e.iri());
        break;
      case PathOp::kInverse:
        out += '^';
        render(*e.child(), 2);
        break;
      case PathOp::kSeq: {
        bool first = true;
        for (const auto& c : e.children()) {
          if (!first) out += '/';
          first = false;
          render(*c, 2);
        }
        break;
      }
      case PathOp::kAlt: {
        bool first = true;
        for (const auto& c : e.children()) {
          if (!first) out += '|';
          first = false;
          render(*c, 1);
        }
        break;
      }
      case PathOp::kStar:
        render(*e.child(), 3);
        out += '*';
        break;
      case PathOp::kPlus:
        render(*e.child(), 3);
        out += '+';
        break;
      case PathOp::kOptional:
        render(*e.child(), 3);
        out += '?';
        break;
      case PathOp::kNegated: {
        out += "!(";
        bool first = true;
        for (const auto& [iri, inverted] : e.negated_set()) {
          if (!first) out += '|';
          first = false;
          if (inverted) out += '^';
          out += dict.Name(iri);
        }
        out += ')';
        break;
      }
    }
    if (parens) out += ')';
  };
  render(*this, 0);
  return out;
}

namespace {

using NegatedSet = std::vector<std::pair<SymbolId, bool>>;

/// The children of an n-ary `op` node over `parts`, with the parts that
/// are `op` nodes themselves spliced in.
std::vector<PathPtr> Flatten(PathOp op, std::vector<PathPtr> parts) {
  std::vector<PathPtr> flat;
  flat.reserve(parts.size());
  for (auto& p : parts) {
    if (p->op() == op) {
      flat.insert(flat.end(), p->children().begin(), p->children().end());
    } else {
      flat.push_back(std::move(p));
    }
  }
  return flat;
}

std::vector<PathPtr> One(PathPtr e) {
  std::vector<PathPtr> children;
  children.push_back(std::move(e));
  return children;
}

}  // namespace

PathPtr Path::Iri(SymbolId iri) {
  return std::make_shared<const Path>(Key(), PathOp::kIri, iri,
                                      std::vector<PathPtr>(), NegatedSet());
}
PathPtr Path::Inverse(PathPtr e) {
  return std::make_shared<const Path>(Key(), PathOp::kInverse,
                                      kInvalidSymbol, One(std::move(e)),
                                      NegatedSet());
}
PathPtr Path::Seq(std::vector<PathPtr> parts) {
  if (parts.size() == 1) return parts[0];
  return std::make_shared<const Path>(Key(), PathOp::kSeq, kInvalidSymbol,
                                      Flatten(PathOp::kSeq, std::move(parts)),
                                      NegatedSet());
}
PathPtr Path::Alt(std::vector<PathPtr> parts) {
  if (parts.size() == 1) return parts[0];
  return std::make_shared<const Path>(Key(), PathOp::kAlt, kInvalidSymbol,
                                      Flatten(PathOp::kAlt, std::move(parts)),
                                      NegatedSet());
}
PathPtr Path::Star(PathPtr e) {
  return std::make_shared<const Path>(Key(), PathOp::kStar, kInvalidSymbol,
                                      One(std::move(e)), NegatedSet());
}
PathPtr Path::Plus(PathPtr e) {
  return std::make_shared<const Path>(Key(), PathOp::kPlus, kInvalidSymbol,
                                      One(std::move(e)), NegatedSet());
}
PathPtr Path::Optional(PathPtr e) {
  return std::make_shared<const Path>(Key(), PathOp::kOptional,
                                      kInvalidSymbol, One(std::move(e)),
                                      NegatedSet());
}
PathPtr Path::Negated(std::vector<std::pair<SymbolId, bool>> forbidden) {
  return std::make_shared<const Path>(Key(), PathOp::kNegated,
                                      kInvalidSymbol, std::vector<PathPtr>(),
                                      std::move(forbidden));
}

namespace {

bool IsIriChar(char c) {
  return ascii::IsAlnum(c) || c == ':' || c == '_' || c == '.' || c == '-' ||
         c == '#';
}

class PathParser {
 public:
  PathParser(std::string_view input, Interner* dict, size_t max_depth)
      : input_(input), dict_(dict), max_depth_(max_depth) {}

  Result<PathPtr> Parse() {
    RWDT_ASSIGN_OR_RETURN(PathPtr e, ParseAlt());
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing path characters at offset " +
                                std::to_string(pos_));
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() && ascii::IsSpace(input_[pos_])) ++pos_;
  }
  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  Status CheckDepth(size_t levels) const {
    if (levels <= max_depth_) return Status::Ok();
    return Status::ResourceExhausted("property path nests deeper than " +
                                     std::to_string(max_depth_) +
                                     " levels (max_depth)");
  }

  /// `p`, unless its operator tree is taller than max_depth.
  Result<PathPtr> Bounded(PathPtr p) const {
    RWDT_RETURN_IF_ERROR(CheckDepth(p->Height()));
    return p;
  }

  // A lone operand is returned as it is, already bounded, without the
  // parts vector an alternation or sequence needs.
  Result<PathPtr> ParseAlt() {
    RWDT_ASSIGN_OR_RETURN(PathPtr first, ParseSeq());
    if (Peek() != '|') return first;
    std::vector<PathPtr> parts = {std::move(first)};
    while (Peek() == '|') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(PathPtr next, ParseSeq());
      parts.push_back(std::move(next));
    }
    return Bounded(Path::Alt(std::move(parts)));
  }

  Result<PathPtr> ParseSeq() {
    RWDT_ASSIGN_OR_RETURN(PathPtr first, ParsePostfix());
    if (Peek() != '/') return first;
    std::vector<PathPtr> parts = {std::move(first)};
    while (Peek() == '/') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(PathPtr next, ParsePostfix());
      parts.push_back(std::move(next));
    }
    return Bounded(Path::Seq(std::move(parts)));
  }

  Result<PathPtr> ParsePostfix() {
    RWDT_ASSIGN_OR_RETURN(PathPtr e, ParseAtom());
    for (;;) {
      const char c = pos_ < input_.size() ? input_[pos_] : '\0';
      if (c == '*') {
        RWDT_ASSIGN_OR_RETURN(e, Bounded(Path::Star(e)));
        ++pos_;
      } else if (c == '+') {
        RWDT_ASSIGN_OR_RETURN(e, Bounded(Path::Plus(e)));
        ++pos_;
      } else if (c == '?') {
        RWDT_ASSIGN_OR_RETURN(e, Bounded(Path::Optional(e)));
        ++pos_;
      } else {
        break;
      }
    }
    return e;
  }

  Result<PathPtr> ParseAtom() {
    const char c = Peek();
    if (c == '(') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(PathPtr inner, ParseAlt());
      --depth_;
      if (Peek() != ')') return Status::ParseError("expected ')'");
      ++pos_;
      return inner;
    }
    if (c == '^') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(PathPtr inner, ParsePostfix());
      --depth_;
      return Bounded(Path::Inverse(std::move(inner)));
    }
    if (c == '!') {
      ++pos_;
      return ParseNegatedSet();
    }
    return ParseIriAtom();
  }

  Result<PathPtr> ParseNegatedSet() {
    std::vector<std::pair<SymbolId, bool>> forbidden;
    auto one = [&]() -> Status {
      bool inverted = false;
      if (Peek() == '^') {
        ++pos_;
        inverted = true;
      }
      RWDT_ASSIGN_OR_RETURN(const SymbolId iri, ParseIriName());
      forbidden.emplace_back(iri, inverted);
      return Status::Ok();
    };
    if (Peek() == '(') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(one());
      while (Peek() == '|') {
        ++pos_;
        RWDT_RETURN_IF_ERROR(one());
      }
      if (Peek() != ')') return Status::ParseError("expected ')' in !()");
      ++pos_;
    } else {
      RWDT_RETURN_IF_ERROR(one());
    }
    return Path::Negated(std::move(forbidden));
  }

  Result<PathPtr> ParseIriAtom() {
    RWDT_ASSIGN_OR_RETURN(const SymbolId iri, ParseIriName());
    return Path::Iri(iri);
  }

  Result<SymbolId> ParseIriName() {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == '<') {
      const size_t end = input_.find('>', pos_);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated <iri>");
      }
      const std::string_view name = input_.substr(pos_ + 1, end - pos_ - 1);
      pos_ = end + 1;
      return dict_->Intern(name);
    }
    const size_t start = pos_;
    while (pos_ < input_.size() && IsIriChar(input_[pos_])) ++pos_;
    if (pos_ == start) {
      return Status::ParseError("expected IRI at offset " +
                                std::to_string(pos_));
    }
    return dict_->Intern(input_.substr(start, pos_ - start));
  }

  std::string_view input_;
  Interner* dict_;
  size_t max_depth_;
  // Open parentheses and `^`. A failed parse is abandoned, so only the
  // success paths close a level again.
  size_t depth_ = 0;
  size_t pos_ = 0;
};

}  // namespace

Result<PathPtr> ParsePath(std::string_view input, Interner* dict,
                          size_t max_depth) {
  return PathParser(input, dict, max_depth).Parse();
}

}  // namespace rwdt::paths
