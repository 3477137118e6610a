#include "paths/analysis.h"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

namespace rwdt::paths {

std::string Table8TypeName(Table8Type type) {
  switch (type) {
    case Table8Type::kAStar:
      return "a*";
    case Table8Type::kABStarOrAPlus:
      return "ab*, a+";
    case Table8Type::kABStarCStar:
      return "ab*c*";
    case Table8Type::kDisjStar:
      return "A*";
    case Table8Type::kABStarC:
      return "ab*c";
    case Table8Type::kAStarBStar:
      return "a*b*";
    case Table8Type::kABCStar:
      return "abc*";
    case Table8Type::kAOptBStar:
      return "a?b*";
    case Table8Type::kDisjPlus:
      return "A+";
    case Table8Type::kDisjBStar:
      return "Ab*";
    case Table8Type::kOtherTransitive:
      return "Other transitive";
    case Table8Type::kWord:
      return "a1...ak";
    case Table8Type::kDisj:
      return "A";
    case Table8Type::kDisjOpt:
      return "A?";
    case Table8Type::kWordOptTail:
      return "a1a2?...ak?";
    case Table8Type::kInverse:
      return "^a";
    case Table8Type::kABCOpt:
      return "abc?";
    case Table8Type::kOtherNonTransitive:
      return "Other non-transitive";
  }
  return "?";
}

namespace {

enum class Mod { kNone, kStar, kPlus, kOpt };

struct Factor {
  bool upper = false;       // disjunction of >= 2 atoms or negated set
  SymbolId atom_key = 0;    // letter grouping key (IRI, inversion erased)
  std::vector<SymbolId> disj_key;  // for uppers
  Mod mod = Mod::kNone;
};

/// An atom: IRI or ^IRI. Returns its IRI key, or nullopt if not an atom.
std::optional<SymbolId> AsAtom(const Path& p) {
  if (p.op() == PathOp::kIri) return p.iri();
  if (p.op() == PathOp::kInverse && p.child()->op() == PathOp::kIri) {
    return p.child()->iri();
  }
  return std::nullopt;
}

/// Decomposes the body (modifier already stripped) of a factor.
std::optional<Factor> AsFactorBody(const Path& p) {
  Factor f;
  if (auto atom = AsAtom(p); atom.has_value()) {
    f.upper = false;
    f.atom_key = *atom;
    return f;
  }
  if (p.op() == PathOp::kNegated) {
    f.upper = true;
    for (const auto& [iri, inv] : p.negated_set()) {
      (void)inv;
      f.disj_key.push_back(iri);
    }
    std::sort(f.disj_key.begin(), f.disj_key.end());
    return f;
  }
  if (p.op() == PathOp::kAlt) {
    for (const auto& c : p.children()) {
      auto atom = AsAtom(*c);
      if (!atom.has_value()) {
        // Nested negated sets inside an alternation still count as a
        // disjunction of atoms.
        if (c->op() == PathOp::kNegated) {
          for (const auto& [iri, inv] : c->negated_set()) {
            (void)inv;
            f.disj_key.push_back(iri);
          }
          continue;
        }
        return std::nullopt;
      }
      f.disj_key.push_back(*atom);
    }
    f.upper = true;
    std::sort(f.disj_key.begin(), f.disj_key.end());
    return f;
  }
  return std::nullopt;
}

std::optional<Factor> AsFactor(const Path& p) {
  Mod mod = Mod::kNone;
  const Path* body = &p;
  switch (p.op()) {
    case PathOp::kStar:
      mod = Mod::kStar;
      body = p.child().get();
      break;
    case PathOp::kPlus:
      mod = Mod::kPlus;
      body = p.child().get();
      break;
    case PathOp::kOptional:
      mod = Mod::kOpt;
      body = p.child().get();
      break;
    default:
      break;
  }
  auto f = AsFactorBody(*body);
  if (!f.has_value()) return std::nullopt;
  f->mod = mod;
  return f;
}

/// Calls `visit` on each factor of the path in order; false once a part
/// nests beyond the "sequence of (modified) disjunctions" shape.
template <class Visit>
bool ForEachFactor(const Path& p, Visit&& visit) {
  if (p.op() != PathOp::kSeq) {
    auto f = AsFactor(p);
    if (!f.has_value()) return false;
    visit(std::move(*f));
    return true;
  }
  for (const auto& c : p.children()) {
    auto f = AsFactor(*c);
    if (!f.has_value()) return false;
    visit(std::move(*f));
  }
  return true;
}

/// Flattens the path into a factor sequence, or nullopt when the path
/// nests beyond the "sequence of (modified) disjunctions" shape.
std::optional<std::vector<Factor>> ToFactors(const Path& p) {
  std::vector<Factor> out;
  out.reserve(p.op() == PathOp::kSeq ? p.children().size() : 1);
  if (!ForEachFactor(p, [&out](Factor f) { out.push_back(std::move(f)); })) {
    return std::nullopt;
  }
  return out;
}

std::string TypeString(const std::vector<Factor>& factors) {
  std::map<SymbolId, char> lower_letters;
  std::map<std::vector<SymbolId>, char> upper_letters;
  std::string out;
  for (const auto& f : factors) {
    if (f.upper) {
      auto [it, inserted] = upper_letters.emplace(
          f.disj_key, static_cast<char>('A' + upper_letters.size()));
      out += it->second;
    } else {
      auto [it, inserted] = lower_letters.emplace(
          f.atom_key, static_cast<char>('a' + lower_letters.size()));
      out += it->second;
    }
    switch (f.mod) {
      case Mod::kNone:
        break;
      case Mod::kStar:
        out += '*';
        break;
      case Mod::kPlus:
        out += '+';
        break;
      case Mod::kOpt:
        out += '?';
        break;
    }
  }
  return out;
}

/// Classifies an oriented factor sequence; kOtherNonTransitive doubles as
/// "no match" (callers try the reverse orientation before accepting it).
Table8Type ClassifyOriented(const std::vector<Factor>& f) {
  const size_t n = f.size();
  auto is = [&](size_t i, bool upper, Mod mod) {
    return f[i].upper == upper && f[i].mod == mod;
  };
  if (n == 1) {
    if (is(0, false, Mod::kStar)) return Table8Type::kAStar;
    if (is(0, false, Mod::kPlus)) return Table8Type::kABStarOrAPlus;
    if (is(0, true, Mod::kStar)) return Table8Type::kDisjStar;
    if (is(0, true, Mod::kPlus)) return Table8Type::kDisjPlus;
    if (is(0, true, Mod::kNone)) return Table8Type::kDisj;
    if (is(0, true, Mod::kOpt)) return Table8Type::kDisjOpt;
    if (is(0, false, Mod::kNone)) return Table8Type::kWord;
    if (is(0, false, Mod::kOpt)) return Table8Type::kWordOptTail;
  }
  if (n == 2) {
    if (is(0, false, Mod::kNone) && is(1, false, Mod::kStar)) {
      return Table8Type::kABStarOrAPlus;
    }
    if (is(0, false, Mod::kStar) && is(1, false, Mod::kStar)) {
      return Table8Type::kAStarBStar;
    }
    if (is(0, false, Mod::kOpt) && is(1, false, Mod::kStar)) {
      return Table8Type::kAOptBStar;
    }
    if (is(0, true, Mod::kNone) && is(1, false, Mod::kStar)) {
      return Table8Type::kDisjBStar;
    }
  }
  if (n == 3) {
    if (is(0, false, Mod::kNone) && is(1, false, Mod::kStar) &&
        is(2, false, Mod::kStar)) {
      return Table8Type::kABStarCStar;
    }
    if (is(0, false, Mod::kNone) && is(1, false, Mod::kStar) &&
        is(2, false, Mod::kNone)) {
      return Table8Type::kABStarC;
    }
    if (is(0, false, Mod::kNone) && is(1, false, Mod::kNone) &&
        is(2, false, Mod::kStar)) {
      return Table8Type::kABCStar;
    }
    if (is(0, false, Mod::kNone) && is(1, false, Mod::kNone) &&
        is(2, false, Mod::kOpt)) {
      return Table8Type::kABCOpt;
    }
  }
  // a1...ak (all plain lowercase).
  bool all_plain = true;
  for (const auto& factor : f) {
    if (factor.upper || factor.mod != Mod::kNone) all_plain = false;
  }
  if (all_plain && n >= 1) return Table8Type::kWord;
  // a1 a2? ... ak? (plain head, optional lowercase tail).
  if (n >= 2 && !f[0].upper && f[0].mod == Mod::kNone) {
    bool opt_tail = true;
    for (size_t i = 1; i < n; ++i) {
      if (f[i].upper || f[i].mod != Mod::kOpt) opt_tail = false;
    }
    if (opt_tail) return Table8Type::kWordOptTail;
  }
  return Table8Type::kOtherNonTransitive;  // "no match" sentinel
}

bool FactorsTransitive(const std::vector<Factor>& f) {
  for (const auto& factor : f) {
    if (factor.mod == Mod::kStar || factor.mod == Mod::kPlus) return true;
  }
  return false;
}

}  // namespace

namespace {

/// Orders type strings the way the paper displays them: letters before
/// modifier symbols, so "ab*" is preferred over its reverse "a*b".
bool DisplayLess(const std::string& a, const std::string& b) {
  auto rank = [](char c) {
    if (c >= 'a' && c <= 'z') return static_cast<int>(c - 'a');
    if (c >= 'A' && c <= 'Z') return 100 + static_cast<int>(c - 'A');
    return 200 + static_cast<int>(c);
  };
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (rank(a[i]) != rank(b[i])) return rank(a[i]) < rank(b[i]);
  }
  return a.size() < b.size();
}

}  // namespace

std::string CanonicalTypeString(const Path& path) {
  auto factors = ToFactors(path);
  if (!factors.has_value()) return "other";
  std::string fwd = TypeString(*factors);
  std::vector<Factor> reversed(factors->rbegin(), factors->rend());
  std::string bwd = TypeString(reversed);
  return DisplayLess(fwd, bwd) ? fwd : bwd;
}

Table8Type ClassifyTable8(const Path& path) {
  // Exactly ^a: its own row.
  if (path.op() == PathOp::kInverse &&
      path.child()->op() == PathOp::kIri) {
    return Table8Type::kInverse;
  }
  auto factors = ToFactors(path);
  if (!factors.has_value()) {
    return path.IsTransitive() ? Table8Type::kOtherTransitive
                               : Table8Type::kOtherNonTransitive;
  }
  Table8Type t = ClassifyOriented(*factors);
  if (t != Table8Type::kOtherNonTransitive) return t;
  std::reverse(factors->begin(), factors->end());
  t = ClassifyOriented(*factors);
  if (t != Table8Type::kOtherNonTransitive) return t;
  return FactorsTransitive(*factors) ? Table8Type::kOtherTransitive
                                     : Table8Type::kOtherNonTransitive;
}

bool IsSimpleTransitiveExpression(const Path& path) {
  size_t transitive = 0;
  const bool factored = ForEachFactor(path, [&transitive](const Factor& f) {
    if (f.mod == Mod::kStar || f.mod == Mod::kPlus) ++transitive;
  });
  return factored && transitive <= 1;
}

bool CertifiedInCtract(const Path& path) {
  // Finite languages are trivially tractable; STEs are in C_tract
  // (Martens-Trautner / Bagan-Bonifati-Groz).
  if (!path.IsTransitive()) return true;
  return IsSimpleTransitiveExpression(path);
}

bool CertifiedInTtract(const Path& path) {
  if (!path.IsTransitive()) return true;
  return IsSimpleTransitiveExpression(path);
}

}  // namespace rwdt::paths
