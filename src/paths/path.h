#ifndef RWDT_PATHS_PATH_H_
#define RWDT_PATHS_PATH_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/max_depth.h"
#include "common/status.h"

namespace rwdt::paths {

/// SPARQL 1.1 property path AST (paper Section 9.2/9.6): SPARQL's version
/// of (two-way) regular path queries. Concatenation is '/', alternation
/// '|', inverse '^', closure '*' '+' '?', negated property sets '!p' /
/// '!(p|^q)'.
enum class PathOp {
  kIri,       // a predicate IRI
  kInverse,   // ^e
  kSeq,       // e1 / e2 / ...
  kAlt,       // e1 | e2 | ...
  kStar,      // e*
  kPlus,      // e+
  kOptional,  // e?
  kNegated,   // !(...) negated property set
};

class Path;
using PathPtr = std::shared_ptr<const Path>;

class Path {
 public:
  PathOp op() const { return op_; }
  SymbolId iri() const { return iri_; }
  const std::vector<PathPtr>& children() const { return children_; }
  const PathPtr& child() const { return children_[0]; }
  /// kNegated: forbidden (iri, inverted) pairs.
  const std::vector<std::pair<SymbolId, bool>>& negated_set() const {
    return negated_;
  }

  size_t Size() const;
  /// Operator nesting: 0 for an IRI or a negated set, else one more than
  /// the tallest child. ParsePath bounds it, so recursive walkers of a
  /// parsed path stay shallow.
  size_t Height() const { return height_; }
  std::string ToString(const Interner& dict) const;

  /// True when the path can match arbitrarily long paths (uses * or +) —
  /// "transitive" in the Table 8 taxonomy.
  bool IsTransitive() const;

  /// True when the path uses the inverse operator '^' somewhere.
  bool UsesInverse() const;

  static PathPtr Iri(SymbolId iri);
  static PathPtr Inverse(PathPtr e);
  static PathPtr Seq(std::vector<PathPtr> parts);
  static PathPtr Alt(std::vector<PathPtr> parts);
  static PathPtr Star(PathPtr e);
  static PathPtr Plus(PathPtr e);
  static PathPtr Optional(PathPtr e);
  static PathPtr Negated(std::vector<std::pair<SymbolId, bool>> forbidden);

 private:
  /// Only the factories above can make one, so only they construct a
  /// Path, each with one allocation (std::make_shared).
  struct Key {
    explicit Key() = default;
  };

 public:
  Path(Key, PathOp op, SymbolId iri, std::vector<PathPtr> children,
       std::vector<std::pair<SymbolId, bool>> negated)
      : op_(op),
        iri_(iri),
        children_(std::move(children)),
        negated_(std::move(negated)) {
    for (const auto& c : children_) {
      height_ = std::max(height_, c->height_ + 1);
    }
  }

 private:
  PathOp op_;
  SymbolId iri_ = kInvalidSymbol;
  std::vector<PathPtr> children_;
  std::vector<std::pair<SymbolId, bool>> negated_;
  size_t height_ = 0;
};

/// Parses SPARQL property path syntax over IRIs written either as
/// prefixed names (wdt:P31), <angle-bracket> IRIs, or bare identifiers.
///
/// A path whose parentheses and `^` nest, or whose operator tree
/// (Path::Height) grows, deeper than `max_depth` levels is refused with
/// kResourceExhausted before it can exhaust the stack; the SPARQL parser
/// passes the levels its query has left.
Result<PathPtr> ParsePath(std::string_view input, Interner* dict,
                          size_t max_depth = kDefaultMaxDepth);

}  // namespace rwdt::paths

#endif  // RWDT_PATHS_PATH_H_
