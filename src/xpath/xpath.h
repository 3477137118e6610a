#ifndef RWDT_XPATH_XPATH_H_
#define RWDT_XPATH_XPATH_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "tree/tree.h"

namespace rwdt::xpath {

/// The XPath axes (paper Section 5). Baelde et al. report usage child
/// 31.1%, attribute 17.1%, descendant(-or-self) 3.6%,
/// ancestor(-or-self) 3.6% in their 21.1k-query corpus.
enum class Axis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kSelf,
  kFollowingSibling,
  kPrecedingSibling,
  kFollowing,
  kPreceding,
  kAttribute,
};

std::string AxisName(Axis axis);

struct Predicate;

/// A location step: axis::nodetest[predicates].
struct Step {
  Axis axis = Axis::kChild;
  /// kInvalidSymbol == wildcard '*'.
  SymbolId label = kInvalidSymbol;
  bool wildcard = false;
  std::vector<Predicate> predicates;
};

/// A location path; absolute paths start at the root.
struct Path {
  bool absolute = false;
  std::vector<Step> steps;
};

/// Predicate expression: existence of relative paths combined with
/// and/or/not (Core XPath 1.0 style qualifiers).
struct Predicate {
  enum class Kind { kPath, kAnd, kOr, kNot };
  Kind kind = Kind::kPath;
  Path path;                          // kPath
  std::vector<Predicate> children;    // kAnd / kOr / kNot
};

/// A query: union of location paths (XPath '|').
struct Query {
  std::vector<Path> branches;

  /// Number of syntax-tree nodes (Baelde et al.'s size metric).
  size_t Size() const;

  /// Set of axes used anywhere in the query.
  std::set<Axis> AxesUsed() const;
};

/// Parses the navigational XPath subset:
///   /a//b/*[c and not(.//d)]/@id | //e/parent::f
/// Axis shorthands: '/' child, '//' descendant-or-self step, '@'
/// attribute, '..' parent, '.' self; explicit "axis::test" syntax is also
/// accepted for every axis.
///
/// Predicates, not(...) and parenthesized predicates nesting deeper than
/// kDefaultMaxDepth levels are refused with kResourceExhausted
/// before they can exhaust the stack.
Result<Query> ParseXPath(std::string_view input, Interner* dict);

// --- Fragments (Section 5) ------------------------------------------------

/// Positive XPath: no 'not' in predicates.
bool IsPositiveXPath(const Query& q);

/// Core XPath 1.0: navigational XPath — all axes, boolean predicates
/// (which is everything this AST can express; the classifier exists so
/// corpus statistics can count queries that also use attribute-value
/// comparisons once extended).
bool IsCoreXPath1(const Query& q);

/// Downward XPath: only child / descendant(-or-self) / self axes.
bool IsDownwardXPath(const Query& q);

/// Tree patterns (twig queries): a single downward branch-free-at-top
/// path, positive conjunctive predicates only (no 'or'/'not'), no
/// wildcards required... wildcards allowed per Miklau-Suciu (//, *, []).
bool IsTreePattern(const Query& q);

// --- Evaluation ------------------------------------------------------------

/// Evaluates the query on a tree, returning the matched nodes in
/// document order. Attribute steps match when the supplied attribute
/// name set contains the label (attributes are modeled as present/absent
/// per node via `attributes`: pairs of (node, attribute name)).
std::vector<tree::NodeId> Evaluate(
    const Query& q, const tree::Tree& t, const Interner& dict,
    const std::vector<std::pair<tree::NodeId, std::string>>& attributes = {});

}  // namespace rwdt::xpath

#endif  // RWDT_XPATH_XPATH_H_
