#ifndef RWDT_SPARQL_ALGEBRA_H_
#define RWDT_SPARQL_ALGEBRA_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/interner.h"
#include "paths/path.h"

namespace rwdt::sparql {

/// An RDF term or variable in a pattern position (paper Section 9).
struct Term {
  enum class Kind { kIri, kLiteral, kBlank, kVar, kNone };
  Kind kind = Kind::kNone;
  SymbolId id = kInvalidSymbol;

  bool IsVar() const { return kind == Kind::kVar; }
  bool IsBlank() const { return kind == Kind::kBlank; }
  /// Blank nodes in patterns act as (non-projectable) variables.
  bool ActsAsVar() const { return IsVar() || IsBlank(); }
  bool operator==(const Term& o) const {
    return kind == o.kind && id == o.id;
  }
  bool operator<(const Term& o) const {
    if (kind != o.kind) return kind < o.kind;
    return id < o.id;
  }
};

/// A triple pattern (s, p, o).
struct TriplePattern {
  Term s, p, o;
};

/// A property path pattern s pathexpr o.
struct PathTriple {
  Term s;
  paths::PathPtr path;
  Term o;
};

/// Filter constraint expressions: unary built-in tests, comparisons, and
/// Boolean combinations (the shapes the paper's classifications need:
/// "safe" = unary or ?x = ?y; "simple" = unary or binary; Section 9.5).
struct FilterExpr;
using FilterPtr = std::shared_ptr<const FilterExpr>;

struct FilterExpr {
  enum class Kind {
    kUnaryTest,   // bound(?x), isIRI(?x), lang(?x)="en", regex(?x, ...)
    kComparison,  // term op term
    kAnd,
    kOr,
    kNot,
    kExistsPattern,     // EXISTS { P }
    kNotExistsPattern,  // NOT EXISTS { P }
  };
  enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

  Kind kind = Kind::kUnaryTest;
  // kUnaryTest:
  Term operand;
  std::string function;  // "bound", "isIRI", "lang", "regex", ...
  std::string argument;  // e.g. the language tag or regex text
  // kComparison:
  CmpOp cmp = CmpOp::kEq;
  Term lhs, rhs;
  // kAnd/kOr/kNot:
  std::vector<FilterPtr> children;
  // kExistsPattern / kNotExistsPattern:
  std::shared_ptr<const struct Pattern> pattern;

  /// Appends each variable mention anywhere in the expression, repeats
  /// included; sort and unique the result for the variable set.
  void AppendVars(std::vector<SymbolId>* out) const;

  /// "Safe" filters keep a query conjunctive: unary tests or ?x = ?y.
  bool IsSafe() const;
  /// "Simple" filters are unary or binary (Section 9.5).
  bool IsSimple() const;
};

struct Query;
using QueryPtr = std::shared_ptr<const Query>;

/// SPARQL pattern algebra (Section 9): the grammar
///   P ::= t | pp | Q | P1 And P2 | P Filter R | P1 Union P2 |
///         P1 Optional P2 | Bind | Service n P | Values | Graph | Minus
struct Pattern {
  enum class Op {
    kTriple,
    kPath,
    kAnd,
    kFilter,
    kUnion,
    kOptional,
    kGraph,
    kBind,
    kValues,
    kMinus,
    kService,
    kSubquery,
  };

  Op op = Op::kTriple;
  TriplePattern triple;                           // kTriple
  PathTriple path;                                // kPath
  std::vector<std::shared_ptr<Pattern>> children;  // operator arguments
  FilterPtr filter;                               // kFilter
  Term graph_name;                                // kGraph / kService
  Term bind_var;                                  // kBind target
  Term bind_source;                               // kBind simple source
  std::vector<Term> values_vars;                  // kValues header
  std::vector<std::vector<Term>> values_rows;     // kValues rows
  QueryPtr subquery;                              // kSubquery

  /// In-scope variables (for well-designedness and projection checks).
  void CollectVars(std::set<SymbolId>* out) const;

  /// Appends the variables this node mentions itself, repeats included:
  /// CollectVars without the children. A filter node's own variables are
  /// its whole expression's, and a subquery's are those it projects.
  void AppendOwnVars(std::vector<SymbolId>* out) const;

  /// Triple and property path patterns, the unit of the paper's size
  /// analysis (Figure 3 counts "triples": both kinds alike), subqueries
  /// included.
  size_t NumTriplePatterns() const;
};

using PatternPtr = std::shared_ptr<Pattern>;

enum class QueryForm { kSelect, kAsk, kConstruct, kDescribe };

/// Aggregate functions of the solution modifier.
enum class Aggregate { kCount, kSum, kAvg, kMin, kMax };

struct SelectItem {
  Term var;                              // output variable
  std::optional<Aggregate> aggregate;    // e.g. (COUNT(?x) AS ?c)
  Term aggregate_arg;                    // argument variable (or none = *)
};

struct SolutionModifiers {
  bool distinct = false;
  bool reduced = false;
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;
  std::vector<Term> order_by;
  std::vector<bool> order_desc;
  std::vector<Term> group_by;
  FilterPtr having;
};

/// A SPARQL query: (query-type, pattern, solution-modifier).
struct Query {
  QueryForm form = QueryForm::kSelect;
  bool select_star = false;
  std::vector<SelectItem> projection;
  PatternPtr pattern;                       // may be null for DESCRIBE
  std::vector<TriplePattern> construct_template;
  std::vector<Term> describe_terms;
  SolutionModifiers modifiers;
};

namespace internal {

/// ForEachNode's walk. Out of line and type-erased, so each level of a
/// deep pattern costs one small stack frame whatever the visitor.
void WalkNodes(const Pattern& p, void (*visit)(void*, const Pattern&),
               void* visitor);

}  // namespace internal

/// Calls `visit(node)` for every node of `p` in pre-order, and descends
/// into a subquery's pattern after the subquery node's children.
template <class Visit>
void ForEachNode(const Pattern& p, Visit&& visit) {
  using V = std::remove_reference_t<Visit>;
  internal::WalkNodes(
      p, [](void* v, const Pattern& node) { (*static_cast<V*>(v))(node); },
      &visit);
}

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_ALGEBRA_H_
