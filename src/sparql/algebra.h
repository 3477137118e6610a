#ifndef RWDT_SPARQL_ALGEBRA_H_
#define RWDT_SPARQL_ALGEBRA_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
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

/// The position of an entry in one of a Query's arrays (a pattern node,
/// a filter node, a path triple, a subquery), or none. It compares equal
/// to nullptr when it names nothing, as the pointers it replaced did.
struct NodeIndex {
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  uint32_t value = kNone;

  constexpr NodeIndex() = default;
  constexpr explicit NodeIndex(size_t v) : value(static_cast<uint32_t>(v)) {}
  constexpr bool operator==(std::nullptr_t) const { return value == kNone; }
};

/// A run of consecutive entries of one of a Query's arrays.
struct IndexRange {
  uint32_t begin = 0;
  uint32_t size = 0;
};

/// Filter constraint expressions: unary built-in tests, comparisons, and
/// Boolean combinations (the shapes the paper's classifications need:
/// "safe" = unary or ?x = ?y; "simple" = unary or binary; Section 9.5).
/// A node of a Query's `filters` array; its children, its function name
/// and its argument live in arrays of the same Query.
struct FilterExpr {
  enum class Kind : uint8_t {
    kUnaryTest,   // bound(?x), isIRI(?x), lang(?x)="en", regex(?x, ...)
    kComparison,  // term op term
    kAnd,
    kOr,
    kNot,
    kExistsPattern,     // EXISTS { P }
    kNotExistsPattern,  // NOT EXISTS { P }
  };
  enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

  Kind kind = Kind::kUnaryTest;
  CmpOp cmp = CmpOp::kEq;  // kComparison
  Term operand;            // kUnaryTest
  IndexRange function;     // kUnaryTest: "bound", "isIRI", ... in `text`
  IndexRange argument;     // kUnaryTest: e.g. the language tag, in `text`
  Term lhs, rhs;           // kComparison
  IndexRange children;     // kAnd / kOr / kNot: filter nodes, in `links`
  NodeIndex pattern;       // kExistsPattern / kNotExistsPattern: the root
};

/// SPARQL pattern algebra (Section 9): the grammar
///   P ::= t | pp | Q | P1 And P2 | P Filter R | P1 Union P2 |
///         P1 Optional P2 | Bind | Service n P | Values | Graph | Minus
/// A node of a Query's `nodes` array; its children and operands live in
/// arrays of the same Query.
struct Pattern {
  enum class Op : uint8_t {
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
  IndexRange children;     // operator arguments: pattern nodes, in `links`
  TriplePattern triple;    // kTriple
  NodeIndex path;          // kPath: its entry in `paths`
  NodeIndex filter;        // kFilter: the expression's root in `filters`
  Term graph_name;         // kGraph / kService
  Term bind_var;           // kBind target
  Term bind_source;        // kBind simple source
  IndexRange values_vars;  // kValues header, in `terms`
  IndexRange values_rows;  // kValues rows, in `rows`
  NodeIndex subquery;      // kSubquery: its entry in `subqueries`

  /// A triple or property path pattern: the unit of the size analysis
  /// and what makes a conjunct count for the "And" feature.
  bool IsTripleOrPath() const {
    return op == Op::kTriple || op == Op::kPath;
  }
};

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
  NodeIndex having;  // the expression's root in `filters`, or none
};

/// What one SELECT/ASK/CONSTRUCT/DESCRIBE level says besides its pattern's
/// nodes: the outermost query's, or a subquery's.
struct QueryHead {
  QueryForm form = QueryForm::kSelect;
  bool select_star = false;
  std::vector<SelectItem> projection;
  NodeIndex pattern;  // root node; none for DESCRIBE without WHERE
  std::vector<TriplePattern> construct_template;
  std::vector<Term> describe_terms;
  SolutionModifiers modifiers;

  /// Empties every field, keeping the vectors' capacity.
  void Clear();
};

/// Whether a walk descends into the pattern of a subquery node.
enum class Subqueries { kEnter, kSkip };

namespace internal {
class SparqlParser;
}  // namespace internal

/// A SPARQL query: (query-type, pattern, solution-modifier).
///
/// The query owns every node of its patterns (subqueries' and EXISTS
/// bodies' included), of its filter expressions, its VALUES rows and its
/// subqueries' heads in flat arrays linked by 32-bit indices: destroying
/// or clearing one costs a few vector frees, whatever its shape, and a
/// query that is Clear()ed and parsed into again reuses every array.
/// Copies and moves keep every index valid.
struct Query : QueryHead {
  std::vector<Pattern> nodes;
  std::vector<FilterExpr> filters;
  /// Children lists: pattern nodes of a Pattern, filter nodes of a
  /// FilterExpr, each a range of this array.
  std::vector<NodeIndex> links;
  std::vector<Term> terms;         // VALUES headers and row cells
  std::vector<IndexRange> rows;    // VALUES rows, each a range of `terms`
  std::vector<PathTriple> paths;   // property path patterns
  std::vector<QueryHead> subqueries;
  std::string text;                // filter function names and arguments

  /// Empties the query, keeping every array's capacity.
  void Clear();

  const Pattern& node(NodeIndex n) const { return nodes[n.value]; }
  const FilterExpr& filter(NodeIndex f) const { return filters[f.value]; }
  std::span<const NodeIndex> children(const Pattern& p) const {
    return Range(links, p.children);
  }
  std::span<const NodeIndex> children(const FilterExpr& f) const {
    return Range(links, f.children);
  }
  /// The `i`-th operator argument of `p`.
  const Pattern& child(const Pattern& p, size_t i) const {
    return node(links[p.children.begin + i]);
  }
  const PathTriple& path(const Pattern& p) const {
    return paths[p.path.value];
  }
  const QueryHead& subquery(const Pattern& p) const {
    return subqueries[p.subquery.value];
  }
  std::span<const Term> values_vars(const Pattern& p) const {
    return Range(terms, p.values_vars);
  }
  std::span<const IndexRange> values_rows(const Pattern& p) const {
    return Range(rows, p.values_rows);
  }
  std::span<const Term> row(IndexRange r) const { return Range(terms, r); }
  std::string_view function(const FilterExpr& f) const {
    return std::string_view(text).substr(f.function.begin, f.function.size);
  }
  std::string_view argument(const FilterExpr& f) const {
    return std::string_view(text).substr(f.argument.begin, f.argument.size);
  }

  // The pattern and filter nodes the members below take are this
  // query's own.

  /// In-scope variables of the pattern rooted at `root` (for
  /// well-designedness and projection checks).
  void CollectVars(NodeIndex root, std::set<SymbolId>* out) const;

  /// Appends the variables node `p` mentions itself, repeats included:
  /// CollectVars without the children. A filter node's own variables are
  /// its whole expression's, and a subquery's are those it projects.
  void AppendOwnVars(const Pattern& p, std::vector<SymbolId>* out) const;

  /// Appends each variable mention anywhere in expression `f`, EXISTS
  /// bodies included, repeats included; sort and unique the result for
  /// the variable set.
  void AppendVars(const FilterExpr& f, std::vector<SymbolId>* out) const;

  /// "Safe" filters keep a query conjunctive: unary tests or ?x = ?y.
  bool IsSafe(const FilterExpr& f) const;
  /// "Simple" filters are unary or binary (Section 9.5).
  bool IsSimple(const FilterExpr& f) const;

  /// Triple and property path patterns of the query's pattern, the unit
  /// of the paper's size analysis (Figure 3 counts "triples": both kinds
  /// alike), subqueries included; 0 without a pattern.
  size_t NumTriplePatterns() const;

 private:
  friend class internal::SparqlParser;

  /// The parser's working stacks: the operands of its open conjunctions
  /// and the parts of its open FILTERs. Only the parser touches them, and
  /// they are empty whenever it has returned, accepted input or not.
  std::vector<NodeIndex> open_nodes_, open_filters_;

  template <class T>
  static std::span<const T> Range(const std::vector<T>& v, IndexRange r) {
    return std::span<const T>(v.data() + r.begin, r.size);
  }
};

namespace internal {

/// The pending entries of one walk: on the caller's stack up to
/// kInline of them, on the heap beyond (a left-deep chain keeps one
/// pending sibling per level).
template <class T>
class WalkStack {
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  bool empty() const { return size_ == 0; }
  void push(T item) {
    if (size_ < kInline) {
      std::construct_at(&inline_.items[size_], item);
    } else {
      spill_.push_back(item);
    }
    ++size_;
  }
  T pop() {
    --size_;
    if (size_ < kInline) return inline_.items[size_];
    const T item = spill_.back();
    spill_.pop_back();
    return item;
  }

 private:
  static constexpr size_t kInline = 32;
  // Left unconstructed until pushed: a walk sets up no slot it does not
  // use.
  union Slots {
    Slots() {}
    T items[kInline];
  } inline_;
  size_t size_ = 0;
  std::vector<T> spill_;
};

}  // namespace internal

/// Calls `visit(node)` for every node of the pattern rooted at `root` in
/// pre-order. With Subqueries::kEnter a subquery node's pattern is walked
/// right after the node's children; kSkip leaves it out. EXISTS bodies
/// are never walked: they belong to filter expressions. Iterative, so a
/// chain of any length costs no call stack.
///
/// A visitor that returns bool stops the walk by returning false; the
/// walk returns false when it was stopped, true when it saw every node.
template <class Visit>
bool ForEachNode(const Query& q, NodeIndex root, Visit&& visit,
                 Subqueries subqueries = Subqueries::kEnter) {
  if (root == nullptr) return true;
  internal::WalkStack<NodeIndex> stack;
  stack.push(root);
  while (!stack.empty()) {
    const Pattern& p = q.node(stack.pop());
    if constexpr (std::is_same_v<decltype(visit(p)), bool>) {
      if (!visit(p)) return false;
    } else {
      visit(p);
    }
    if (p.op == Pattern::Op::kSubquery && subqueries == Subqueries::kEnter) {
      const NodeIndex sub = q.subquery(p).pattern;
      if (sub != nullptr) stack.push(sub);
    }
    const std::span<const NodeIndex> children = q.children(p);
    for (size_t i = children.size(); i-- > 0;) stack.push(children[i]);
  }
  return true;
}

/// ForEachNode over the query's whole pattern.
template <class Visit>
bool ForEachNode(const Query& q, Visit&& visit) {
  return ForEachNode(q, q.pattern, visit);
}

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_ALGEBRA_H_
