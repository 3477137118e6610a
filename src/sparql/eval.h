#ifndef RWDT_SPARQL_EVAL_H_
#define RWDT_SPARQL_EVAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "graph/rdf.h"
#include "paths/automaton.h"
#include "sparql/algebra.h"
#include "sparql/binding.h"

namespace rwdt::sparql {

/// Two mappings are compatible when they agree on shared variables
/// (Perez-Arenas-Gutierrez semantics).
bool Compatible(const Binding& a, const Binding& b);

/// The union of two compatible mappings. A variable both bind keeps
/// `a`'s value (for compatible mappings the two agree).
Binding Merge(const Binding& a, const Binding& b);

/// Read access to one solution mapping: the value it gives `var`, or
/// kInvalidSymbol when it leaves `var` unbound.
using VarLookup = std::function<SymbolId(SymbolId var)>;

/// Per-evaluation resource guards. Queries from real logs can join
/// themselves into enormous intermediate results; the evaluator refuses
/// to run away and returns `Code::kResourceExhausted` instead — the same
/// contract the parser's ParseLimits established in the ingest taxonomy.
struct EvalLimits {
  /// Budget on evaluation steps (~= bindings produced + pairs compared
  /// across joins). The default is far above anything the bundled
  /// corpora reach; tests use small values to exercise the error path.
  uint64_t max_steps = 1ull << 26;
};

/// Evaluates SPARQL patterns and queries over a triple store under bag
/// semantics. GRAPH and SERVICE evaluate their pattern against the same
/// (default) store — the library simulates remote endpoints locally,
/// binding the name variable (if any) to "urn:rwdt:default".
///
/// All fallible entry points follow the repo-wide Result<T>/Status
/// convention: resource-limit overruns return kResourceExhausted and
/// malformed algebra (e.g. a subquery node without a query) returns
/// kInternal, instead of silently yielding empty results.
class Evaluator {
 public:
  Evaluator(const graph::TripleStore& store, Interner* dict,
            const EvalLimits& limits = {});

  /// Multiset of solution mappings of the pattern rooted at node
  /// `pattern` of `query`.
  Result<std::vector<Binding>> EvalPattern(const Query& query,
                                           NodeIndex pattern) const;

  /// Full query evaluation: pattern + aggregation + solution modifiers +
  /// projection. CONSTRUCT/DESCRIBE also return bindings (the mapped
  /// template instantiation is left to callers).
  Result<std::vector<Binding>> EvalQuery(const Query& query) const;

  /// ASK-style evaluation.
  Result<bool> Ask(const Query& query) const;

  /// The solution-modifier pipeline of EvalQuery — aggregation, HAVING,
  /// projection, ORDER BY, DISTINCT/REDUCED, OFFSET/LIMIT — applied to
  /// already-computed pattern solutions. Public so alternative pattern
  /// executors (exec::) share modifier semantics bit-for-bit with the
  /// reference evaluator.
  Result<std::vector<Binding>> ApplyModifiers(const Query& query,
                                              std::vector<Binding> rows) const;

  /// One filter constraint of `query` against one mapping. Public for
  /// the same reason as ApplyModifiers: exec::FilterOp delegates here so
  /// filter semantics (unbound-variable errors, EXISTS) cannot drift.
  Result<bool> EvalFilter(const Query& query, const FilterExpr& f,
                          const Binding& mu) const;
  /// The same test against a mapping held in any form: the Binding
  /// overload forwards here, and exec::FilterOp reads its flat rows
  /// through `value_of` without building a Binding.
  Result<bool> EvalFilter(const Query& query, const FilterExpr& f,
                          const VarLookup& value_of) const;

  /// Resets the step budget. The evaluator's own entry points do this
  /// implicitly; alternative executors that drive EvalFilter /
  /// ApplyModifiers directly start their per-query budget here.
  void ResetSteps() const { steps_ = 0; }

  /// All (start, end) pairs connected by a property path; fixing
  /// `s`/`o` (non-wildcard) restricts the search. The path is compiled
  /// (paths::CompilePathNfa, whose size refusal is returned) and swept
  /// (paths::EvalPathNfa): each product node the sweep visits is charged
  /// one step to the running budget as it happens (ResetSteps starts a
  /// fresh one), so a closure that would outgrow it returns
  /// kResourceExhausted instead of being built first.
  Result<std::vector<std::pair<SymbolId, SymbolId>>> EvalPathPairs(
      const paths::Path& path, SymbolId s = kInvalidSymbol,
      SymbolId o = kInvalidSymbol) const;
  /// The same sweep over an already compiled path, charged the same way;
  /// exec's path scans compile once per plan and sweep here.
  Result<std::vector<std::pair<SymbolId, SymbolId>>> EvalPathPairs(
      const paths::PathNfa& nfa, SymbolId s = kInvalidSymbol,
      SymbolId o = kInvalidSymbol) const;

 private:
  // `query` owns the nodes; `q` is the query level being evaluated (the
  // query itself or one of its subqueries).
  Result<std::vector<Binding>> EvalPatternImpl(const Query& query,
                                               const Pattern& p) const;
  Result<std::vector<Binding>> EvalQueryImpl(const Query& query,
                                             const QueryHead& q) const;
  Result<std::vector<Binding>> ApplyModifiers(const Query& query,
                                              const QueryHead& q,
                                              std::vector<Binding> rows) const;
  Result<std::vector<Binding>> EvalTriple(const TriplePattern& t) const;
  Result<std::vector<Binding>> EvalPath(const PathTriple& p) const;
  Result<std::vector<Binding>> Join(const std::vector<Binding>& a,
                                    const std::vector<Binding>& b) const;
  Result<std::vector<Binding>> LeftJoin(const std::vector<Binding>& a,
                                        const std::vector<Binding>& b) const;
  Result<std::vector<Binding>> MinusOp(const std::vector<Binding>& a,
                                       const std::vector<Binding>& b) const;

  /// Charges `n` steps against the budget; kResourceExhausted on overrun.
  Status Charge(uint64_t n) const;

  const graph::TripleStore& store_;
  Interner* dict_;
  EvalLimits limits_;
  mutable uint64_t steps_ = 0;  // reset at each public entry point
};

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_EVAL_H_
