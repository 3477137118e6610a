#ifndef RWDT_EXEC_PLANNER_H_
#define RWDT_EXEC_PLANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "core/log_study.h"
#include "core/verdict.h"
#include "exec/operators.h"
#include "graph/rdf.h"
#include "obs/registry.h"
#include "sparql/algebra.h"
#include "sparql/eval.h"

namespace rwdt::exec {

/// Which classifier-certified fragment selected the physical plan. The
/// planner dispatches on the shared core::QueryVerdict — the same object
/// /v1/classify renders — so "the classifier says this query is easy"
/// and "the executor runs it the easy way" can never disagree.
enum class Strategy {
  /// Acyclic CQ: Yannakakis semijoin program.
  kYannakakis,
  /// CQ+F with certified htw <= 3: decomposition-guided greedy join
  /// order with hash joins, filters kept at their pattern positions.
  kHtwJoinOrder,
  /// C2RPQ+F whose property paths are all simple transitive
  /// expressions: NFA-product reachability for every path leaf.
  kNfaPathProduct,
  /// Well-designed AND/FILTER/OPTIONAL: pattern-tree evaluation with
  /// hash left joins.
  kPatternTree,
  /// Everything else: the reference sparql::Evaluator, wholesale.
  kFallback,
};

const char* StrategyName(Strategy s);

/// An explainable physical plan for one query. Holds the operator tree
/// (null for kFallback) plus the verdict that selected it; `ToJson`
/// names the fragment so operators can see *why* a plan was chosen.
///
/// A Plan borrows the Executor that built it (store, dictionary,
/// evaluator); it must not outlive it. It owns a copy of its query, on
/// the heap so that its filter operators' references into it survive
/// moves of the Plan.
struct Plan {
  Strategy strategy = Strategy::kFallback;
  core::QueryVerdict verdict;
  std::unique_ptr<const sparql::Query> query;
  /// Why this strategy applies (or why the planner fell back).
  std::string reason;
  OperatorPtr root;  // null when strategy == kFallback

  std::string ToJson() const;
};

struct ExecOptions {
  sparql::EvalLimits limits;
  core::LogStudyOptions study;
};

/// Plans and executes SPARQL queries over one triple store, dispatching
/// on the shared classification verdict (ROADMAP item 1: "make the
/// classifier actionable"). Execution always finishes with the
/// reference evaluator's ApplyModifiers, so aggregation / ORDER BY /
/// DISTINCT / LIMIT semantics are shared bit-for-bit with EvalQuery.
///
/// Thread safety: `Classify` and `MakePlan` may run concurrently with
/// each other from several threads once the store's indexes are built
/// (any const store call, such as size(), builds them). `Execute` and
/// `Run` may not run concurrently with any other call on one Executor:
/// they reset and charge the shared evaluator's step budget, and
/// aggregates intern their values into the dictionary. Each returned
/// Plan is single-threaded.
class Executor {
 public:
  Executor(const graph::TripleStore& store, Interner* dict,
           ExecOptions options = {});

  /// The classifier battery for `q` (shared core::Classify).
  core::QueryVerdict Classify(const sparql::Query& q) const;

  /// Plans `q`, classifying it first / with a precomputed verdict.
  Result<Plan> MakePlan(const sparql::Query& q) const;
  Result<Plan> MakePlan(const sparql::Query& q,
                        const core::QueryVerdict& verdict) const;

  /// Runs a plan: drains the operator tree (or the evaluator for
  /// fallback plans) and applies the query's solution modifiers.
  Result<std::vector<Binding>> Execute(Plan& plan) const;

  /// MakePlan + Execute.
  Result<std::vector<Binding>> Run(const sparql::Query& q) const;

  const sparql::Evaluator& evaluator() const { return eval_; }

 private:
  struct Built;

  /// Builds the operator tree of `p`, which sits `depth` pattern levels
  /// down (the root is level 1). It recurses once per level, so, like the
  /// parsers, it refuses a pattern deeper than kDefaultMaxDepth levels
  /// with kResourceExhausted, and MakePlan falls back: a long OPTIONAL or
  /// FILTER chain nests one level per link within a single group.
  Result<Built> BuildPattern(const sparql::Query& q, const sparql::Pattern& p,
                             const LayoutPtr& layout, size_t depth) const;
  Result<Built> BuildAnd(const sparql::Query& q, const sparql::Pattern& p,
                         const LayoutPtr& layout, size_t depth) const;
  Built MakeJoin(const LayoutPtr& layout, Built left, Built right) const;
  Built MakeLeaf(OperatorPtr op, std::set<SymbolId> vars,
                 uint64_t estimate) const;

  const graph::TripleStore& store_;
  Interner* dict_;
  ExecOptions options_;
  sparql::Evaluator eval_;

  // Cached obs instruments (registration is once-per-callsite by
  // contract; the instruments themselves are lock-free).
  obs::Counter* plans_by_strategy_[5] = {};
  obs::Counter* rows_total_;
  obs::Histogram* exec_seconds_;
};

}  // namespace rwdt::exec

#endif  // RWDT_EXEC_PLANNER_H_
