#ifndef RWDT_CORE_VERDICT_H_
#define RWDT_CORE_VERDICT_H_

#include <cstdint>

#include "core/log_study.h"
#include "core/query_analysis.h"
#include "sparql/algebra.h"
#include "sparql/analysis.h"

namespace rwdt::core {

/// The single shared classification verdict for one parsed SPARQL query.
///
/// This is the one source of truth for "which tractable fragment does
/// this query live in": the executor's planner dispatches on it, the
/// engine's aggregate counters consume it, and the serving layer renders
/// it as the /v1/classify JSON. The raw per-test booleans live in
/// `analysis`; the methods below are the derived views that used to be
/// re-computed ad hoc at each consumer.
struct QueryVerdict {
  sparql::QueryForm form = sparql::QueryForm::kSelect;
  QueryAnalysis analysis;

  /// "select" / "ask" / "construct" / "describe".
  const char* FormName() const;

  /// "cq" ⊂ "cq_f" ⊂ "c2rpq_f" per Tables 4/5; everything else (Union,
  /// Optional, Graph, ...) is "other".
  const char* FragmentName() const;

  /// Certified hypertree-width bound of the CQ+F canonical hypergraph:
  /// 1..3, or 0 when not certified <= 3 (or not CQ+F at all).
  uint64_t HtwLe() const;

  // --- Planner dispatch predicates (most specific first) -------------

  /// Acyclic conjunctive query: the Yannakakis semijoin program applies.
  bool IsAcyclicCq() const {
    return analysis.ops.IsCq() && analysis.cq_htw1;
  }

  /// CQ(+F) certified htw <= 3 but not acyclic: a decomposition-guided
  /// join order still bounds intermediate results.
  bool IsLowWidthCqF() const {
    return analysis.ops.IsCqF() &&
           (analysis.cqf_htw1 || analysis.cqf_htw2 || analysis.cqf_htw3);
  }

  /// Every property path in the query is a simple transitive expression
  /// (Martens-Trautner), so NFA-product reachability applies to all of
  /// them. False when the query has no paths.
  bool AllPathsSimpleTransitive() const {
    return !analysis.path_types.empty() &&
           analysis.ste == analysis.path_types.size();
  }

  /// Well-designed AND/FILTER/OPTIONAL query that actually uses
  /// OPTIONAL: pattern-tree evaluation applies.
  bool IsWellDesignedOptional() const {
    return analysis.well_designed &&
           analysis.features.count(sparql::Feature::kOptional) > 0;
  }
};

/// Runs the full per-query classifier battery (`AnalyzeQuery`) and wraps
/// it into the shared verdict. Deterministic in the query alone; never
/// touches shared state, so it is safe to call concurrently. This form
/// classifies with a fresh scratch.
QueryVerdict Classify(const sparql::Query& q, const LogStudyOptions& options,
                      StageTimings* timings = nullptr);
/// The same with the caller's scratch, reused from query to query (each
/// engine shard keeps one).
QueryVerdict Classify(const sparql::Query& q, const LogStudyOptions& options,
                      ClassifyScratch* scratch, StageTimings* timings);

}  // namespace rwdt::core

#endif  // RWDT_CORE_VERDICT_H_
