#ifndef RWDT_CORE_QUERY_ANALYSIS_H_
#define RWDT_CORE_QUERY_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "core/log_study.h"
#include "hypergraph/hypergraph.h"
#include "paths/analysis.h"
#include "sparql/analysis.h"

namespace rwdt::core {

/// The result of running the paper's "~120 analytical tests" on a single
/// parsed query. A `QueryAnalysis` is a pure function of the query text:
/// it can be computed once and added to aggregates any number of times
/// with any weight, which is what makes memoization across duplicate log
/// entries sound (paper Table 2: Valid ≫ Unique).
struct QueryAnalysis {
  bool is_describe = false;
  size_t triples = 0;
  sparql::FeatureSet features;
  sparql::OperatorSet ops;
  bool afo_only = false, well_designed = false;
  bool safe_filters = false, simple_filters = false;
  bool cq_fca = false, cq_htw1 = false, cq_htw2 = false, cq_htw3 = false;
  bool cqf_fca = false, cqf_htw1 = false, cqf_htw2 = false,
       cqf_htw3 = false;
  bool graph_cqf = false;
  hypergraph::GraphShape shape_with = hypergraph::GraphShape::kOther;
  hypergraph::GraphShape shape_without = hypergraph::GraphShape::kOther;
  std::vector<paths::Table8Type> path_types;
  uint64_t ste = 0, ctract = 0, ttract = 0;
};

/// Wall-time spent in the expensive sub-stages of `AnalyzeQuery`, in
/// nanoseconds. Filled only when a non-null pointer is passed (the
/// clock calls are skipped entirely otherwise). The three stages run
/// back to back and share their boundary clock reads, so their spans
/// abut: features ends where hypergraph starts, and so on.
struct StageTimings {
  /// In: the steady_clock time (ns) the features stage starts at, for a
  /// caller whose own last clock read ends the stage before it (the
  /// engine's parse); 0 has AnalyzeQuery read the clock itself.
  uint64_t start_ns = 0;
  uint64_t feature_ns = 0;     // feature / operator-set / filter classes
  uint64_t hypergraph_ns = 0;  // acyclicity, htw <= k, shape classes
  uint64_t path_ns = 0;        // property-path type classification
  /// Out: the clock read that ends the paths stage, which a caller can
  /// take as the start of its next stage instead of reading the clock.
  uint64_t end_ns = 0;
};

/// The buffers one classification fills: the pattern facts, the
/// well-designedness check's arrays, the canonical hypergraph with its
/// vertex map, free vertices and acyclicity arrays, and Table 7's edge
/// lists. A caller that classifies query after query (each engine
/// shard) keeps one, so once they have grown a query costs no heap
/// allocation outside the rare paths: an htw search, a Table 7 graph
/// with a cycle, a property path's type list.
struct ClassifyScratch {
  sparql::PatternFacts facts;
  sparql::WellDesignedScratch well_designed;
  hypergraph::Scratch hypergraph;
  hypergraph::Hypergraph canonical;
  std::vector<SymbolId> vertex_vars;
  std::vector<SymbolId> projected;
  std::vector<uint32_t> free_vertices;
};

/// Runs the full per-query classifier battery behind Tables 3-8 and
/// Figure 3, refilling `scratch`. Deterministic in the query alone;
/// touches no state but `scratch`, so it is safe to call concurrently
/// from many threads with one scratch each.
QueryAnalysis AnalyzeQuery(const sparql::Query& q,
                           const LogStudyOptions& options,
                           ClassifyScratch* scratch,
                           StageTimings* timings = nullptr);

/// Adds one analyzed query to `agg` with multiplicity `weight`.
void AddToAggregates(const QueryAnalysis& a, uint64_t weight,
                     LogAggregates* agg);

}  // namespace rwdt::core

#endif  // RWDT_CORE_QUERY_ANALYSIS_H_
