#ifndef RWDT_CORE_LOG_STUDY_H_
#define RWDT_CORE_LOG_STUDY_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "paths/analysis.h"
#include "sparql/analysis.h"

namespace rwdt::core {

/// Aggregated per-corpus statistics — the quantities behind the paper's
/// Tables 2-8 and Figure 3. The same aggregate is kept twice per source:
/// over the *Valid* multiset (duplicates weighted) and over the *Unique*
/// set, exactly as the paper reports "X (Y)".
struct LogAggregates {
  uint64_t queries = 0;

  /// Figure 3: triple-pattern count buckets 0..10 and "11+".
  std::vector<uint64_t> triple_histogram = std::vector<uint64_t>(12, 0);

  /// Table 3: per-feature usage counts. Only Select/Ask/Construct
  /// queries are counted (Describe is excluded, as in the paper).
  std::map<sparql::Feature, uint64_t> feature_counts;
  uint64_t select_ask_construct = 0;
  uint64_t describe = 0;

  /// Tables 4/5: operator-set fragments.
  uint64_t ops_none = 0, ops_and = 0, ops_filter = 0, ops_and_filter = 0;
  uint64_t ops_rpq = 0, ops_and_rpq = 0, ops_filter_rpq = 0,
           ops_and_filter_rpq = 0;
  uint64_t cq = 0, cq_f = 0, c2rpq_f = 0;

  /// Section 9.4: only And/Filter/Optional; well-designed subset.
  uint64_t afo_only = 0, well_designed = 0;

  /// Section 9.5 filters.
  uint64_t safe_filters_only = 0, simple_filters_only = 0;

  /// Table 6: CQ and CQ+F hypergraph analysis (cumulative).
  uint64_t cq_fca = 0, cq_htw1 = 0, cq_htw2 = 0, cq_htw3 = 0;
  uint64_t cqf_fca = 0, cqf_htw1 = 0, cqf_htw2 = 0, cqf_htw3 = 0;

  /// Table 7: shape classes of graph-CQ+F queries, with and without
  /// constant nodes (non-cumulative class counts).
  uint64_t graph_cqf = 0;
  std::map<hypergraph::GraphShape, uint64_t> shapes_with_constants;
  std::map<hypergraph::GraphShape, uint64_t> shapes_without_constants;

  /// Table 8 + Section 9.6: property-path types and class coverage.
  uint64_t property_paths = 0;  // total path occurrences
  std::map<paths::Table8Type, uint64_t> path_types;
  uint64_t path_ste = 0, path_ctract = 0, path_ttract = 0;

  /// Field-wise (bit-identical) equality; the engine's determinism
  /// guarantee is stated in terms of this comparison.
  bool operator==(const LogAggregates&) const = default;
};

/// Results for one log source.
struct SourceStudy {
  std::string name;
  bool wikidata_like = false;
  uint64_t total = 0;    // all log entries, including ingest rejects
  uint64_t valid = 0;    // parsed successfully
  uint64_t unique = 0;   // distinct query strings among the valid ones
  /// Per-entry reject counts by taxonomy class (duplicates of an invalid
  /// query each count; ingest-level rejects included). Invariant:
  /// total == valid + sum(errors).
  std::array<uint64_t, kNumErrorClasses> errors{};
  LogAggregates valid_agg;
  LogAggregates unique_agg;

  bool operator==(const SourceStudy&) const = default;
};

/// Options controlling per-query analysis cost.
struct LogStudyOptions {
  /// Skip hypertree-width checks beyond this many triple patterns
  /// (real logs cap out around 230; the check is exponential in k only).
  size_t max_triples_for_htw = 64;
};

/// Merges aggregates (for DBpedia-BritM vs Wikidata groupings).
void Merge(const LogAggregates& from, LogAggregates* into);
void MergeSource(const SourceStudy& from, SourceStudy* into);

}  // namespace rwdt::core

#endif  // RWDT_CORE_LOG_STUDY_H_
