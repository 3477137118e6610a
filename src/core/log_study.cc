#include "core/log_study.h"

namespace rwdt::core {

void Merge(const LogAggregates& from, LogAggregates* into) {
  into->queries += from.queries;
  for (size_t i = 0; i < from.triple_histogram.size(); ++i) {
    into->triple_histogram[i] += from.triple_histogram[i];
  }
  for (const auto& [f, c] : from.feature_counts) {
    into->feature_counts[f] += c;
  }
  into->select_ask_construct += from.select_ask_construct;
  into->describe += from.describe;
  into->ops_none += from.ops_none;
  into->ops_and += from.ops_and;
  into->ops_filter += from.ops_filter;
  into->ops_and_filter += from.ops_and_filter;
  into->ops_rpq += from.ops_rpq;
  into->ops_and_rpq += from.ops_and_rpq;
  into->ops_filter_rpq += from.ops_filter_rpq;
  into->ops_and_filter_rpq += from.ops_and_filter_rpq;
  into->cq += from.cq;
  into->cq_f += from.cq_f;
  into->c2rpq_f += from.c2rpq_f;
  into->afo_only += from.afo_only;
  into->well_designed += from.well_designed;
  into->safe_filters_only += from.safe_filters_only;
  into->simple_filters_only += from.simple_filters_only;
  into->cq_fca += from.cq_fca;
  into->cq_htw1 += from.cq_htw1;
  into->cq_htw2 += from.cq_htw2;
  into->cq_htw3 += from.cq_htw3;
  into->cqf_fca += from.cqf_fca;
  into->cqf_htw1 += from.cqf_htw1;
  into->cqf_htw2 += from.cqf_htw2;
  into->cqf_htw3 += from.cqf_htw3;
  into->graph_cqf += from.graph_cqf;
  for (const auto& [s, c] : from.shapes_with_constants) {
    into->shapes_with_constants[s] += c;
  }
  for (const auto& [s, c] : from.shapes_without_constants) {
    into->shapes_without_constants[s] += c;
  }
  into->property_paths += from.property_paths;
  for (const auto& [t, c] : from.path_types) {
    into->path_types[t] += c;
  }
  into->path_ste += from.path_ste;
  into->path_ctract += from.path_ctract;
  into->path_ttract += from.path_ttract;
}

void MergeSource(const SourceStudy& from, SourceStudy* into) {
  into->total += from.total;
  into->valid += from.valid;
  into->unique += from.unique;
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    into->errors[c] += from.errors[c];
  }
  Merge(from.valid_agg, &into->valid_agg);
  Merge(from.unique_agg, &into->unique_agg);
}

}  // namespace rwdt::core
