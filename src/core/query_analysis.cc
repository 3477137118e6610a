#include "core/query_analysis.h"

#include <algorithm>
#include <chrono>
#include <numeric>

namespace rwdt::core {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The vertices of the canonical hypergraph that are free: the projected
/// variables' (all of them for SELECT *).
void FreeVertices(const sparql::Query& q, ClassifyScratch* scratch) {
  const std::vector<SymbolId>& vertex_vars = scratch->vertex_vars;
  std::vector<uint32_t>& free = scratch->free_vertices;
  free.clear();
  if (q.select_star) {
    free.resize(vertex_vars.size());
    std::iota(free.begin(), free.end(), 0u);
    return;
  }
  std::vector<SymbolId>& projected = scratch->projected;
  projected.clear();
  for (const auto& item : q.projection) {
    if (item.var.ActsAsVar()) projected.push_back(item.var.id);
  }
  std::sort(projected.begin(), projected.end());
  for (uint32_t v = 0; v < vertex_vars.size(); ++v) {
    if (std::binary_search(projected.begin(), projected.end(),
                           vertex_vars[v])) {
      free.push_back(v);
    }
  }
}

}  // namespace

QueryAnalysis AnalyzeQuery(const sparql::Query& q,
                           const LogStudyOptions& options,
                           ClassifyScratch* scratch,
                           StageTimings* timings) {
  QueryAnalysis a;
  const uint64_t t_features = timings != nullptr ? NowNs() : 0;
  a.is_describe = q.form == sparql::QueryForm::kDescribe;
  a.triples = q.NumTriplePatterns();
  a.features = sparql::ExtractFeatures(q);
  a.ops = sparql::ExtractOperatorSet(q);
  a.afo_only = sparql::UsesOnlyAndFilterOptional(q);
  a.well_designed =
      a.afo_only && sparql::IsWellDesigned(q, &scratch->well_designed);
  a.safe_filters = sparql::HasOnlySafeFilters(q);
  a.simple_filters = sparql::HasOnlySimpleFilters(q);
  const uint64_t t_hypergraph = timings != nullptr ? NowNs() : 0;
  if (timings != nullptr) timings->feature_ns = t_hypergraph - t_features;

  if (a.ops.IsCqF() && q.pattern != nullptr &&
      a.triples <= options.max_triples_for_htw) {
    // One canonical hypergraph and one acyclicity test answer both rows
    // of Table 6: a CQ has no filters, so its triple hypergraph is the
    // canonical one.
    hypergraph::Scratch& hs = scratch->hypergraph;
    const hypergraph::Hypergraph& h = scratch->canonical;
    hypergraph::BuildCanonicalHypergraph(q, &scratch->canonical,
                                         &scratch->vertex_vars, &hs);
    FreeVertices(q, scratch);
    const bool acyclic = hypergraph::IsAcyclic(h, &hs);
    a.cqf_fca = hypergraph::IsFreeConnexAcyclic(h, scratch->free_vertices,
                                                acyclic, &hs);
    a.cqf_htw1 = acyclic;
    a.cqf_htw2 = acyclic ||
                 hypergraph::HypertreeWidthAtMost(h, 2, &hs).value_or(false);
    a.cqf_htw3 = a.cqf_htw2 ||
                 hypergraph::HypertreeWidthAtMost(h, 3, &hs).value_or(false);
    if (a.ops.IsCq()) {
      a.cq_fca = a.cqf_fca;
      a.cq_htw1 = a.cqf_htw1;
      a.cq_htw2 = a.cqf_htw2;
      a.cq_htw3 = a.cqf_htw3;
    }

    a.graph_cqf = sparql::IsGraphCqF(q);
    if (a.graph_cqf) {
      const hypergraph::QueryShapes shapes =
          hypergraph::ClassifyCanonicalShapes(q, &hs);
      a.shape_with = shapes.with_constants;
      a.shape_without = shapes.without_constants;
    }
  }
  const uint64_t t_paths = timings != nullptr ? NowNs() : 0;
  if (timings != nullptr) timings->hypergraph_ns = t_paths - t_hypergraph;

  sparql::ForEachNode(q, [&](const sparql::Pattern& p) {
    if (p.op != sparql::Pattern::Op::kPath) return;
    const paths::Path& path = *q.path(p).path;
    a.path_types.push_back(paths::ClassifyTable8(path));
    if (paths::IsSimpleTransitiveExpression(path)) a.ste++;
    if (paths::CertifiedInCtract(path)) a.ctract++;
    if (paths::CertifiedInTtract(path)) a.ttract++;
  });
  if (timings != nullptr) timings->path_ns = NowNs() - t_paths;
  return a;
}

void AddToAggregates(const QueryAnalysis& a, uint64_t weight,
                     LogAggregates* agg) {
  agg->queries += weight;
  if (a.is_describe) {
    agg->describe += weight;
    return;  // the paper excludes Describe from the feature tables
  }
  agg->select_ask_construct += weight;
  agg->triple_histogram[std::min<size_t>(a.triples, 11)] += weight;
  for (sparql::Feature f : a.features) agg->feature_counts[f] += weight;

  const sparql::OperatorSet& ops = a.ops;
  if (!ops.uses_other) {
    const int combo = (ops.uses_and ? 1 : 0) + (ops.uses_filter ? 2 : 0) +
                      (ops.uses_path ? 4 : 0);
    switch (combo) {
      case 0:
        agg->ops_none += weight;
        break;
      case 1:
        agg->ops_and += weight;
        break;
      case 2:
        agg->ops_filter += weight;
        break;
      case 3:
        agg->ops_and_filter += weight;
        break;
      case 4:
        agg->ops_rpq += weight;
        break;
      case 5:
        agg->ops_and_rpq += weight;
        break;
      case 6:
        agg->ops_filter_rpq += weight;
        break;
      case 7:
        agg->ops_and_filter_rpq += weight;
        break;
    }
  }
  if (ops.IsCq()) agg->cq += weight;
  if (ops.IsCqF()) agg->cq_f += weight;
  if (ops.IsC2RpqF()) agg->c2rpq_f += weight;

  if (a.afo_only) agg->afo_only += weight;
  if (a.well_designed) agg->well_designed += weight;
  if (a.safe_filters) agg->safe_filters_only += weight;
  if (a.simple_filters) agg->simple_filters_only += weight;

  if (ops.IsCq()) {
    if (a.cq_fca) agg->cq_fca += weight;
    if (a.cq_htw1) agg->cq_htw1 += weight;
    if (a.cq_htw2) agg->cq_htw2 += weight;
    if (a.cq_htw3) agg->cq_htw3 += weight;
  }
  if (ops.IsCqF()) {
    if (a.cqf_fca) agg->cqf_fca += weight;
    if (a.cqf_htw1) agg->cqf_htw1 += weight;
    if (a.cqf_htw2) agg->cqf_htw2 += weight;
    if (a.cqf_htw3) agg->cqf_htw3 += weight;
  }
  if (a.graph_cqf) {
    agg->graph_cqf += weight;
    agg->shapes_with_constants[a.shape_with] += weight;
    agg->shapes_without_constants[a.shape_without] += weight;
  }
  for (paths::Table8Type t : a.path_types) {
    agg->path_types[t] += weight;
    agg->property_paths += weight;
  }
  agg->path_ste += a.ste * weight;
  agg->path_ctract += a.ctract * weight;
  agg->path_ttract += a.ttract * weight;
}

}  // namespace rwdt::core
