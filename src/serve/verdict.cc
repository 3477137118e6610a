#include "serve/verdict.h"

#include <string>
#include <utility>

#include "common/interner.h"
#include "core/verdict.h"
#include "hypergraph/hypergraph.h"
#include "paths/analysis.h"
#include "paths/path.h"
#include "sparql/analysis.h"
#include "xpath/xpath.h"

namespace rwdt::serve {
namespace {

/// Renders the shared core::QueryVerdict — the same object the
/// executor's planner dispatches on — as the /v1/classify JSON body.
void AppendSparqlVerdict(const core::QueryVerdict& v, JsonWriter* w) {
  const core::QueryAnalysis& a = v.analysis;
  w->StringField("form", v.FormName());
  w->UIntField("triples", a.triples);
  w->Key("features").BeginArray();
  for (const sparql::Feature f : a.features) {
    w->String(sparql::FeatureName(f));
  }
  w->EndArray();
  w->StringField("fragment", v.FragmentName());
  w->BoolField("afo_only", a.afo_only);
  w->BoolField("well_designed", a.well_designed);
  w->BoolField("safe_filters", a.safe_filters);
  w->BoolField("simple_filters", a.simple_filters);

  // Structure verdicts are defined on the CQ+F fragment (Table 6); for
  // other fragments they read false / 0, matching the aggregate tables.
  w->BoolField("free_connex_acyclic", a.cqf_fca);
  w->UIntField("htw_le", v.HtwLe());  // 0 = not certified <= 3 (or not CQ+F)

  w->BoolField("graph_cqf", a.graph_cqf);
  if (a.graph_cqf) {
    w->StringField("shape", hypergraph::GraphShapeName(a.shape_with));
    w->StringField("shape_without_constants",
                   hypergraph::GraphShapeName(a.shape_without));
  }

  w->Key("path_types").BeginArray();
  for (const paths::Table8Type t : a.path_types) {
    w->String(paths::Table8TypeName(t));
  }
  w->EndArray();
  if (!a.path_types.empty()) {
    w->UIntField("paths_ste", a.ste);
    w->UIntField("paths_ctract", a.ctract);
    w->UIntField("paths_ttract", a.ttract);
  }
}

void AppendAggregates(const core::LogAggregates& agg, JsonWriter* w) {
  w->UIntField("queries", agg.queries);
  w->Key("triple_histogram").BeginArray();
  for (const uint64_t count : agg.triple_histogram) w->UInt(count);
  w->EndArray();
  w->Key("features").BeginObject();
  for (const auto& [feature, count] : agg.feature_counts) {
    w->UIntField(sparql::FeatureName(feature), count);
  }
  w->EndObject();
  w->UIntField("select_ask_construct", agg.select_ask_construct);
  w->UIntField("describe", agg.describe);

  w->Key("operator_sets").BeginObject();
  w->UIntField("none", agg.ops_none);
  w->UIntField("and", agg.ops_and);
  w->UIntField("filter", agg.ops_filter);
  w->UIntField("and_filter", agg.ops_and_filter);
  w->UIntField("rpq", agg.ops_rpq);
  w->UIntField("and_rpq", agg.ops_and_rpq);
  w->UIntField("filter_rpq", agg.ops_filter_rpq);
  w->UIntField("and_filter_rpq", agg.ops_and_filter_rpq);
  w->EndObject();
  w->UIntField("cq", agg.cq);
  w->UIntField("cq_f", agg.cq_f);
  w->UIntField("c2rpq_f", agg.c2rpq_f);
  w->UIntField("afo_only", agg.afo_only);
  w->UIntField("well_designed", agg.well_designed);
  w->UIntField("safe_filters_only", agg.safe_filters_only);
  w->UIntField("simple_filters_only", agg.simple_filters_only);

  w->Key("structure").BeginObject();
  w->UIntField("cq_fca", agg.cq_fca);
  w->UIntField("cq_htw1", agg.cq_htw1);
  w->UIntField("cq_htw2", agg.cq_htw2);
  w->UIntField("cq_htw3", agg.cq_htw3);
  w->UIntField("cqf_fca", agg.cqf_fca);
  w->UIntField("cqf_htw1", agg.cqf_htw1);
  w->UIntField("cqf_htw2", agg.cqf_htw2);
  w->UIntField("cqf_htw3", agg.cqf_htw3);
  w->EndObject();

  w->UIntField("graph_cqf", agg.graph_cqf);
  w->Key("shapes_with_constants").BeginObject();
  for (const auto& [shape, count] : agg.shapes_with_constants) {
    w->UIntField(hypergraph::GraphShapeName(shape), count);
  }
  w->EndObject();
  w->Key("shapes_without_constants").BeginObject();
  for (const auto& [shape, count] : agg.shapes_without_constants) {
    w->UIntField(hypergraph::GraphShapeName(shape), count);
  }
  w->EndObject();

  w->UIntField("property_paths", agg.property_paths);
  w->Key("path_types").BeginObject();
  for (const auto& [type, count] : agg.path_types) {
    w->UIntField(paths::Table8TypeName(type), count);
  }
  w->EndObject();
  w->UIntField("path_ste", agg.path_ste);
  w->UIntField("path_ctract", agg.path_ctract);
  w->UIntField("path_ttract", agg.path_ttract);
}

}  // namespace

const char* QueryLangName(QueryLang lang) {
  switch (lang) {
    case QueryLang::kSparql:
      return "sparql";
    case QueryLang::kPath:
      return "path";
    case QueryLang::kXPath:
      return "xpath";
  }
  return "unknown";
}

Result<QueryLang> ParseQueryLang(std::string_view name) {
  if (name.empty() || name == "sparql") return QueryLang::kSparql;
  if (name == "path") return QueryLang::kPath;
  if (name == "xpath") return QueryLang::kXPath;
  return Status::InvalidArgument("unknown lang: " + std::string(name) +
                                 " (want sparql|path|xpath)");
}

Result<std::string> ClassifyToJson(std::string_view text, QueryLang lang,
                                   const core::LogStudyOptions& study_options,
                                   const sparql::ParseLimits& limits) {
  core::QueryVerdict unused;
  return ClassifyToJson(text, lang, study_options, limits, &unused);
}

Result<std::string> ClassifyToJson(std::string_view text, QueryLang lang,
                                   const core::LogStudyOptions& study_options,
                                   const sparql::ParseLimits& limits,
                                   core::QueryVerdict* sparql_verdict) {
  Interner dict;
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.StringField("lang", QueryLangName(lang));
  w.BoolField("valid", true);
  switch (lang) {
    case QueryLang::kSparql: {
      RWDT_ASSIGN_OR_RETURN(const sparql::Query query,
                            sparql::ParseSparql(text, &dict, limits));
      *sparql_verdict = core::Classify(query, study_options);
      AppendSparqlVerdict(*sparql_verdict, &w);
      break;
    }
    case QueryLang::kPath: {
      RWDT_ASSIGN_OR_RETURN(const paths::PathPtr path,
                            paths::ParsePath(text, &dict));
      w.StringField("type", paths::Table8TypeName(
                                paths::ClassifyTable8(*path)));
      w.StringField("canonical_type", paths::CanonicalTypeString(*path));
      w.BoolField("simple_transitive",
                  paths::IsSimpleTransitiveExpression(*path));
      w.BoolField("ctract", paths::CertifiedInCtract(*path));
      w.BoolField("ttract", paths::CertifiedInTtract(*path));
      break;
    }
    case QueryLang::kXPath: {
      RWDT_ASSIGN_OR_RETURN(const xpath::Query query,
                            xpath::ParseXPath(text, &dict));
      w.UIntField("size", query.Size());
      w.UIntField("branches", query.branches.size());
      w.BoolField("positive", xpath::IsPositiveXPath(query));
      w.BoolField("core_xpath1", xpath::IsCoreXPath1(query));
      w.BoolField("downward", xpath::IsDownwardXPath(query));
      w.BoolField("tree_pattern", xpath::IsTreePattern(query));
      break;
    }
  }
  w.EndObject();
  return out;
}

void AppendStudyJson(const core::SourceStudy& study, JsonWriter* w) {
  w->BeginObject();
  w->StringField("name", study.name);
  w->BoolField("wikidata_like", study.wikidata_like);
  w->UIntField("total", study.total);
  w->UIntField("valid", study.valid);
  w->UIntField("unique", study.unique);
  w->Key("errors").BeginObject();
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    w->UIntField(ErrorClassName(static_cast<ErrorClass>(c)),
                 study.errors[c]);
  }
  w->EndObject();
  w->Key("valid_agg").BeginObject();
  AppendAggregates(study.valid_agg, w);
  w->EndObject();
  w->Key("unique_agg").BeginObject();
  AppendAggregates(study.unique_agg, w);
  w->EndObject();
  w->EndObject();
}

std::string StudyToJson(const core::SourceStudy& study) {
  std::string out;
  JsonWriter w(&out);
  AppendStudyJson(study, &w);
  return out;
}

}  // namespace rwdt::serve
