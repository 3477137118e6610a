#ifndef RWDT_SERVE_VERDICT_H_
#define RWDT_SERVE_VERDICT_H_

#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "core/log_study.h"
#include "core/verdict.h"
#include "sparql/parser.h"

namespace rwdt::serve {

/// The query languages POST /v1/classify accepts (the `lang` query
/// parameter): full SPARQL, a bare property-path expression, or
/// navigational XPath.
enum class QueryLang { kSparql, kPath, kXPath };

const char* QueryLangName(QueryLang lang);

/// Parses "sparql" / "path" / "xpath"; "" means kSparql (the default).
Result<QueryLang> ParseQueryLang(std::string_view name);

/// Runs the paper's per-query classifier battery on one query text and
/// renders the verdict as a single JSON object:
///
///   sparql: form, triple count, features, fragment
///           (cq | cq_f | c2rpq_f | other), well-designedness,
///           filter classes, acyclicity + hypertree-width bound,
///           graph shape with/without constants, per-path Table 8 types.
///   path:   Table 8 type, canonical type string, STE / C_tract /
///           T_tract certification.
///   xpath:  fragment flags (positive, core, downward, tree pattern),
///           syntax-tree size, branch count.
///
/// On a query that fails to parse, returns the parser's Status (the
/// taxonomy class is recoverable via ClassifyStatus) — the serving
/// layer maps it to an HTTP 422 with a JSON error body.
Result<std::string> ClassifyToJson(std::string_view text, QueryLang lang,
                                   const core::LogStudyOptions& study_options,
                                   const sparql::ParseLimits& limits);
/// The same, also handing back the verdict a SPARQL body renders in
/// `*sparql_verdict`, which is left as it is for the other languages
/// and for a text that does not parse.
Result<std::string> ClassifyToJson(std::string_view text, QueryLang lang,
                                   const core::LogStudyOptions& study_options,
                                   const sparql::ParseLimits& limits,
                                   core::QueryVerdict* sparql_verdict);

/// Appends the full SourceStudy — counts, error taxonomy, and both
/// aggregate sides (valid multiset / unique set) — as one JSON object.
/// This is the response body of POST /v1/classify_batch; the loopback
/// tests prove it is byte-identical to rendering a direct EngineStream
/// run of the same log.
void AppendStudyJson(const core::SourceStudy& study, JsonWriter* w);
std::string StudyToJson(const core::SourceStudy& study);

}  // namespace rwdt::serve

#endif  // RWDT_SERVE_VERDICT_H_
