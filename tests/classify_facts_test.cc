// AnalyzeQuery takes its pattern facts from two walks: one over the
// query's own pattern, subqueries skipped, and one that enters every
// subquery. Each fact must equal the standalone predicate it replaces,
// which walks with its own scope. The inputs are every distinct text of
// the Table 2 profiles and hand-written queries with the shapes where
// the two scopes differ: subqueries, EXISTS bodies, the parser's unit
// VALUES, variable predicates, nested OPTIONALs and property paths.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/interner.h"
#include "core/query_analysis.h"
#include "loggen/sparql_gen.h"
#include "paths/analysis.h"
#include "sparql/analysis.h"
#include "sparql/parser.h"

namespace rwdt::core {
namespace {

/// Every fact of `a` that differs from its standalone predicate, one
/// line each; empty when all agree.
std::string Mismatches(const sparql::Query& q, const QueryAnalysis& a,
                       const LogStudyOptions& options) {
  std::ostringstream out;
  auto check = [&](const char* name, auto fact, auto want) {
    if (!(fact == want)) out << name << " differs\n";
  };
  check("triples", a.triples, q.NumTriplePatterns());
  check("features", a.features, sparql::ExtractFeatures(q));
  const sparql::OperatorSet ops = sparql::ExtractOperatorSet(q);
  check("ops.uses_and", a.ops.uses_and, ops.uses_and);
  check("ops.uses_filter", a.ops.uses_filter, ops.uses_filter);
  check("ops.uses_path", a.ops.uses_path, ops.uses_path);
  check("ops.uses_other", a.ops.uses_other, ops.uses_other);
  check("afo_only", a.afo_only, sparql::UsesOnlyAndFilterOptional(q));
  check("well_designed", a.well_designed, sparql::IsWellDesigned(q));
  check("safe_filters", a.safe_filters, sparql::HasOnlySafeFilters(q));
  check("simple_filters", a.simple_filters, sparql::HasOnlySimpleFilters(q));
  // Graph analysis runs on the CQ+F queries within the htw triple bound.
  check("graph_cqf", a.graph_cqf,
        sparql::IsGraphCqF(q) && a.triples <= options.max_triples_for_htw);
  std::vector<paths::Table8Type> path_types;
  sparql::ForEachNode(q, [&](const sparql::Pattern& p) {
    if (p.op == sparql::Pattern::Op::kPath) {
      path_types.push_back(paths::ClassifyTable8(*q.path(p).path));
    }
  });
  check("path_types", a.path_types, path_types);
  return out.str();
}

/// Parses and classifies each text the way an engine shard does (one
/// query, one scratch, reused), and checks every accepted one. Returns
/// the number accepted.
size_t CheckAll(const std::vector<std::string>& texts) {
  Interner dict;
  sparql::Query query;
  ClassifyScratch scratch;
  const LogStudyOptions options;
  size_t accepted = 0, failures = 0;
  for (const std::string& text : texts) {
    dict.Clear();
    if (!sparql::ParseSparql(text, &dict, sparql::ParseLimits{}, &query)
             .ok()) {
      continue;
    }
    ++accepted;
    const QueryAnalysis a = AnalyzeQuery(query, options, &scratch);
    const std::string mismatches = Mismatches(query, a, options);
    if (!mismatches.empty() && ++failures <= 10) {
      ADD_FAILURE() << text << "\n" << mismatches;
    }
  }
  EXPECT_EQ(failures, 0u);
  return accepted;
}

TEST(ClassifyFactsTest, MatchStandalonePredicatesOnTable2Texts) {
  std::vector<std::string> texts;
  std::unordered_set<std::string> seen;
  for (const loggen::SourceProfile& profile : loggen::Table2Profiles()) {
    for (loggen::LogEntry& entry : loggen::GenerateLog(profile, 1)) {
      if (seen.insert(entry.text).second) {
        texts.push_back(std::move(entry.text));
      }
    }
  }
  EXPECT_GT(CheckAll(texts), 1000u);
}

TEST(ClassifyFactsTest, MatchStandalonePredicatesWhereScopesDiffer) {
  const std::vector<std::string> texts = {
      // Subqueries: the level walk skips them, the whole walk enters
      // them, and the features count one level down.
      "SELECT ?x WHERE { ?x <p> ?y . { SELECT ?y WHERE { ?y <q> ?z "
      "OPTIONAL { ?z <r> ?w } FILTER(?w != ?z) } } }",
      "SELECT ?x WHERE { { SELECT DISTINCT ?x WHERE { ?x <p> ?y . "
      "{ SELECT ?y (COUNT(?z) AS ?n) WHERE { ?y <q> ?z . ?z <r> ?v } "
      "GROUP BY ?y } } LIMIT 5 } }",
      "SELECT ?x WHERE { ?x <p> ?y { SELECT ?y WHERE { ?y ?v ?z } } }",
      "SELECT ?x WHERE { { SELECT ?x WHERE { ?x <p>+ ?y } } ?x <q> ?z }",
      "SELECT * WHERE { { SELECT * WHERE { ?x <p> ?y FILTER(bound(?x) || "
      "?x < ?y || ?y = ?z) } } }",
      // EXISTS bodies belong to their filter: neither walk enters them.
      "SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?y <q> ?z OPTIONAL "
      "{ ?z <r> ?w } } FILTER NOT EXISTS { ?x <s> ?x } }",
      "SELECT * WHERE { ?x <p> ?y FILTER(NOT EXISTS { ?y ?v ?w . "
      "?w <a>/<b> ?x }) }",
      "ASK { ?x <p> ?y FILTER(?x = ?y && EXISTS { ?x <q> ?y }) }",
      // The parser's unit VALUES, and a user-written one.
      "SELECT * WHERE { OPTIONAL { ?x <p> ?y } }",
      "SELECT * WHERE { }",
      "SELECT * WHERE { VALUES ?x { <a> <b> } ?x <p> ?y }",
      "SELECT * WHERE { BIND(1 AS ?x) ?x <p> ?y }",
      // Variable predicates: alone, repeated, and in another position.
      "SELECT * WHERE { ?x ?p ?y . ?y <q> ?z }",
      "SELECT * WHERE { ?x ?p ?y . ?y ?p ?z }",
      "SELECT * WHERE { ?x ?p ?y . ?p <q> ?z }",
      "SELECT * WHERE { ?x ?p ?y . ?y <q> ?p FILTER(?x != ?y) }",
      "SELECT * WHERE { ?x ?p _:b . _:b ?q ?z }",
      // Nested OPTIONALs, well designed and not.
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z OPTIONAL "
      "{ ?z <r> ?w } } }",
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } ?z <r> ?w }",
      "SELECT * WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z OPTIONAL "
      "{ ?w <r> ?v } } ?w <s> ?x }",
      "SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } OPTIONAL "
      "{ ?y <r> ?z } }",
      // Property paths, in the query and in a subquery.
      "SELECT * WHERE { ?x <p>/<q>* ?y . ?y (<a>|<b>)+ ?z . ?z ^<c> ?x }",
      "SELECT * WHERE { ?x !<p> ?y { SELECT ?y WHERE { ?y <q>? ?z } } }",
      // No pattern at all.
      "DESCRIBE <x>",
  };
  EXPECT_EQ(CheckAll(texts), texts.size());
}

}  // namespace
}  // namespace rwdt::core
