#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/ascii.h"
#include "common/interner.h"
#include "common/rng.h"
#include "core/log_study.h"
#include "core/verdict.h"
#include "depth_ladders.h"
#include "graph/rdf.h"
#include "sparql/analysis.h"
#include "sparql/eval.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"

namespace rwdt::sparql {
namespace {

using ladders::Nesting;

class SparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small social/knowledge graph.
    Add("alice", "knows", "bob");
    Add("bob", "knows", "carol");
    Add("carol", "knows", "dave");
    Add("alice", "age", "\"30\"");
    Add("bob", "age", "\"25\"");
    Add("alice", "name", "\"Alice\"@en");
    Add("alice", "rdf:type", "Person");
    Add("bob", "rdf:type", "Person");
    Add("city1", "rdf:type", "City");
    Add("alice", "livesIn", "city1");
  }

  void Add(const std::string& s, const std::string& p,
           const std::string& o) {
    store_.Add(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
  }

  Query Q(const std::string& text) {
    auto r = ParseSparql(text, &dict_);
    EXPECT_TRUE(r.ok()) << text << "\n" << r.status().ToString();
    return r.ok() ? r.value() : Query{};
  }

  std::vector<Binding> Eval(const std::string& text) {
    Query q = Q(text);
    Evaluator eval(store_, &dict_);
    auto rows = eval.EvalQuery(q);
    EXPECT_TRUE(rows.ok()) << text << "\n" << rows.status().ToString();
    return rows.ok() ? std::move(rows).value() : std::vector<Binding>{};
  }

  SymbolId Value(const Binding& mu, const std::string& var) {
    auto it = mu.find(dict_.Intern("?" + var));
    return it == mu.end() ? kInvalidSymbol : it->second;
  }

  Interner dict_;
  graph::TripleStore store_;
};

TEST_F(SparqlTest, BasicSelect) {
  auto rows = Eval("SELECT ?x WHERE { ?x knows bob . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("alice"));
}

TEST_F(SparqlTest, JoinAcrossTriples) {
  auto rows = Eval("SELECT ?x ?z WHERE { ?x knows ?y . ?y knows ?z . }");
  EXPECT_EQ(rows.size(), 2u);  // alice->carol, bob->dave
}

TEST_F(SparqlTest, SemicolonAndCommaSugar) {
  auto rows =
      Eval("SELECT ?x WHERE { ?x knows bob ; age ?a . }");
  ASSERT_EQ(rows.size(), 1u);
  rows = Eval("SELECT ?x WHERE { alice knows ?x , ?y . }");
  EXPECT_EQ(rows.size(), 1u);  // ?x=bob ?y=bob
}

TEST_F(SparqlTest, FilterComparison) {
  auto rows =
      Eval("SELECT ?x WHERE { ?x age ?a . FILTER(?a > \"26\") }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("alice"));
}

TEST_F(SparqlTest, BooleanKeywordsInternTheLiteralTheyName) {
  // The keywords match in any case; each interns its own literal.
  Add("alice", "member", "\"true\"");
  Add("bob", "member", "\"false\"");
  for (const char* keyword : {"TRUE", "true", "True", "FALSE", "false"}) {
    const std::string text = std::string("SELECT ?x WHERE { ?x member ?y ") +
                             "FILTER(?y = " + keyword + ") }";
    const auto rows = Eval(text);
    ASSERT_EQ(rows.size(), 1u) << text;
    EXPECT_EQ(Value(rows[0], "x"),
              dict_.Intern(keyword[0] == 'T' || keyword[0] == 't' ? "alice"
                                                                  : "bob"))
        << text;
  }
}

TEST_F(SparqlTest, FilterLang) {
  auto rows = Eval(
      "SELECT ?n WHERE { alice name ?n FILTER(lang(?n)=\"en\") }");
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(SparqlTest, OptionalKeepsUnmatchedLeft) {
  auto rows = Eval(
      "SELECT ?x ?a WHERE { ?x rdf:type Person . "
      "OPTIONAL { ?x age ?a } }");
  EXPECT_EQ(rows.size(), 2u);
  // carol/dave are not Persons; alice and bob both have ages here, so
  // check with a missing attribute instead:
  rows = Eval(
      "SELECT ?x ?c WHERE { ?x rdf:type Person . "
      "OPTIONAL { ?x livesIn ?c } }");
  ASSERT_EQ(rows.size(), 2u);
  size_t with_city = 0;
  for (const auto& mu : rows) {
    if (Value(mu, "c") != kInvalidSymbol) ++with_city;
  }
  EXPECT_EQ(with_city, 1u);  // only alice
}

TEST_F(SparqlTest, UnionCombines) {
  auto rows = Eval(
      "SELECT ?x WHERE { { ?x rdf:type City } UNION "
      "{ ?x rdf:type Person } }");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SparqlTest, MinusRemoves) {
  auto rows = Eval(
      "SELECT ?x WHERE { ?x rdf:type Person MINUS { ?x livesIn ?c } }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("bob"));
}

TEST_F(SparqlTest, NotExistsFilter) {
  auto rows = Eval(
      "SELECT ?x WHERE { ?x rdf:type Person . "
      "FILTER NOT EXISTS { ?x livesIn ?c } }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("bob"));
}

TEST_F(SparqlTest, ValuesInline) {
  auto rows = Eval(
      "SELECT ?x WHERE { VALUES ?x { alice carol } ?x knows ?y . }");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(SparqlTest, BindCopiesValue) {
  auto rows = Eval(
      "SELECT ?y WHERE { ?x knows bob . BIND(?x AS ?y) }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "y"), dict_.Intern("alice"));
}

TEST_F(SparqlTest, PropertyPathStar) {
  // Paper's Wikidata example shape: wdt:P31/wdt:P279* -- here knows*.
  auto rows = Eval("SELECT ?x WHERE { alice knows* ?x . }");
  // alice, bob, carol, dave (star includes zero length).
  EXPECT_EQ(rows.size(), 4u);
  rows = Eval("SELECT ?x WHERE { alice knows+ ?x . }");
  EXPECT_EQ(rows.size(), 3u);
}

TEST_F(SparqlTest, PropertyPathSeqAltInverse) {
  auto rows = Eval("SELECT ?x WHERE { alice knows/knows ?x . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("carol"));
  rows = Eval("SELECT ?x WHERE { bob ^knows ?x . }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("alice"));
  rows = Eval("SELECT ?x WHERE { alice (knows|livesIn) ?x . }");
  EXPECT_EQ(rows.size(), 2u);
  rows = Eval("SELECT ?x WHERE { alice !knows ?x . }");
  // age, name, rdf:type, livesIn edges: 4 objects.
  EXPECT_EQ(rows.size(), 4u);
}

TEST_F(SparqlTest, AskQueries) {
  Evaluator eval(store_, &dict_);
  EXPECT_TRUE(eval.Ask(Q("ASK { alice knows bob }")).value());
  EXPECT_FALSE(eval.Ask(Q("ASK { bob knows alice }")).value());
}

TEST_F(SparqlTest, AggregationCountGroup) {
  auto rows = Eval(
      "SELECT ?t (COUNT(?x) AS ?n) WHERE { ?x rdf:type ?t } "
      "GROUP BY ?t");
  ASSERT_EQ(rows.size(), 2u);
  // Person group has 2, City group has 1.
  std::set<SymbolId> counts;
  for (const auto& mu : rows) counts.insert(Value(mu, "n"));
  EXPECT_TRUE(counts.count(dict_.Intern("\"2\"")));
  EXPECT_TRUE(counts.count(dict_.Intern("\"1\"")));
}

TEST_F(SparqlTest, OrderLimitOffsetDistinct) {
  auto rows = Eval(
      "SELECT DISTINCT ?x WHERE { ?x knows ?y } ORDER BY ?x LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("alice"));
  rows = Eval(
      "SELECT ?x WHERE { ?x knows ?y } ORDER BY ?x LIMIT 2 OFFSET 2");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "x"), dict_.Intern("carol"));
}

TEST_F(SparqlTest, SubqueryJoins) {
  auto rows = Eval(
      "SELECT ?x WHERE { { SELECT ?x WHERE { ?x knows ?y } } "
      "?x age ?a . }");
  EXPECT_EQ(rows.size(), 2u);  // alice and bob know someone and have ages
}

TEST_F(SparqlTest, PrefixHeadersAndComments) {
  auto rows = Eval(
      "PREFIX wdt: <http://example.org/prop/>\n"
      "# a comment\n"
      "SELECT ?x WHERE { ?x knows bob . } # trailing");
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(SparqlTest, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseSparql("SELECT ?x { ?x", &dict_).ok());
  EXPECT_FALSE(ParseSparql("FETCH ?x WHERE {}", &dict_).ok());
  EXPECT_FALSE(ParseSparql("SELECT WHERE { ?x ?p ?o }", &dict_).ok());
  EXPECT_FALSE(ParseSparql("SELECT ?x WHERE { ?x ?p ?o } junk",
                           &dict_).ok());
}

// Each term is interned under one spelling: variables with '?',
// literals quoted with their escapes resolved and their tag or datatype
// inside the quotes.
std::vector<std::string> TermNames(std::string_view text) {
  Interner dict;
  auto q = ParseSparql(text, &dict);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  std::vector<std::string> names;
  if (!q.ok()) return names;
  ForEachNode(q.value(), [&](const Pattern& p) {
    if (p.op != Pattern::Op::kTriple) return;
    for (const Term* term : {&p.triple.s, &p.triple.p, &p.triple.o}) {
      names.emplace_back(dict.Name(term->id));
    }
  });
  return names;
}

TEST(SparqlLexerTest, TermsInternAsWritten) {
  const std::string_view text =
      "SELECT * WHERE { $x <p> \"a\\\"b\"@en-GB . _:b1 a 'c' . "
      "?x <q> -12.5e3 . ?x <r> \"d\"^^xsd:int . [] <s> true . "
      "?x <t> FALSE }";
  const std::vector<std::string> expected = {
      "?x",      "p",        "\"a\"b@en-GB\"",  //
      "_:b1",    "rdf:type", "\"c\"",           //
      "?x",      "q",        "\"-12.5e3\"",     //
      "?x",      "r",        "\"d^^xsd:int\"",  //
      "_:anon0", "s",        "\"true\"",        //
      "?x",      "t",        "\"false\""};
  EXPECT_EQ(TermNames(text), expected);
}

TEST_F(SparqlTest, WikidataExampleQueryParses) {
  // The paper's "Locations of archaeological sites" query, adapted.
  Query q = Q(
      "SELECT ?label ?coord ?subj WHERE { "
      "?subj wdt:P31/wdt:P279* wd:Q839954 . "
      "?subj wdt:P625 ?coord . "
      "?subj rdfs:label ?label FILTER(lang(?label)=\"en\") }");
  EXPECT_EQ(q.NumTriplePatterns(), 3u);
  auto features = ExtractFeatures(q);
  EXPECT_TRUE(features.count(Feature::kPropertyPaths));
  EXPECT_TRUE(features.count(Feature::kFilter));
  EXPECT_TRUE(features.count(Feature::kAnd));
}

TEST_F(SparqlTest, FeatureExtraction) {
  Query q = Q(
      "SELECT DISTINCT ?x (AVG(?a) AS ?m) WHERE { "
      "{ ?x knows ?y } UNION { ?x age ?a } "
      "OPTIONAL { ?x livesIn ?c } "
      "SERVICE wikibase:label { ?x name ?n } } "
      "GROUP BY ?x HAVING(?m > \"1\") ORDER BY ?x LIMIT 5 OFFSET 1");
  auto f = ExtractFeatures(q);
  for (Feature expected :
       {Feature::kDistinct, Feature::kAvg, Feature::kUnion,
        Feature::kOptional, Feature::kService, Feature::kGroupBy,
        Feature::kHaving, Feature::kOrderBy, Feature::kLimit,
        Feature::kOffset, Feature::kAnd}) {
    EXPECT_TRUE(f.count(expected)) << FeatureName(expected);
  }
  EXPECT_FALSE(f.count(Feature::kMinus));
}

TEST(FeatureSetTest, MatchesStdSetUnderRandomInserts) {
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    FeatureSet bits;
    std::set<Feature> reference;
    const uint64_t inserts = rng.NextBelow(2 * kNumFeatures);
    for (uint64_t i = 0; i < inserts; ++i) {
      const auto f = static_cast<Feature>(rng.NextBelow(kNumFeatures));
      bits.insert(f);
      reference.insert(f);
      ASSERT_EQ(bits.size(), reference.size());
    }
    EXPECT_EQ(bits.empty(), reference.empty());
    for (size_t f = 0; f < kNumFeatures; ++f) {
      EXPECT_EQ(bits.count(static_cast<Feature>(f)),
                reference.count(static_cast<Feature>(f)));
    }
    // Range-for visits members in enum order, as std::set does.
    std::vector<Feature> visited;
    for (const Feature f : bits) visited.push_back(f);
    EXPECT_EQ(visited,
              std::vector<Feature>(reference.begin(), reference.end()));

    FeatureSet rebuilt;
    for (const Feature f : reference) rebuilt.insert(f);
    EXPECT_EQ(rebuilt, bits);
    if (!reference.empty()) {
      FeatureSet missing_first;
      for (const Feature f : reference) {
        if (f != *reference.begin()) missing_first.insert(f);
      }
      EXPECT_FALSE(missing_first == bits);
    }
  }
}

TEST_F(SparqlTest, OperatorSetClassification) {
  EXPECT_TRUE(ExtractOperatorSet(Q("SELECT ?x WHERE { ?x knows ?y }"))
                  .IsCq());
  EXPECT_TRUE(ExtractOperatorSet(
                  Q("SELECT ?x WHERE { ?x knows ?y . ?y knows ?z }"))
                  .IsCq());
  OperatorSet with_filter = ExtractOperatorSet(
      Q("SELECT ?x WHERE { ?x age ?a FILTER(?a > \"1\") }"));
  EXPECT_FALSE(with_filter.IsCq());
  EXPECT_TRUE(with_filter.IsCqF());
  OperatorSet with_path =
      ExtractOperatorSet(Q("SELECT ?x WHERE { ?x knows+ ?y }"));
  EXPECT_FALSE(with_path.IsCqF());
  EXPECT_TRUE(with_path.IsC2RpqF());
  OperatorSet with_union = ExtractOperatorSet(
      Q("SELECT ?x WHERE { { ?x knows ?y } UNION { ?y knows ?x } }"));
  EXPECT_FALSE(with_union.IsC2RpqF());
}

TEST_F(SparqlTest, WellDesignedness) {
  // Well-designed: optional's right side shares ?x with left.
  EXPECT_TRUE(IsWellDesigned(Q(
      "SELECT ?x WHERE { ?x knows ?y OPTIONAL { ?x age ?a } }")));
  // Not well-designed: ?y in the optional also occurs outside but not in
  // the optional's left side... construct the classic violation:
  EXPECT_FALSE(IsWellDesigned(Q(
      "SELECT ?x WHERE { { ?x knows ?w OPTIONAL { ?x age ?a } } "
      "?z livesIn ?a . }")));
  // Union disqualifies (only And/Filter/Optional allowed).
  EXPECT_FALSE(IsWellDesigned(Q(
      "SELECT ?x WHERE { { ?x knows ?y } UNION { ?x age ?y } }")));
}

TEST_F(SparqlTest, GraphCqFSuitability) {
  EXPECT_TRUE(IsGraphCqF(Q(
      "SELECT ?x WHERE { ?x knows ?y . ?y knows ?z . "
      "FILTER(?x != ?z) }")));
  // Variable predicate used once: still a graph pattern (wildcard).
  EXPECT_TRUE(IsGraphCqF(Q("SELECT ?x WHERE { ?x ?p ?y }")));
  // Predicate variable joined with a node position: not a graph pattern.
  EXPECT_FALSE(IsGraphCqF(Q("SELECT ?x WHERE { ?x ?p ?y . ?p knows ?z }")));
  // Union: not CQ+F at all.
  EXPECT_FALSE(IsGraphCqF(Q(
      "SELECT ?x WHERE { { ?x knows ?y } UNION { ?x age ?y } }")));
}

TEST_F(SparqlTest, SafeAndSimpleFilters) {
  EXPECT_TRUE(HasOnlySafeFilters(Q(
      "SELECT ?x WHERE { ?x age ?a FILTER(bound(?a)) }")));
  EXPECT_TRUE(HasOnlySafeFilters(Q(
      "SELECT ?x WHERE { ?x knows ?y FILTER(?x = ?y) }")));
  EXPECT_FALSE(HasOnlySafeFilters(Q(
      "SELECT ?x WHERE { ?x knows ?y FILTER(?x != ?y) }")));
  EXPECT_TRUE(HasOnlySimpleFilters(Q(
      "SELECT ?x WHERE { ?x knows ?y FILTER(?x != ?y) }")));
}

TEST_F(SparqlTest, ConstructAndDescribeParse) {
  Query c = Q(
      "CONSTRUCT { ?x related ?z } WHERE { ?x knows ?y . ?y knows ?z }");
  EXPECT_EQ(c.form, QueryForm::kConstruct);
  EXPECT_EQ(c.construct_template.size(), 1u);
  Query d = Q("DESCRIBE alice");
  EXPECT_EQ(d.form, QueryForm::kDescribe);
  EXPECT_EQ(d.describe_terms.size(), 1u);
  EXPECT_EQ(d.pattern, nullptr);
}

TEST_F(SparqlTest, GraphPatternBindsDefault) {
  auto rows = Eval("SELECT ?g WHERE { GRAPH ?g { alice knows bob } }");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(Value(rows[0], "g"), dict_.Intern("urn:rwdt:default"));
}

// --- Projection ----------------------------------------------------------
//
// exec and the reference evaluator both finish in ApplyModifiers, so the
// differential test cannot see a projection bug; these pin its output.

std::vector<Binding> SortedRows(std::vector<Binding> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_F(SparqlTest, ProjectionOutOfVariableIdOrder) {
  const SymbolId x = dict_.Intern("?x");
  const SymbolId y = dict_.Intern("?y");
  const SymbolId z = dict_.Intern("?z");
  ASSERT_LT(x, y);
  ASSERT_LT(y, z);
  auto id = [&](const char* name) { return dict_.Intern(name); };
  EXPECT_EQ(
      SortedRows(Eval("SELECT ?z ?x WHERE { ?x knows ?y . ?y knows ?z }")),
      SortedRows({{{x, id("alice")}, {z, id("carol")}},
                  {{x, id("bob")}, {z, id("dave")}}}));
}

TEST_F(SparqlTest, ProjectionOfARepeatedVariable) {
  const SymbolId a = dict_.Intern("?a");
  const SymbolId b = dict_.Intern("?b");
  auto id = [&](const char* name) { return dict_.Intern(name); };
  EXPECT_EQ(SortedRows(Eval("SELECT ?b ?a ?b WHERE { ?a knows ?b }")),
            SortedRows({{{a, id("alice")}, {b, id("bob")}},
                        {{a, id("bob")}, {b, id("carol")}},
                        {{a, id("carol")}, {b, id("dave")}}}));
}

TEST_F(SparqlTest, ProjectionOfAnAggregateUnderGroupBy) {
  const SymbolId t = dict_.Intern("?t");
  const SymbolId n = dict_.Intern("?n");
  const SymbolId one = dict_.Intern("\"1\"");
  const SymbolId two = dict_.Intern("\"2\"");
  EXPECT_EQ(SortedRows(Eval("SELECT (COUNT(?x) AS ?n) ?t "
                            "WHERE { ?x rdf:type ?t } GROUP BY ?t")),
            SortedRows({{{t, dict_.Intern("Person")}, {n, two}},
                        {{t, dict_.Intern("City")}, {n, one}}}));
  // The group key is dropped when the SELECT list leaves it out.
  EXPECT_EQ(SortedRows(Eval("SELECT (COUNT(?x) AS ?n) "
                            "WHERE { ?x rdf:type ?t } GROUP BY ?t")),
            SortedRows({{{n, two}}, {{n, one}}}));
}

TEST_F(SparqlTest, ProjectionLeavesAnUnboundOptionalVariableOut) {
  const SymbolId x = dict_.Intern("?x");
  const SymbolId c = dict_.Intern("?c");
  auto id = [&](const char* name) { return dict_.Intern(name); };
  EXPECT_EQ(SortedRows(Eval("SELECT ?c ?x WHERE { ?x rdf:type Person . "
                            "OPTIONAL { ?x livesIn ?c } }")),
            SortedRows({{{x, id("alice")}, {c, id("city1")}},
                        {{x, id("bob")}}}));
}

// --- Binding::assign_sorted ---------------------------------------------

/// Whether `mu`'s pairs live inside the object rather than on the heap.
bool Inline(const Binding& mu) {
  const auto* object = reinterpret_cast<const char*>(&mu);
  const auto* pairs = reinterpret_cast<const char*>(mu.begin());
  return pairs >= object && pairs < object + sizeof(Binding);
}

/// assign_sorted of the pairs (v, 100 + v) for v = 1..n.
void Fill(Binding* mu, size_t n) {
  mu->assign_sorted(n, [n](Binding::value_type* out) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = {static_cast<SymbolId>(i + 1), static_cast<SymbolId>(101 + i)};
    }
    return n;
  });
}

std::vector<Binding::value_type> Pairs(const Binding& mu) {
  return {mu.begin(), mu.end()};
}

TEST(BindingTest, AssignSortedOfNothingIsEmpty) {
  Binding mu{{7, 8}};
  mu.assign_sorted(0, [](Binding::value_type*) { return size_t{0}; });
  EXPECT_TRUE(mu.empty());
  EXPECT_EQ(mu, Binding{});
}

TEST(BindingTest, AssignSortedOfFourPairsStaysInline) {
  Binding mu;
  Fill(&mu, Binding::kInlineCapacity);
  EXPECT_TRUE(Inline(mu));
  EXPECT_EQ(Pairs(mu), (std::vector<Binding::value_type>{
                           {1, 101}, {2, 102}, {3, 103}, {4, 104}}));
  EXPECT_EQ(mu, (Binding{{4, 104}, {2, 102}, {3, 103}, {1, 101}}));
}

TEST(BindingTest, AssignSortedOfFiveOrMorePairsTakesTheHeap) {
  for (size_t n : {size_t{5}, size_t{9}}) {
    Binding mu;
    Fill(&mu, n);
    EXPECT_FALSE(Inline(mu)) << n;
    ASSERT_EQ(mu.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(mu.find(static_cast<SymbolId>(i + 1))->second, 101 + i);
    }
    // The mapping behaves as any other: copies and further inserts.
    Binding copy = mu;
    EXPECT_EQ(copy, mu);
    copy.emplace(0, 100);
    EXPECT_EQ(copy.begin()->first, 0u);
    EXPECT_EQ(copy.size(), n + 1);
  }
}

TEST(BindingTest, AssignSortedRefillsAHeapMappingWithFewerPairs) {
  Binding mu;
  Fill(&mu, 8);
  const Binding::value_type* block = mu.begin();
  // The writer may also store fewer pairs than it was allowed.
  mu.assign_sorted(3, [](Binding::value_type* out) {
    out[0] = {2, 20};
    out[1] = {5, 50};
    return size_t{2};
  });
  EXPECT_EQ(mu.begin(), block);  // the block is kept, not reallocated
  EXPECT_EQ(Pairs(mu), (std::vector<Binding::value_type>{{2, 20}, {5, 50}}));
  EXPECT_EQ(mu, (Binding{{5, 50}, {2, 20}}));
  EXPECT_TRUE(mu.emplace(3, 30).second);
  EXPECT_EQ(Pairs(mu), (std::vector<Binding::value_type>{
                           {2, 20}, {3, 30}, {5, 50}}));
}

#ifdef _GLIBCXX_ASSERTIONS
TEST(BindingDeathTest, AssignSortedAbortsOnPairsOutOfOrder) {
  Binding mu;
  EXPECT_DEATH(mu.assign_sorted(2,
                                [](Binding::value_type* out) {
                                  out[0] = {3, 1};
                                  out[1] = {2, 1};
                                  return size_t{2};
                                }),
               "assign_sorted");
}
#endif

// --- Nesting depth -----------------------------------------------------

// The parser's step budget: every term, pattern node, filter node and
// path expression costs one step, and a query over budget is refused
// with kResourceExhausted.
TEST(LexerTest, ClassTableMatchesTheCharacterRules) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool word = ascii::IsAlnum(c) || c == '_';
    EXPECT_EQ(lexer::IsSpace(c), ascii::IsSpace(c)) << b;
    EXPECT_EQ(lexer::IsNameChar(c),
              word || c == ':' || c == '.' || c == '-' || c == '#')
        << b;
    EXPECT_EQ(lexer::IsWordChar(c), word) << b;
  }
}

TEST_F(SparqlTest, StepBudgetIsResourceExhausted) {
  const ParseLimits tight{.max_parser_steps = 4};
  ASSERT_TRUE(tight.Validate().ok());
  // One triple pattern: three terms and a pattern node fit the budget.
  EXPECT_TRUE(ParseSparql("ASK { ?x a ?y }", &dict_, tight).ok());
  const std::string over =
      "SELECT ?a ?b ?c WHERE { ?a ?b ?c . ?c ?b ?a . ?b ?a ?c }";
  const auto q = ParseSparql(over, &dict_, tight);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), Code::kResourceExhausted)
      << q.status().ToString();
  // The default budget takes it.
  EXPECT_TRUE(ParseSparql(over, &dict_).ok());
  EXPECT_FALSE((ParseLimits{.max_parser_steps = 0}).Validate().ok());
}

constexpr size_t kMaxDepth = kDefaultMaxDepth;

TEST_F(SparqlTest, NestingLadderIsResourceExhaustedBeyondMaxDepth) {
  ASSERT_EQ(kMaxDepth, 256u);
  for (const Nesting& nesting : ladders::SparqlNestings()) {
    for (size_t n = 10; n <= 1000000; n *= 10) {
      const std::string text = nesting.text(n);
      const auto q = ParseSparql(text, &dict_);
      if (nesting.base + nesting.per * n <= kMaxDepth) {
        EXPECT_TRUE(q.ok()) << nesting.name << " n=" << n << ": "
                            << q.status().ToString();
        continue;
      }
      ASSERT_FALSE(q.ok()) << nesting.name << " n=" << n;
      EXPECT_EQ(q.status().code(), Code::kResourceExhausted)
          << nesting.name << " n=" << n << ": " << q.status().ToString();
      if (text.size() <= ParseLimits{}.max_query_bytes) {
        EXPECT_NE(q.status().message().find("nests deeper than"),
                  std::string::npos)
            << nesting.name << " n=" << n << ": " << q.status().ToString();
      }
    }
  }
}

// The planner and executor half of this check is exec_test's
// ExecDepthTest.QueryAtMaxDepthPlansAndExecutesAsTheEvaluator.
TEST_F(SparqlTest, QueryAtMaxDepthParsesClassifiesAndEvaluates) {
  Evaluator eval(store_, &dict_);
  for (const Nesting& nesting : ladders::SparqlNestings()) {
    const size_t n = (kMaxDepth - nesting.base) / nesting.per;
    const auto over = ParseSparql(nesting.text(n + 1), &dict_);
    ASSERT_FALSE(over.ok()) << nesting.name;
    EXPECT_EQ(over.status().code(), Code::kResourceExhausted)
        << nesting.name;

    const auto q = ParseSparql(nesting.text(n), &dict_);
    ASSERT_TRUE(q.ok()) << nesting.name << ": " << q.status().ToString();
    core::Classify(q.value(), core::LogStudyOptions{});
    auto want = eval.EvalQuery(q.value());
    ASSERT_TRUE(want.ok()) << nesting.name << ": "
                           << want.status().ToString();
  }
}

// A `*`/`+` closure is charged as it grows, not once it is built: eight
// nested stars over a ring, where every node reaches every other, would
// take ~40^8 steps to build, and a small budget stops them at once.
TEST(EvalLimitsTest, PathClosureIsChargedAsItGrows) {
  // The path's sweep is charged one step per (term, state) node it
  // visits. From each of the 40 ring terms it visits the start state,
  // then all 40 terms in the one state `p` leads to: 40 * (1 + 40) =
  // 1,640 steps for the 1,600 pairs, so 1,639 must stop it.
  Interner dict;
  graph::TripleStore store;
  constexpr int kRing = 40;
  for (int i = 0; i < kRing; ++i) {
    store.Add(dict.Intern("n" + std::to_string(i)), dict.Intern("p"),
              dict.Intern("n" + std::to_string((i + 1) % kRing)));
  }
  auto q = ParseSparql("SELECT * WHERE { ?x p******** ?y }", &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EvalLimits limits;
  limits.max_steps = kRing * (1 + kRing) - 1;
  const Evaluator eval(store, &dict, limits);
  const auto start = std::chrono::steady_clock::now();
  auto rows = eval.EvalQuery(q.value());
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(rows.status().code(), Code::kResourceExhausted);
  EXPECT_LT(seconds, 5.0);

  limits.max_steps = kRing * (1 + kRing);
  rows = Evaluator(store, &dict, limits).EvalQuery(q.value());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), static_cast<size_t>(kRing * kRing));
}

TEST(EvalLimitsTest, PathSequenceIsChargedEachPairOnce) {
  // a -p-> b -q-> c0..c(n-1): the sweep of `p/q` is charged one step per
  // (term, state) node it visits. It seeds the n + 2 store terms, then
  // reaches b after `p` and the n c's after `q`: 2n + 3 steps for the n
  // pairs, so a budget of 2n + 3 is just enough.
  Interner dict;
  graph::TripleStore store;
  constexpr int kFanOut = 50;
  store.Add(dict.Intern("a"), dict.Intern("p"), dict.Intern("b"));
  for (int i = 0; i < kFanOut; ++i) {
    store.Add(dict.Intern("b"), dict.Intern("q"),
              dict.Intern("c" + std::to_string(i)));
  }
  auto q = ParseSparql("SELECT * WHERE { ?x p/q ?y }", &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EvalLimits limits;
  limits.max_steps = 2 * kFanOut + 3;
  auto rows = Evaluator(store, &dict, limits).EvalQuery(q.value());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().size(), static_cast<size_t>(kFanOut));

  limits.max_steps = 2 * kFanOut + 2;
  rows = Evaluator(store, &dict, limits).EvalQuery(q.value());
  EXPECT_EQ(rows.status().code(), Code::kResourceExhausted);
}

}  // namespace
}  // namespace rwdt::sparql
