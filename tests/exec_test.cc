// Unit tests for rwdt::exec: per-operator semantics against the
// reference evaluator, the property-path automaton against the pair-set
// oracle (path_oracle.h) across path shapes and binding shapes, the
// automaton's size cap and the zero-length rule, GYO join-forest
// construction, and the planner's verdict dispatch (each certified
// fragment picks its strategy, everything else falls back).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/interner.h"
#include "common/max_depth.h"
#include "common/rng.h"
#include "depth_ladders.h"
#include "exec/operators.h"
#include "exec/planner.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "path_oracle.h"
#include "paths/automaton.h"
#include "paths/path.h"
#include "paths/semantics.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace rwdt::exec {
namespace {

using sparql::Binding;

std::vector<Binding> Sorted(std::vector<Binding> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Sorted subjects-union-objects of a store, built the obvious way: the
/// reference for TripleStore::Terms.
std::vector<SymbolId> AllTermsBySet(const graph::TripleStore& store) {
  std::set<SymbolId> terms;
  for (const auto& t : store.triples()) {
    terms.insert(t.s);
    terms.insert(t.o);
  }
  return {terms.begin(), terms.end()};
}

/// The exec-mix benchmark's query shapes, one or more per planner
/// strategy.
constexpr const char* kExecMixShapes[] = {
    "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }",
    "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
    "SELECT ?a ?c WHERE { ?a p0 ?b . ?b p1 ?c FILTER(?a != ?c) }",
    "SELECT * WHERE { ?x p3* ?y . ?y p1 ?z }",
    "SELECT * WHERE { ?x p0/p3* ?y }",
    "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
    "SELECT * WHERE { { ?x p0 ?y } UNION { ?x p2 ?y } }",
};

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    store_ = graph::MakeRdfDataset(80, 3, 3, &dict_, rng);
    // Overlay a denser graph on predicates p0..p5 so hand-written
    // queries join non-trivially.
    for (int i = 0; i < 150; ++i) {
      store_.Add(dict_.Intern("ent:" + std::to_string(rng.NextBelow(30))),
                 dict_.Intern("p" + std::to_string(rng.NextBelow(6))),
                 dict_.Intern("ent:" + std::to_string(rng.NextBelow(30))));
    }
  }

  sparql::Query Parse(const std::string& text) {
    auto q = sparql::ParseSparql(text, &dict_);
    EXPECT_TRUE(q.ok()) << text;
    return q.value();
  }

  /// Plans `text`, checks the chosen strategy, and checks the executor
  /// produces the reference evaluator's bag of solutions.
  void ExpectStrategyAndAgreement(const std::string& text,
                                  Strategy want_strategy) {
    Executor exec(store_, &dict_);
    const sparql::Query q = Parse(text);
    auto plan = exec.MakePlan(q);
    ASSERT_TRUE(plan.ok()) << text;
    EXPECT_EQ(StrategyName(plan.value().strategy),
              std::string(StrategyName(want_strategy)))
        << text << "\nreason: " << plan.value().reason;
    if (want_strategy == Strategy::kFallback) {
      EXPECT_EQ(plan.value().root, nullptr) << text;
    } else {
      EXPECT_NE(plan.value().root, nullptr) << text;
    }
    auto got = exec.Execute(plan.value());
    ASSERT_TRUE(got.ok()) << text;
    sparql::Evaluator eval(store_, &dict_);
    auto want = eval.EvalQuery(q);
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << text;
  }

  /// Plans `text` and returns the plan's JSON, or "" on failure.
  std::string PlanJson(const Executor& exec, const std::string& text) {
    auto plan = exec.MakePlan(Parse(text));
    EXPECT_TRUE(plan.ok()) << text;
    return plan.ok() ? plan.value().ToJson() : "";
  }

  std::vector<SymbolId> AllTerms() const { return AllTermsBySet(store_); }

  Interner dict_;
  graph::TripleStore store_;
};

// --- Planner dispatch ------------------------------------------------

TEST_F(ExecTest, AcyclicCqRunsYannakakis) {
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }",
                             Strategy::kYannakakis);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?a . ?x p1 ?b . ?x p2 ?c }",
      Strategy::kYannakakis);
}

TEST_F(ExecTest, DisjointConjunctionIsAcyclic) {
  // A cartesian product is (trivially) acyclic; Yannakakis handles it.
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?y . ?z p5 ?w }",
                             Strategy::kYannakakis);
}

TEST_F(ExecTest, TriangleRunsHtwJoinOrder) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
      Strategy::kHtwJoinOrder);
}

TEST_F(ExecTest, FilteredCqRunsHtwJoinOrder) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . FILTER (?x != ?z) }",
      Strategy::kHtwJoinOrder);
}

TEST_F(ExecTest, TransitivePathRunsNfaProduct) {
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0+ ?y }",
                             Strategy::kNfaPathProduct);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0* ?y . ?y p1 ?z }",
      Strategy::kNfaPathProduct);
}

TEST_F(ExecTest, WellDesignedOptionalRunsPatternTree) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
      Strategy::kPatternTree);
}

TEST_F(ExecTest, UnionFallsBack) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }",
      Strategy::kFallback);
}

TEST_F(ExecTest, RepeatedVariableTriple) {
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?x }",
                             Strategy::kYannakakis);
}

TEST_F(ExecTest, EmptyMatchStillAgrees) {
  // p59 never occurs in the store; every strategy must produce the
  // empty bag, not crash.
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p59 ?y . ?y p0 ?z }",
                             Strategy::kYannakakis);
}

TEST_F(ExecTest, ExistsFilterKeepsItsScope) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . FILTER EXISTS { ?y p1 ?z } }",
      Strategy::kHtwJoinOrder);
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y . FILTER NOT EXISTS { ?y p1 ?z } }",
      Strategy::kHtwJoinOrder);
}

TEST_F(ExecTest, ModifiersAreSharedWithTheEvaluator) {
  ExpectStrategyAndAgreement(
      "SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x p0 ?y } "
      "GROUP BY ?x ORDER BY ?x LIMIT 5",
      Strategy::kYannakakis);
  // OFFSET/LIMIT without ORDER BY slices an unspecified row order, so it
  // is only compared under a deterministic sort key.
  ExpectStrategyAndAgreement(
      "SELECT DISTINCT ?x WHERE { ?x p0 ?y . ?y p1 ?z } "
      "ORDER BY ?x OFFSET 2 LIMIT 7",
      Strategy::kYannakakis);
}

TEST_F(ExecTest, PlanToJsonNamesStrategyAndFragment) {
  Executor exec(store_, &dict_);
  auto plan = exec.MakePlan(Parse("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }"));
  ASSERT_TRUE(plan.ok());
  const std::string json = plan.value().ToJson();
  EXPECT_NE(json.find("\"strategy\":\"yannakakis\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fragment\":\"cq\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"op\":\"yannakakis\""), std::string::npos) << json;

  auto fb = exec.MakePlan(
      Parse("SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }"));
  ASSERT_TRUE(fb.ok());
  const std::string fb_json = fb.value().ToJson();
  EXPECT_NE(fb_json.find("\"strategy\":\"fallback\""), std::string::npos)
      << fb_json;
  EXPECT_NE(fb_json.find("\"plan\":null"), std::string::npos) << fb_json;
}

TEST_F(ExecTest, PlanToJsonGoldensForExecMixShapes) {
  // Captured before rows became flat slot rows: strategies, reasons and
  // operator trees must not move with the row representation.
  const char* const kGoldens[] = {
      R"json({"strategy":"yannakakis","fragment":"cq","form":"select","htw_le":1,"well_designed":true,"reason":"acyclic conjunctive query: Yannakakis semijoin program","plan":{"op":"yannakakis","relations":["?a p0 ?b","?b p1 ?c","?c p2 ?d"]}})json",
      R"json({"strategy":"htw_join_order","fragment":"cq","form":"select","htw_le":2,"well_designed":true,"reason":"CQ+F with certified htw <= 2: decomposition-guided join order","plan":{"op":"hash_join","join_vars":["?x","?z"],"left":{"op":"triple_scan","pattern":"?z p2 ?x"},"right":{"op":"hash_join","join_vars":["?y"],"left":{"op":"triple_scan","pattern":"?x p0 ?y"},"right":{"op":"triple_scan","pattern":"?y p1 ?z"}}}})json",
      R"json({"strategy":"htw_join_order","fragment":"cq_f","form":"select","htw_le":2,"well_designed":true,"reason":"CQ+F with certified htw <= 2: decomposition-guided join order","plan":{"op":"filter","child":{"op":"yannakakis","relations":["?a p0 ?b","?b p1 ?c"]}}})json",
      R"json({"strategy":"nfa_path_product","fragment":"c2rpq_f","form":"select","htw_le":0,"well_designed":true,"paths":1,"paths_ste":1,"reason":"C2RPQ+F with simple transitive paths: NFA-product reachability","plan":{"op":"hash_join","join_vars":["?y"],"left":{"op":"path_nfa_scan","pattern":"?x (p3)* ?y","nfa_states":4},"right":{"op":"triple_scan","pattern":"?y p1 ?z"}}})json",
      R"json({"strategy":"nfa_path_product","fragment":"c2rpq_f","form":"select","htw_le":0,"well_designed":true,"paths":1,"paths_ste":1,"reason":"C2RPQ+F with simple transitive paths: NFA-product reachability","plan":{"op":"path_nfa_scan","pattern":"?x p0/(p3)* ?y","nfa_states":8}})json",
      R"json({"strategy":"pattern_tree","fragment":"other","form":"select","htw_le":0,"well_designed":true,"reason":"well-designed OPTIONAL: pattern-tree evaluation","plan":{"op":"hash_left_join","join_vars":["?y"],"left":{"op":"triple_scan","pattern":"?x p0 ?y"},"right":{"op":"triple_scan","pattern":"?y p1 ?z"}}})json",
      R"json({"strategy":"fallback","fragment":"other","form":"select","htw_le":0,"well_designed":false,"reason":"no certified fragment applies (other)","plan":null})json",
  };
  static_assert(std::size(kGoldens) == std::size(kExecMixShapes));
  Executor exec(store_, &dict_);
  for (size_t i = 0; i < std::size(kExecMixShapes); ++i) {
    EXPECT_EQ(PlanJson(exec, kExecMixShapes[i]), kGoldens[i])
        << kExecMixShapes[i];
  }
}

TEST_F(ExecTest, PlanningIsSafeFromManyThreads) {
  // Classify and MakePlan may run concurrently on one Executor (Execute
  // may not). Queries are parsed, and the store's indexes built, first:
  // parsing interns into the shared dictionary.
  std::vector<sparql::Query> queries;
  for (const char* text : kExecMixShapes) queries.push_back(Parse(text));
  store_.size();
  Executor exec(store_, &dict_);
  std::vector<std::string> want;
  for (const auto& q : queries) {
    want.push_back(exec.MakePlan(q).value().ToJson());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& q : queries) {
          auto plan = exec.MakePlan(q);
          got[t].push_back(plan.ok() ? plan.value().ToJson() : "error");
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * queries.size());
    for (size_t i = 0; i < got[t].size(); ++i) {
      EXPECT_EQ(got[t][i], want[i % queries.size()]) << "thread " << t;
    }
  }
}

TEST_F(ExecTest, PlansAreMetered) {
  auto* c = obs::MetricRegistry::Global().GetCounter(
      "rwdt_exec_plans_total",
      "Physical plans produced, by planner strategy.",
      {{"strategy", "yannakakis"}});
  const uint64_t before = c->value();
  Executor exec(store_, &dict_);
  ASSERT_TRUE(
      exec.MakePlan(Parse("SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }")).ok());
  EXPECT_EQ(c->value(), before + 1);
}

TEST_F(ExecTest, ResourceLimitsSurfaceAsErrors) {
  ExecOptions options;
  options.limits.max_steps = 1;
  Executor exec(store_, &dict_);
  Executor tiny(store_, &dict_, options);
  // The fallback path inherits the evaluator's budget...
  auto fb = tiny.Run(
      Parse("SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }"));
  ASSERT_FALSE(fb.ok());
  EXPECT_EQ(fb.status().code(), Code::kResourceExhausted);
  // ...and an unconstrained executor over the same store succeeds.
  ASSERT_TRUE(
      exec.Run(Parse("SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }"))
          .ok());
}

// The SPARQL depth ladders at the deepest text the parser accepts (the
// parse and evaluate half is sparql_test's
// SparqlTest.QueryAtMaxDepthParsesClassifiesAndEvaluates): the planner
// and executor take it and agree with the reference evaluator.
TEST(ExecDepthTest, QueryAtMaxDepthPlansAndExecutesAsTheEvaluator) {
  Interner dict;
  graph::TripleStore store;
  const SymbolId knows = dict.Intern("knows");
  store.Add(dict.Intern("alice"), knows, dict.Intern("bob"));
  store.Add(dict.Intern("bob"), knows, dict.Intern("carol"));
  store.Add(dict.Intern("carol"), knows, dict.Intern("dave"));
  Executor exec(store, &dict);
  sparql::Evaluator eval(store, &dict);
  for (const ladders::Nesting& nesting : ladders::SparqlNestings()) {
    const size_t n = (kDefaultMaxDepth - nesting.base) / nesting.per;
    const auto q = sparql::ParseSparql(nesting.text(n), &dict);
    ASSERT_TRUE(q.ok()) << nesting.name << ": " << q.status().ToString();
    const core::QueryVerdict verdict = exec.Classify(q.value());
    auto plan = exec.MakePlan(q.value(), verdict);
    ASSERT_TRUE(plan.ok()) << nesting.name << ": "
                           << plan.status().ToString();
    auto got = exec.Execute(plan.value());
    ASSERT_TRUE(got.ok()) << nesting.name << ": " << got.status().ToString();
    auto want = eval.EvalQuery(q.value());
    ASSERT_TRUE(want.ok()) << nesting.name << ": "
                           << want.status().ToString();
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << nesting.name;
  }
}

// --- Join forest -----------------------------------------------------

TEST_F(ExecTest, JoinForestAcceptsAcyclicShapes) {
  const SymbolId a = 1, b = 2, c = 3, d = 4;
  EXPECT_TRUE(BuildJoinForest({}).ok);
  EXPECT_TRUE(BuildJoinForest({{a, b}}).ok);
  EXPECT_TRUE(BuildJoinForest({{a, b}, {b, c}, {c, d}}).ok);  // chain
  EXPECT_TRUE(BuildJoinForest({{a, b}, {a, c}, {a, d}}).ok);  // star
  EXPECT_TRUE(BuildJoinForest({{a, b}, {c, d}}).ok);  // disjoint
}

TEST_F(ExecTest, JoinForestRejectsCycles) {
  const SymbolId a = 1, b = 2, c = 3, d = 4;
  EXPECT_FALSE(BuildJoinForest({{a, b}, {b, c}, {c, a}}).ok);  // triangle
  EXPECT_FALSE(
      BuildJoinForest({{a, b}, {b, c}, {c, d}, {d, a}}).ok);  // square
}

// --- NFA-product path evaluation ------------------------------------

TEST_F(ExecTest, PathNfaMatchesEvalPathPairs) {
  // One subject and one object that certainly occur in the store.
  const SymbolId some_s = store_.triples().front().s;
  const SymbolId some_o = store_.triples().front().o;
  for (const std::string text :
       {"p0", "^p0", "p0/p1", "p0|p1", "p0*", "p0+", "p0?", "(p0|p1)+",
        "(^p0)*", "!(p0)", "!(p0|^p1)", "p0/p1*", "^p0/p0", "(p0/p1)+",
        "!(^p2)+"}) {
    auto path = paths::ParsePath(text, &dict_);
    ASSERT_TRUE(path.ok()) << text;
    const paths::PathNfa nfa = paths::CompilePathNfa(*path.value()).value();
    const struct {
      SymbolId s, o;
    } shapes[] = {
        {kInvalidSymbol, kInvalidSymbol},
        {some_s, kInvalidSymbol},
        {kInvalidSymbol, some_o},
        {some_s, some_o},
        {some_s, some_s},
    };
    for (const auto& shape : shapes) {
      // Pair order is unspecified on both sides (the oracle's base cases
      // return index order); compare as sorted sets.
      uint64_t steps = 0;
      auto got = paths::EvalPathNfa(store_, nfa, shape.s, shape.o, &steps,
                                    UINT64_MAX)
                     .value();
      auto want = OraclePathPairs(store_, *path.value(), shape.s, shape.o);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << text << " s=" << shape.s << " o=" << shape.o;
    }
  }
}

TEST_F(ExecTest, PathNfaBoundEndpointAboveEveryStoreTermStepsToNothing) {
  // A constant interned after the store was built has an id above every
  // store term, past the end of the per-term successor lists the sweeps
  // would size from the store alone.
  const SymbolId beyond = dict_.Intern("c_beyond");
  ASSERT_GT(beyond, AllTerms().back());
  const SymbolId some_s = store_.triples().front().s;
  const SymbolId some_o = store_.triples().front().o;
  for (const std::string text :
       {"p0", "^p0", "p0*", "p0?", "(^p0)*", "p0/p1*", "!(p0|^p1)"}) {
    auto path = paths::ParsePath(text, &dict_);
    ASSERT_TRUE(path.ok()) << text;
    const paths::PathNfa nfa = paths::CompilePathNfa(*path.value()).value();
    const struct {
      SymbolId s, o;
    } shapes[] = {
        {beyond, kInvalidSymbol},
        {beyond, beyond},
        {beyond, some_o},
        {some_s, beyond},
    };
    for (const auto& shape : shapes) {
      uint64_t steps = 0;
      auto got = paths::EvalPathNfa(store_, nfa, shape.s, shape.o, &steps,
                                    UINT64_MAX)
                     .value();
      auto want = OraclePathPairs(store_, *path.value(), shape.s, shape.o);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << text << " s=" << shape.s << " o=" << shape.o;
    }
  }
}

TEST_F(ExecTest, PathNfaZeroLengthCornerFallsBackInOperator) {
  // `p0?` with the object bound to a constant that is not a term of the
  // store: a nullable path matches a bound endpoint to itself, so the
  // scan and the evaluator both give (o, o), from the same sweep.
  dict_.Intern("c_unseen");
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0? c_unseen }",
                             Strategy::kNfaPathProduct);
}

TEST_F(ExecTest, AbsentConstantMatchesItselfOnlyThroughNullablePaths) {
  // c_unseen is in no triple. A nullable path matches a bound endpoint
  // to itself whether or not the store holds it, so `?x e c`, `c e ?y`
  // and `c ^e ?x` each give exactly (c, c); any other path gives none.
  const SymbolId c = dict_.Intern("c_unseen");
  const std::vector<std::pair<SymbolId, SymbolId>> self = {{c, c}};
  sparql::Evaluator eval(store_, &dict_);
  Executor exec(store_, &dict_);
  const struct {
    const char* text;
    bool nullable;
  } cases[] = {
      {"p0*", true},      {"p0?", true},        {"(p0|^p1)*", true},
      {"p0*/p1?", true},  {"(p0?)+", true},     {"!(p0|^p1)*", true},
      {"p0", false},      {"p0+", false},       {"p0/p1*", false},
      {"^p0", false},     {"!(p0)", false},     {"(p0|p1?)/p2", false},
  };
  for (const auto& [text, nullable] : cases) {
    auto path = paths::ParsePath(text, &dict_);
    ASSERT_TRUE(path.ok()) << text;
    const auto want = nullable ? self : decltype(self){};
    EXPECT_EQ(eval.EvalPathPairs(*path.value(), kInvalidSymbol, c).value(),
              want)
        << "?x " << text << " c";
    EXPECT_EQ(eval.EvalPathPairs(*path.value(), c, kInvalidSymbol).value(),
              want)
        << "c " << text << " ?y";
    EXPECT_EQ(eval.EvalPathPairs(*paths::Path::Inverse(path.value()), c,
                                 kInvalidSymbol)
                  .value(),
              want)
        << "c ^(" << text << ") ?x";
    const std::string t = text;
    for (const std::string& q :
         {"SELECT * WHERE { ?x " + t + " c_unseen }",
          "SELECT * WHERE { c_unseen " + t + " ?x }",
          "SELECT * WHERE { c_unseen ^(" + t + ") ?x }"}) {
      const sparql::Query query = Parse(q);
      auto got = exec.Run(query);
      auto ref = eval.EvalQuery(query);
      ASSERT_TRUE(got.ok() && ref.ok()) << q;
      ASSERT_EQ(got.value().size(), nullable ? 1u : 0u) << q;
      for (const Binding& row : got.value()) {
        ASSERT_EQ(row.size(), 1u) << q;
        EXPECT_EQ(row.begin()->second, c) << q;
      }
      EXPECT_EQ(Sorted(got.value()), Sorted(ref.value())) << q;
    }
  }
}

TEST_F(ExecTest, PathNfaSizeIsCapped) {
  // (w0|...|w(k-1))* copies k^2 + 4k transitions before duplicates are
  // dropped: 65,532 for k = 254, and 66,045 for k = 255, past
  // paths::kMaxNfaTransitions (65,536).
  auto alternation = [](int k) {
    std::string text = "(";
    for (int i = 0; i < k; ++i) text += (i ? "|w" : "w") + std::to_string(i);
    return text + ")*";
  };
  auto fits = paths::ParsePath(alternation(254), &dict_);
  auto over = paths::ParsePath(alternation(255), &dict_);
  ASSERT_TRUE(fits.ok() && over.ok());
  EXPECT_TRUE(paths::CompilePathNfa(*fits.value()).ok());
  const auto refused = paths::CompilePathNfa(*over.value());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Code::kResourceExhausted);

  // The planner falls back with the refusal as its reason, and the
  // evaluator the fallback runs returns it.
  Executor exec(store_, &dict_);
  auto plan = exec.MakePlan(
      Parse("SELECT * WHERE { ?x " + alternation(255) + " ?y }"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, Strategy::kFallback);
  EXPECT_EQ(plan.value().reason,
            "planner fallback: " + refused.status().message());
  EXPECT_EQ(exec.Execute(plan.value()).status().code(),
            Code::kResourceExhausted);
  sparql::Evaluator eval(store_, &dict_);
  EXPECT_EQ(eval.EvalPathPairs(*over.value()).status().code(),
            Code::kResourceExhausted);
  EXPECT_FALSE(paths::MatchPath(store_, *over.value(), dict_.Intern("ent:0"),
                                dict_.Intern("ent:1"),
                                paths::PathSemantics::kWalk)
                   .decided);

  auto fitting_plan = exec.MakePlan(
      Parse("SELECT * WHERE { ?x " + alternation(254) + " ?y }"));
  ASSERT_TRUE(fitting_plan.ok());
  EXPECT_EQ(fitting_plan.value().strategy, Strategy::kNfaPathProduct)
      << fitting_plan.value().reason;
}

// --- Operator units --------------------------------------------------

TEST_F(ExecTest, DrainIsRepeatable) {
  // Every Fill recomputes its output, although the joins keep their
  // build and probe buffers between calls: Drain twice, same bag, for
  // each strategy that runs an operator tree.
  const char* const kTriangle[][3] = {{"ent:t0", "p0", "ent:t1"},
                                      {"ent:t1", "p1", "ent:t2"},
                                      {"ent:t2", "p2", "ent:t0"}};
  for (const auto& [s, p, o] : kTriangle) {
    store_.Add(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
  }
  Executor exec(store_, &dict_);
  // yannakakis; htw_join_order twice (the triangle and the filtered
  // chain); nfa_path_product; pattern_tree.
  for (const char* text : {
           "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z }",
           "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
           "SELECT ?a ?c WHERE { ?a p0 ?b . ?b p1 ?c FILTER(?a != ?c) }",
           "SELECT * WHERE { ?x p3* ?y . ?y p1 ?z }",
           "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
       }) {
    auto plan = exec.MakePlan(Parse(text));
    ASSERT_TRUE(plan.ok()) << text;
    ASSERT_NE(plan.value().root, nullptr) << text;
    auto once = plan.value().root->Drain();
    auto twice = plan.value().root->Drain();
    ASSERT_TRUE(once.ok() && twice.ok()) << text;
    EXPECT_FALSE(once.value().empty()) << "vacuous: " << text;
    EXPECT_EQ(Sorted(once.value()), Sorted(twice.value())) << text;
  }
}

TEST_F(ExecTest, RowBufferAppendsUnboundRowsOverKeptCapacity) {
  // Truncate and Clear keep the storage, which still holds the old ids;
  // a row appended over them reads all-unbound all the same.
  const std::vector<SymbolId> unbound(3, kInvalidSymbol);
  auto ids = [](const SymbolId* row) {
    return std::vector<SymbolId>(row, row + 3);
  };
  RowBuffer rows(3);
  for (SymbolId v = 10; v < 14; ++v) std::fill_n(rows.Append(), 3, v);
  rows.Truncate(2);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(ids(rows.Append()), unbound);
  EXPECT_EQ(ids(rows[1]), std::vector<SymbolId>(3, 11));
  rows.Clear();
  EXPECT_TRUE(rows.empty());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ids(rows.Append()), unbound) << i;
}

TEST_F(ExecTest, MergeRowsPrefersAgreedValues) {
  // Slots 0, 1, 2 hold variables 1, 2, 3: {1:10, 2:20} merged with
  // {2:20, 3:30}.
  const SymbolId a[] = {10, 20, kInvalidSymbol};
  const SymbolId b[] = {kInvalidSymbol, 20, 30};
  ASSERT_TRUE(CompatibleRows(a, b, 3));
  SymbolId m[3] = {};
  MergeRows(a, b, 3, m);
  EXPECT_EQ(std::vector<SymbolId>(m, m + 3),
            (std::vector<SymbolId>{10, 20, 30}));
  Binding mu;
  SlotLayout({1, 2, 3}).ToBinding(m, &mu);
  EXPECT_EQ(mu, (Binding{{1, 10}, {2, 20}, {3, 30}}));
}

// --- JoinIndex -------------------------------------------------------

/// A buffer of `width`-id rows, one per initializer.
RowBuffer Rows(size_t width,
               std::initializer_list<std::vector<SymbolId>> rows) {
  RowBuffer out(width);
  for (const auto& row : rows) std::copy(row.begin(), row.end(), out.Append());
  return out;
}

/// The rows of `build` whose key on `slots` equals `probe`'s, in input
/// order, by a scan of every row: the reference for JoinIndex.
std::vector<uint32_t> NaiveMatches(const RowBuffer& build,
                                   const std::vector<uint32_t>& slots,
                                   const SymbolId* probe) {
  std::vector<uint32_t> rows;
  for (size_t i = 0; i < build.size(); ++i) {
    if (std::all_of(slots.begin(), slots.end(), [&](uint32_t slot) {
          return probe[slot] != kInvalidSymbol && build[i][slot] == probe[slot];
        })) {
      rows.push_back(static_cast<uint32_t>(i));
    }
  }
  return rows;
}

/// Builds `index` over `build` on `slots`, checks the form it picked,
/// and checks ForEachMatch and Contains against NaiveMatches for every
/// row of `probes`.
void ExpectIndexMatchesScan(JoinIndex* index, const RowBuffer& build,
                            const std::vector<uint32_t>& slots, bool dense,
                            const RowBuffer& probes) {
  ASSERT_TRUE(index->Build(build, slots).ok());
  EXPECT_EQ(index->dense(), dense);
  for (size_t i = 0; i < probes.size(); ++i) {
    std::vector<uint32_t> got;
    index->ForEachMatch(probes[i], [&](uint32_t row) { got.push_back(row); });
    const std::vector<uint32_t> want = NaiveMatches(build, slots, probes[i]);
    EXPECT_EQ(got, want) << "probe " << i;
    EXPECT_EQ(index->Contains(probes[i]), !want.empty()) << "probe " << i;
  }
}

TEST_F(ExecTest, JoinIndexMatchesAScanInBothForms) {
  constexpr SymbolId kU = kInvalidSymbol;
  constexpr SymbolId kTop = kInvalidSymbol - 1;  // the greatest id
  // One index object throughout, so each Build also replaces the other
  // form's state.
  JoinIndex index;
  // Keys 100..107 on slot 0: 8 ids over 7 rows, whose hashed form would
  // have 8 buckets, so the index is dense. 100 and 103 repeat; 102,
  // 104..106 are holes in the range.
  const RowBuffer dense_ids = Rows(2, {{103, 0}, {100, 2}, {107, 3}, {103, 4},
                                       {101, 5}, {100, 6}, {103, 7}});
  // Both ends, duplicates, a hole, below, above, far above, unbound.
  const RowBuffer one_slot_probes =
      Rows(2, {{100, 0}, {107, 0}, {103, 0}, {101, 9}, {102, 0}, {99, 0},
               {108, 0}, {0, 0}, {kTop, 0}, {kU, 0}, {5, 0}, {1000, 0},
               {70000, 0}});
  ExpectIndexMatchesScan(&index, dense_ids, {0}, /*dense=*/true,
                         one_slot_probes);
  // The same rows keyed on slot 1, ids 0 and 2..7: the range starts at
  // the least id.
  ExpectIndexMatchesScan(&index, dense_ids, {1}, /*dense=*/true,
                         Rows(2, {{0, 0}, {0, 1}, {0, 7}, {0, 8}, {0, kU}}));
  // Ids spread over more values than the 8 buckets, kTop among them: the
  // hashed form, buckets shared by different keys.
  const RowBuffer spread_ids =
      Rows(2, {{1000, 1}, {5, 2}, {70000, 3}, {5, 4}, {kTop, 5}, {1000, 6},
               {5, 7}});
  ExpectIndexMatchesScan(&index, spread_ids, {0}, /*dense=*/false,
                         one_slot_probes);
  // The rule at its edge: 4 rows have 4 buckets, so ids 10..13 are dense
  // and 10..14 are not.
  ExpectIndexMatchesScan(&index, Rows(1, {{13}, {10}, {13}, {11}}), {0},
                         /*dense=*/true,
                         Rows(1, {{9}, {10}, {11}, {12}, {13}, {14}, {kU}}));
  ExpectIndexMatchesScan(&index, Rows(1, {{14}, {10}, {14}, {11}}), {0},
                         /*dense=*/false,
                         Rows(1, {{9}, {10}, {11}, {13}, {14}, {15}, {kU}}));
  // A two-slot key is hashed however dense its ids: slots 0 and 2, with
  // (1, 2) three times and probes that leave one key slot unbound.
  const RowBuffer pairs = Rows(3, {{1, 9, 2}, {2, 9, 1}, {1, 8, 2}, {1, 9, 3},
                                   {2, 7, 2}, {1, 6, 2}});
  ExpectIndexMatchesScan(
      &index, pairs, {0, 2}, /*dense=*/false,
      Rows(3, {{1, 0, 2}, {2, 0, 1}, {1, 0, 3}, {2, 0, 2}, {3, 0, 3},
               {1, 0, kU}, {kU, 0, 2}, {kU, 0, kU}}));
  // An empty build side, in both forms, matches nothing.
  ExpectIndexMatchesScan(&index, RowBuffer(3), {0}, /*dense=*/true,
                         Rows(3, {{0, 0, 0}, {1, 0, 2}, {kU, 0, kU}}));
  ExpectIndexMatchesScan(&index, RowBuffer(3), {0, 2}, /*dense=*/false,
                         Rows(3, {{0, 0, 0}, {1, 0, 2}, {kU, 0, kU}}));
  // A build row that leaves a key slot unbound is a planner bug.
  EXPECT_EQ(index.Build(Rows(2, {{1, 2}, {kU, 3}}), {0}).code(),
            Code::kInternal);
  EXPECT_EQ(index.Build(Rows(2, {{1, 2}, {3, kU}}), {0, 1}).code(),
            Code::kInternal);
}

TEST_F(ExecTest, JoinIndexMatchesAScanOnRandomRows) {
  // Random build sides, keyed on one slot over ranges narrower and wider
  // than their bucket counts or on two slots, each probed with every
  // id of the key range and around it, and with unbound slots.
  Rng rng(17);
  JoinIndex index;
  size_t dense = 0, hashed = 0;
  for (int round = 0; round < 300; ++round) {
    const size_t n = rng.NextBelow(40);
    const SymbolId base = static_cast<SymbolId>(1 + rng.NextBelow(1000));
    const SymbolId range = static_cast<SymbolId>(1 + rng.NextBelow(80));
    const std::vector<uint32_t> slots =
        rng.NextBool(0.3) ? std::vector<uint32_t>{2, 0}
                          : std::vector<uint32_t>{1};
    RowBuffer build(3);
    for (size_t i = 0; i < n; ++i) {
      SymbolId* row = build.Append();
      for (size_t s = 0; s < 3; ++s) {
        row[s] = base + static_cast<SymbolId>(rng.NextBelow(range));
      }
    }
    RowBuffer probes(3);
    for (SymbolId v = base - 1; v <= base + range; ++v) {
      SymbolId* row = probes.Append();
      for (size_t s = 0; s < 3; ++s) {
        row[s] = rng.NextBool(0.1)
                     ? kInvalidSymbol
                     : (s == slots[0] ? v
                                      : base + static_cast<SymbolId>(
                                                   rng.NextBelow(range)));
      }
    }
    // The selection rule: one slot, and its ids from the least to the
    // greatest no more than the hashed form's buckets.
    size_t buckets = 1;
    while (buckets < n) buckets <<= 1;
    SymbolId lo = kInvalidSymbol, hi = 0;
    for (size_t i = 0; i < n; ++i) {
      lo = std::min(lo, build[i][slots[0]]);
      hi = std::max(hi, build[i][slots[0]]);
    }
    const bool want_dense =
        slots.size() == 1 && (n == 0 || hi - lo + 1 <= buckets);
    (want_dense ? dense : hashed) += 1;
    ExpectIndexMatchesScan(&index, build, slots, want_dense, probes);
  }
  EXPECT_GT(dense, 50u);
  EXPECT_GT(hashed, 50u);
}

TEST_F(ExecTest, TermsMatchesSetConstruction) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    graph::TripleStore store;
    const uint64_t terms = 1 + rng.NextBelow(40);
    const uint64_t triples = rng.NextBelow(120);  // 0 included: empty store
    for (uint64_t i = 0; i < triples; ++i) {
      store.Add(static_cast<SymbolId>(rng.NextBelow(terms)),
                static_cast<SymbolId>(rng.NextBelow(5)),
                static_cast<SymbolId>(rng.NextBelow(terms)));
    }
    EXPECT_EQ(store.Terms(), AllTermsBySet(store)) << "seed " << seed;
    // Two terms no triple had: the list built with the indexes has to be
    // built again.
    store.Add(static_cast<SymbolId>(terms), 0,
              static_cast<SymbolId>(terms + 1));
    EXPECT_EQ(store.Terms(), AllTermsBySet(store)) << "seed " << seed;
  }
  EXPECT_EQ(store_.Terms(), AllTerms());
}

// --- What flat rows can get wrong ------------------------------------

TEST_F(ExecTest, UnboundOptionalVariableReadByFilterAndNestedLoopJoin) {
  // No certified strategy lets an operator read a variable an OPTIONAL
  // may leave unbound (such a query is not well designed, so it falls
  // back), so the trees are built by hand: `?x p0 ?y OPTIONAL { ?y p1 ?z }`
  // as a hash left join, then read by FILTER(!bound(?z)) and joined on
  // ?z by the nested-loop join, inner and outer.
  const std::string optional = "?x p0 ?y OPTIONAL { ?y p1 ?z }";
  auto triple = [&](const std::string& text) {
    const sparql::Query q = Parse("SELECT * WHERE { " + text + " }");
    return q.node(q.pattern).triple;
  };
  const sparql::TriplePattern xy = triple("?x p0 ?y");
  const sparql::TriplePattern yz = triple("?y p1 ?z");
  const sparql::TriplePattern zw = triple("?z p2 ?w");
  const auto layout = std::make_shared<const SlotLayout>(
      std::set<SymbolId>{xy.s.id, xy.o.id, yz.o.id, zw.o.id});
  auto make_optional = [&]() -> OperatorPtr {
    return std::make_unique<HashJoinOp>(
        layout, std::make_unique<TripleScanOp>(layout, store_, dict_, xy),
        std::make_unique<TripleScanOp>(layout, store_, dict_, yz),
        std::vector<SymbolId>{xy.o.id}, dict_, /*left_outer=*/true);
  };
  sparql::Evaluator eval(store_, &dict_);
  auto expect_agreement = [&](Operator* op, const std::string& text) {
    auto got = op->Drain();
    ASSERT_TRUE(got.ok()) << text;
    auto want = eval.EvalQuery(Parse(text));
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_FALSE(want.value().empty()) << "vacuous: " << text;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << text;
  };

  const std::string filtered_text =
      "SELECT * WHERE { " + optional + " FILTER(!bound(?z)) }";
  const sparql::Query filtered = Parse(filtered_text);
  const sparql::Pattern& root = filtered.node(filtered.pattern);
  ASSERT_EQ(root.op, sparql::Pattern::Op::kFilter);
  FilterOp filter(layout, make_optional(), filtered,
                  filtered.filter(root.filter), eval);
  expect_agreement(&filter, filtered_text);

  NestedLoopJoinOp join(
      layout, make_optional(),
      std::make_unique<TripleScanOp>(layout, store_, dict_, zw));
  expect_agreement(&join, "SELECT * WHERE { { " + optional + " } ?z p2 ?w }");
  NestedLoopJoinOp left_join(
      layout, make_optional(),
      std::make_unique<TripleScanOp>(layout, store_, dict_, zw),
      /*left_outer=*/true);
  expect_agreement(&left_join, "SELECT * WHERE { { " + optional +
                                   " } OPTIONAL { ?z p2 ?w } }");
}

TEST_F(ExecTest, RepeatedVariableWithinAndAcrossTriples) {
  // Self-loops on p0 so `?x p0 ?x` has matches to join.
  for (const char* e : {"ent:1", "ent:2", "ent:3", "ent:4"}) {
    store_.Add(dict_.Intern(e), dict_.Intern("p0"), dict_.Intern(e));
  }
  ExpectStrategyAndAgreement("SELECT * WHERE { ?x p0 ?x . ?x p1 ?y }",
                             Strategy::kYannakakis);
  // The nested FILTER block keeps the conjunction from being all
  // triples, so the same join runs as a hash join.
  const std::string hash_text =
      "SELECT * WHERE { ?x p0 ?x . { ?x p1 ?y FILTER(bound(?y)) } }";
  Executor exec(store_, &dict_);
  EXPECT_NE(PlanJson(exec, hash_text).find("\"op\":\"hash_join\""),
            std::string::npos);
  ExpectStrategyAndAgreement(hash_text, Strategy::kHtwJoinOrder);
  sparql::Evaluator eval(store_, &dict_);
  auto want = eval.EvalQuery(Parse(hash_text));
  ASSERT_TRUE(want.ok());
  EXPECT_FALSE(want.value().empty());
}

TEST_F(ExecTest, RepeatsAndBoundEndpointsOnAnExecMixShapedStore) {
  // The exec-mix benchmark's store, small: p0..p2 in random layers of
  // out-degree 2, p3 in disjoint chains of 12. Self-loops on p0, and
  // triples whose subject is their predicate, give `?x p0 ?x` and
  // `?x ?x ?y` matches. The scans skip what breaks a repeated variable
  // before they append a row; the evaluator is the reference.
  Interner dict;
  graph::TripleStore store;
  Rng rng(11);
  constexpr uint64_t kNodes = 60;
  auto node = [&](uint64_t i) {
    std::string name = "n";
    name += std::to_string(i);
    return dict.Intern(name);
  };
  for (const char* p : {"p0", "p1", "p2"}) {
    for (uint64_t i = 0; i < kNodes; ++i) {
      for (int e = 0; e < 2; ++e) {
        store.Add(node(i), dict.Intern(p), node(rng.NextBelow(kNodes)));
      }
    }
  }
  for (uint64_t i = 0; i + 1 < kNodes; ++i) {
    if ((i + 1) % 12 != 0) store.Add(node(i), dict.Intern("p3"), node(i + 1));
  }
  for (uint64_t i : {3, 17, 40}) store.Add(node(i), dict.Intern("p0"), node(i));
  store.Add(dict.Intern("p1"), dict.Intern("p1"), node(5));
  store.Add(dict.Intern("p2"), dict.Intern("p2"), node(6));

  Executor exec(store, &dict);
  sparql::Evaluator eval(store, &dict);
  for (const char* text : {
           "SELECT * WHERE { ?x p3* ?x }",
           "SELECT * WHERE { ?x p0/p3* n14 }",
           "SELECT * WHERE { n13 p3* ?y }",
           "SELECT * WHERE { ?x ?x ?y }",
           "SELECT * WHERE { ?x p0 ?x }",
       }) {
    auto q = sparql::ParseSparql(text, &dict);
    ASSERT_TRUE(q.ok()) << text;
    auto got = exec.Run(q.value());
    ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
    auto want = eval.EvalQuery(q.value());
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_FALSE(want.value().empty()) << text;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value())) << text;
  }
}

TEST_F(ExecTest, AcyclicChainOfMoreThan64Variables) {
  // 64 chained patterns, 65 variables, over a store holding one chain of
  // 64 edges plus shorter ones: exactly one row.
  Interner dict;
  graph::TripleStore store;
  const SymbolId next = dict.Intern("next");
  auto node = [&](int chain, int i) {
    return dict.Intern("c" + std::to_string(chain) + "_" + std::to_string(i));
  };
  for (int chain = 0; chain < 3; ++chain) {
    const int edges = chain == 0 ? 64 : 40 + chain;
    for (int i = 0; i < edges; ++i) {
      store.Add(node(chain, i), next, node(chain, i + 1));
    }
  }
  std::string text = "SELECT * WHERE {";
  for (int i = 0; i < 64; ++i) {
    text += " ?v" + std::to_string(i) + " next ?v" + std::to_string(i + 1) +
            " .";
  }
  text += " }";
  auto q = sparql::ParseSparql(text, &dict);
  ASSERT_TRUE(q.ok());
  Executor exec(store, &dict);
  auto plan = exec.MakePlan(q.value());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().strategy, Strategy::kYannakakis)
      << plan.value().reason;
  auto got = exec.Execute(plan.value());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 1u);
  EXPECT_EQ(got.value()[0].size(), 65u);
  sparql::Evaluator eval(store, &dict);
  auto want = eval.EvalQuery(q.value());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value(), want.value());
}

// --- Row kernels against the evaluator --------------------------------

/// Plans and runs `text` over `store`, checks the strategy and the
/// reference evaluator's bag, and returns the rows.
std::vector<Binding> RunAgainstEvaluator(const graph::TripleStore& store,
                                         Interner* dict,
                                         const std::string& text,
                                         Strategy want) {
  auto q = sparql::ParseSparql(text, dict);
  EXPECT_TRUE(q.ok()) << text;
  if (!q.ok()) return {};
  Executor exec(store, dict);
  auto plan = exec.MakePlan(q.value());
  EXPECT_TRUE(plan.ok()) << text;
  if (!plan.ok()) return {};
  EXPECT_EQ(plan.value().strategy, want)
      << text << "\nreason: " << plan.value().reason;
  auto got = exec.Execute(plan.value());
  EXPECT_TRUE(got.ok()) << text;
  sparql::Evaluator eval(store, dict);
  auto want_rows = eval.EvalQuery(q.value());
  EXPECT_TRUE(want_rows.ok()) << text;
  if (!got.ok() || !want_rows.ok()) return {};
  EXPECT_EQ(Sorted(got.value()), Sorted(want_rows.value())) << text;
  return got.value();
}

TEST_F(ExecTest, RowsWiderThanTheUnrolledWidths) {
  // Six nodes, each with `e` edges one and two steps on around a ring:
  // a 9-edge chain has 10 variables and 6 * 2^9 rows; a 9-edge cycle has
  // 9 variables, and a closed walk takes three or nine 2-steps, so
  // C(9, 3) + 1 = 85 rows from each node.
  static_assert(kUnrolledWidth < 9);
  Interner dict;
  graph::TripleStore store;
  const SymbolId e = dict.Intern("e");
  auto node = [&](int i) { return dict.Intern("r" + std::to_string(i % 6)); };
  for (int i = 0; i < 6; ++i) {
    store.Add(node(i), e, node(i + 1));
    store.Add(node(i), e, node(i + 2));
  }
  std::string chain = "SELECT * WHERE {";
  std::string cycle = "SELECT * WHERE {";
  for (int i = 0; i < 9; ++i) {
    chain += " ?v" + std::to_string(i) + " e ?v" + std::to_string(i + 1) + " .";
    cycle += " ?v" + std::to_string(i) + " e ?v" + std::to_string((i + 1) % 9) +
             " .";
  }
  chain += " }";
  cycle += " }";
  const auto chain_rows =
      RunAgainstEvaluator(store, &dict, chain, Strategy::kYannakakis);
  ASSERT_EQ(chain_rows.size(), 6u * 512u);
  EXPECT_EQ(chain_rows[0].size(), 10u);
  const auto cycle_rows =
      RunAgainstEvaluator(store, &dict, cycle, Strategy::kHtwJoinOrder);
  ASSERT_EQ(cycle_rows.size(), 6u * 85u);
  EXPECT_EQ(cycle_rows[0].size(), 9u);
}

TEST_F(ExecTest, TwoKeyJoinsMatchTheEvaluator) {
  // Pairs on both p0 and p1, so keys on (?x, ?y) have matches; the
  // nested group keeps the conjunction from being all triples, so the
  // join is a two-key hash join rather than Yannakakis.
  for (int i = 0; i < 6; ++i) {
    const SymbolId x = dict_.Intern("ent:" + std::to_string(i));
    const SymbolId y = dict_.Intern("ent:" + std::to_string(i + 3));
    store_.Add(x, dict_.Intern("p0"), y);
    store_.Add(x, dict_.Intern("p1"), y);
  }
  const std::string hash_text =
      "SELECT * WHERE { ?x p0 ?y . { ?x p1 ?y FILTER(?x != ?y) } }";
  Executor exec(store_, &dict_);
  const std::string json = PlanJson(exec, hash_text);
  EXPECT_NE(json.find(R"("op":"hash_join","join_vars":["?x","?y"])"),
            std::string::npos)
      << json;
  EXPECT_FALSE(RunAgainstEvaluator(store_, &dict_, hash_text,
                                   Strategy::kHtwJoinOrder)
                   .empty());
  // The same keys through Yannakakis' semijoins and joins.
  EXPECT_FALSE(RunAgainstEvaluator(store_, &dict_,
                                   "SELECT * WHERE { ?x p0 ?y . ?x p1 ?y . "
                                   "?y p2 ?z }",
                                   Strategy::kYannakakis)
                   .empty());
}

TEST_F(ExecTest, YannakakisDropsADanglingTupleAtEveryNode) {
  // Forest: r0(a, b) with children r1(b, c) and r2(b, d), and r3(c, e)
  // below r1. Each relation holds one tuple of the answer and one that
  // joins nothing on some edge, so the leaf-to-root pass must remove
  // dangling tuples at every level, and the root-first join must extend
  // every row it keeps.
  Interner dict;
  graph::TripleStore store;
  auto add = [&](const char* s, const char* p, const char* o) {
    store.Add(dict.Intern(s), dict.Intern(p), dict.Intern(o));
  };
  add("a1", "r0", "b1");  // the answer
  add("a2", "r0", "b2");  // b2: no r1 and no r2
  add("a3", "r0", "b3");  // b3: an r1 whose c has no r3, and no r2
  add("b1", "r1", "c1");  // the answer
  add("b1", "r1", "c2");  // c2: no r3
  add("b3", "r1", "c3");
  add("b9", "r1", "c1");  // b9: no r0
  add("b1", "r2", "d1");  // the answer
  add("b8", "r2", "d8");  // b8: no r0
  add("c1", "r3", "e1");  // the answer
  add("c7", "r3", "e7");  // c7: no r1
  const auto rows = RunAgainstEvaluator(
      store, &dict,
      "SELECT * WHERE { ?a r0 ?b . ?b r1 ?c . ?b r2 ?d . ?c r3 ?e }",
      Strategy::kYannakakis);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 5u);
  EXPECT_EQ(rows[0].find(dict.Intern("?e"))->second, dict.Intern("e1"));
}

TEST_F(ExecTest, LeftJoinLeavesBuildOnlySlotsUnbound) {
  // The OPTIONAL block binds ?z and ?w, which only the build side of the
  // hash left join binds: a probe row without a match keeps both
  // unbound, a matched one takes both from the build row.
  const auto rows = RunAgainstEvaluator(
      store_, &dict_,
      "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z . ?z p2 ?w } }",
      Strategy::kPatternTree);
  const SymbolId z = dict_.Intern("?z");
  const SymbolId w = dict_.Intern("?w");
  size_t unmatched = 0, matched = 0;
  for (const Binding& row : rows) {
    EXPECT_EQ(row.count(z), row.count(w));
    (row.count(z) > 0 ? matched : unmatched) += 1;
  }
  EXPECT_GT(unmatched, 0u);
  EXPECT_GT(matched, 0u);
}

TEST_F(ExecTest, HashJoinMergesASharedNonKeySlotAsMergeRowsDoes) {
  // Built by hand: no planned tree joins on fewer slots than both sides
  // may bind. The left side leaves ?y unbound where its OPTIONAL fails,
  // the right side always binds it, and the join keys on ?x alone: each
  // match is MergeRows of the probe and build rows, as a brute-force
  // pairing computes.
  auto triple = [&](const std::string& text) {
    const sparql::Query q = Parse("SELECT * WHERE { " + text + " }");
    return q.node(q.pattern).triple;
  };
  const sparql::TriplePattern xw = triple("?x p0 ?w");
  const sparql::TriplePattern wy = triple("?w p1 ?y");
  const sparql::TriplePattern xy = triple("?x p2 ?y");
  const auto layout = std::make_shared<const SlotLayout>(
      std::set<SymbolId>{xw.s.id, xw.o.id, wy.o.id});
  auto left = [&]() -> OperatorPtr {
    return std::make_unique<HashJoinOp>(
        layout, std::make_unique<TripleScanOp>(layout, store_, dict_, xw),
        std::make_unique<TripleScanOp>(layout, store_, dict_, wy),
        std::vector<SymbolId>{xw.o.id}, dict_, /*left_outer=*/true);
  };
  HashJoinOp join(layout, left(),
                  std::make_unique<TripleScanOp>(layout, store_, dict_, xy),
                  std::vector<SymbolId>{xw.s.id}, dict_);
  EXPECT_EQ(join.slots(), (std::vector<uint32_t>{0, 1, 2}));
  RowBuffer got(layout->width());
  ASSERT_TRUE(join.Fill(&got).ok());

  RowBuffer probe(layout->width()), build(layout->width());
  ASSERT_TRUE(left()->Fill(&probe).ok());
  ASSERT_TRUE(
      TripleScanOp(layout, store_, dict_, xy).Fill(&build).ok());
  const uint32_t x_slot = layout->SlotOf(xw.s.id);
  std::vector<std::vector<SymbolId>> want, have;
  bool some_probe_unbound = false;
  for (size_t i = 0; i < probe.size(); ++i) {
    some_probe_unbound |= probe[i][layout->SlotOf(wy.o.id)] == kInvalidSymbol;
    for (size_t j = 0; j < build.size(); ++j) {
      if (probe[i][x_slot] != build[j][x_slot]) continue;
      std::vector<SymbolId> merged(layout->width());
      MergeRows(probe[i], build[j], layout->width(), merged.data());
      want.push_back(merged);
    }
  }
  for (size_t i = 0; i < got.size(); ++i) {
    have.emplace_back(got[i], got[i] + layout->width());
  }
  EXPECT_TRUE(some_probe_unbound);
  EXPECT_FALSE(want.empty());
  std::sort(want.begin(), want.end());
  std::sort(have.begin(), have.end());
  EXPECT_EQ(have, want);
}

TEST_F(ExecTest, NestedOptionalStaysExact) {
  ExpectStrategyAndAgreement(
      "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z OPTIONAL "
      "{ ?z p2 ?w } } }",
      Strategy::kPatternTree);
}

TEST_F(ExecTest, OptionalWithPathLeaf) {
  // OPTIONAL whose inner block is a path: planner must still produce the
  // evaluator's bag (nested-loop left join when hash keys are unsafe).
  Executor exec(store_, &dict_);
  const sparql::Query q =
      Parse("SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1+ ?z } }");
  auto got = exec.Run(q);
  ASSERT_TRUE(got.ok());
  sparql::Evaluator eval(store_, &dict_);
  auto want = eval.EvalQuery(q);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(Sorted(got.value()), Sorted(want.value()));
}

}  // namespace
}  // namespace rwdt::exec
