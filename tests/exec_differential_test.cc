// Differential property test for rwdt::exec: over random RDF graphs and
// random generated SPARQL queries, the classifier-dispatched executor
// produces exactly the reference evaluator's bag of solutions. This is
// the repo's strongest guarantee that the "fast path picked by the
// verdict" can never change query semantics; it runs in the TSan CI set.
// A second case runs hand-written chains, stars and cycles over a dense
// random store, so that on every seed the joins themselves (Yannakakis
// and hash joins) produce nonempty bags whose every column is compared;
// it runs each seed again with the entity ids spread far apart, so the
// joins' indexes meet the evaluator in both their forms.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "exec/planner.h"
#include "graph/generators.h"
#include "loggen/sparql_gen.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace rwdt::exec {
namespace {

using sparql::Binding;

std::vector<Binding> Sorted(std::vector<Binding> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class ExecDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    store_ = graph::MakeRdfDataset(100, 3, 3, &dict_, rng);
    // The generator draws predicates from p0..p59; overlay a graph on a
    // low-index slice of them so generated scans are non-vacuous.
    for (int i = 0; i < 180; ++i) {
      store_.Add(dict_.Intern("ent:" + std::to_string(rng.NextBelow(35))),
                 dict_.Intern("p" + std::to_string(rng.NextBelow(8))),
                 dict_.Intern("ent:" + std::to_string(rng.NextBelow(35))));
    }
  }

  Interner dict_;
  graph::TripleStore store_;
};

TEST_P(ExecDifferentialTest, ExecutorAgreesWithEvaluatorOnGeneratedLogs) {
  loggen::SourceProfile profile = loggen::ExampleProfile(400);
  profile.invalid_rate = 0;
  // Bound query sizes so evaluation over the dense test store stays
  // small (this test also runs under TSan), and boost the features the
  // executor specializes: property paths and OPTIONAL.
  profile.triple_count_weights = {5, 40, 25, 15, 10, 3, 2, 0, 0, 0, 0, 0};
  profile.p_path = 0.15;
  profile.p_optional = 0.45;

  Executor exec(store_, &dict_);
  sparql::Evaluator eval(store_, &dict_);
  size_t compared = 0, fast_path = 0, nonempty = 0;
  for (const auto& entry : loggen::GenerateLog(profile, GetParam())) {
    auto parsed = sparql::ParseSparql(entry.text, &dict_);
    ASSERT_TRUE(parsed.ok()) << entry.text;
    sparql::Query q = std::move(parsed.value());
    // LIMIT/OFFSET without a total ORDER BY slices an unspecified row
    // order; drop them so bag equality is well-defined. Everything else
    // in the modifier pipeline is order-insensitive up to multiset.
    q.modifiers.limit.reset();
    q.modifiers.offset.reset();

    auto plan = exec.MakePlan(q);
    ASSERT_TRUE(plan.ok()) << entry.text;
    auto got = exec.Execute(plan.value());
    auto want = eval.EvalQuery(q);
    ASSERT_EQ(got.ok(), want.ok())
        << entry.text << "\nstrategy: "
        << StrategyName(plan.value().strategy) << "\ngot: "
        << (got.ok() ? "ok" : got.status().ToString()) << "\nwant: "
        << (want.ok() ? "ok" : want.status().ToString());
    if (!got.ok()) continue;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value()))
        << entry.text
        << "\nstrategy: " << StrategyName(plan.value().strategy)
        << "\nreason: " << plan.value().reason;
    ++compared;
    if (plan.value().strategy != Strategy::kFallback) ++fast_path;
    if (!got.value().empty()) ++nonempty;
  }
  // Non-vacuity: the sweep must actually exercise the fast paths and
  // produce solutions, not just compare empty bags of fallback plans.
  EXPECT_GT(compared, 100u);
  EXPECT_GT(fast_path, 20u);
  EXPECT_GT(nonempty, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecDifferentialTest,
                         ::testing::Values(3, 11, 29));

/// Join shapes over p0..p3. The acyclic ones plan as Yannakakis, the
/// cyclic ones as hash joins; SELECT * keeps every joined column in the
/// compared bag, and the projections check that the kept columns are
/// the right ones.
constexpr const char* kJoinShapes[] = {
    // Chains, in and out of pattern order.
    "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c }",
    "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }",
    "SELECT * WHERE { ?c p2 ?d . ?b p1 ?c . ?a p0 ?b . ?d p3 ?e }",
    // Stars: all edges out, and in and out.
    "SELECT * WHERE { ?x p0 ?a . ?x p1 ?b . ?x p2 ?c }",
    "SELECT * WHERE { ?a p0 ?x . ?b p1 ?x . ?x p2 ?c . ?x p3 ?d }",
    // Cycles: a triangle, a 4-cycle, and a triangle with a pendant edge.
    "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?a }",
    "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p3 ?a }",
    "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?a . ?c p3 ?d }",
    // Projections of a chain and a cycle.
    "SELECT ?a ?d WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }",
    "SELECT ?b ?c WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d . ?d p3 ?a }",
};

/// Filler symbols interned before each entity of the spread store: more
/// than any relation's rows, so entity ids lie further apart than a one-
/// slot join key's ids can for its index to take the dense form.
constexpr int kFillersPerEntity = 1000;

/// A seed, and whether the entity ids are spread apart.
class ExecJoinShapeTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {
 protected:
  void SetUp() override {
    const auto [seed, spread] = GetParam();
    // The spread store interns every entity after kFillersPerEntity
    // fillers; the dense one interns them as the edges meet them. The
    // edges are the same.
    if (spread) {
      for (int e = 0; e < 20; ++e) {
        for (int f = 0; f < kFillersPerEntity; ++f) {
          dict_.Intern("fill:" + std::to_string(e) + ":" + std::to_string(f));
        }
        dict_.Intern("ent:" + std::to_string(e));
      }
    }
    // 20 entities and 60 random edges per predicate: about three out-
    // edges a node, so every shape above has answers, and the joins'
    // buckets hold rows of different keys.
    Rng rng(seed);
    for (int p = 0; p < 4; ++p) {
      const SymbolId pred = dict_.Intern("p" + std::to_string(p));
      for (int i = 0; i < 60; ++i) {
        store_.Add(dict_.Intern("ent:" + std::to_string(rng.NextBelow(20))),
                   pred,
                   dict_.Intern("ent:" + std::to_string(rng.NextBelow(20))));
      }
    }
  }

  Interner dict_;
  graph::TripleStore store_;
};

TEST_P(ExecJoinShapeTest, JoinsAgreeWithEvaluatorOnNonemptyBags) {
  Executor exec(store_, &dict_);
  sparql::Evaluator eval(store_, &dict_);
  size_t yannakakis = 0, hash_join = 0;
  for (const char* text : kJoinShapes) {
    auto parsed = sparql::ParseSparql(text, &dict_);
    ASSERT_TRUE(parsed.ok()) << text;
    const sparql::Query& q = parsed.value();
    auto plan = exec.MakePlan(q);
    ASSERT_TRUE(plan.ok()) << text;
    const std::string json = plan.value().ToJson();
    auto got = exec.Execute(plan.value());
    auto want = eval.EvalQuery(q);
    ASSERT_TRUE(got.ok()) << text;
    ASSERT_TRUE(want.ok()) << text;
    EXPECT_FALSE(want.value().empty()) << text;
    EXPECT_EQ(Sorted(got.value()), Sorted(want.value()))
        << text << "\nplan: " << json;
    if (plan.value().strategy == Strategy::kYannakakis) ++yannakakis;
    if (json.find(R"("op":"hash_join")") != std::string::npos) ++hash_join;
  }
  // Six shapes plan as one Yannakakis program each; the four cyclic
  // ones join through hash joins.
  EXPECT_EQ(yannakakis, 6u);
  EXPECT_EQ(hash_join, 4u);
}

// Each seed over the dense store, whose one-slot join indexes take the
// dense form, and over the spread one, whose take the hashed form.
INSTANTIATE_TEST_SUITE_P(Seeds, ExecJoinShapeTest,
                         ::testing::Combine(::testing::Values(3, 11, 29),
                                            ::testing::Bool()));

}  // namespace
}  // namespace rwdt::exec
