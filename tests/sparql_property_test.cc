// Property tests over generated SPARQL corpora: the parser accepts the
// generator's output, algebraic laws of the evaluator hold, and path
// evaluation agrees with the pair-set oracle (path_oracle.h) on random
// paths and with the walk-semantics matcher.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "loggen/sparql_gen.h"
#include "path_oracle.h"
#include "paths/semantics.h"
#include "sparql/analysis.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace rwdt::sparql {
namespace {

class SparqlPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    store_ = graph::MakeRdfDataset(120, 3, 3, &dict_, rng);
    // Add predicates the generator uses (p0..p59) over a few entities so
    // generated queries can match something.
    for (int i = 0; i < 200; ++i) {
      store_.Add(dict_.Intern("ent:" + std::to_string(rng.NextBelow(40))),
                 dict_.Intern("p" + std::to_string(rng.NextBelow(8))),
                 dict_.Intern("ent:" + std::to_string(rng.NextBelow(40))));
    }
  }

  Interner dict_;
  graph::TripleStore store_;
};

TEST_P(SparqlPropertyTest, GeneratedQueriesEvaluateWithoutCrashing) {
  loggen::SourceProfile profile = loggen::ExampleProfile(120);
  profile.invalid_rate = 0;
  // Bound sizes so evaluation over the dense test store stays small.
  profile.triple_count_weights = {5, 40, 25, 15, 10, 3, 2, 0, 0, 0, 0, 0};
  Evaluator eval(store_, &dict_);
  size_t evaluated = 0;
  for (const auto& entry : loggen::GenerateLog(profile, GetParam())) {
    auto q = ParseSparql(entry.text, &dict_);
    ASSERT_TRUE(q.ok()) << entry.text;
    const auto rows_or = eval.EvalQuery(q.value());
    ASSERT_TRUE(rows_or.ok()) << entry.text << "\n"
                              << rows_or.status().ToString();
    const auto& rows = rows_or.value();
    // Projection invariant: bindings only contain projected variables.
    if (q.value().form == QueryForm::kSelect &&
        !q.value().select_star && !q.value().projection.empty()) {
      std::set<SymbolId> allowed;
      for (const auto& item : q.value().projection) {
        allowed.insert(item.var.id);
      }
      for (const auto& mu : rows) {
        for (const auto& [var, value] : mu) {
          (void)value;
          EXPECT_TRUE(allowed.count(var)) << entry.text;
        }
      }
    }
    // LIMIT invariant.
    if (q.value().modifiers.limit.has_value()) {
      EXPECT_LE(rows.size(), *q.value().modifiers.limit) << entry.text;
    }
    ++evaluated;
  }
  EXPECT_GT(evaluated, 100u);
}

TEST_P(SparqlPropertyTest, JoinIsCommutativeUpToMultiset) {
  // { A . B } and { B . A } produce the same multiset of solutions.
  Evaluator eval(store_, &dict_);
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"?x p0 ?y", "?y p1 ?z"},
      {"?x p0 ?y", "?x p2 ?z"},
      {"?x pred:links_to ?y", "?y p0 ?z"},
  };
  for (const auto& [a, b] : pairs) {
    auto q1 = ParseSparql("SELECT * WHERE { " + a + " . " + b + " }",
                          &dict_);
    auto q2 = ParseSparql("SELECT * WHERE { " + b + " . " + a + " }",
                          &dict_);
    ASSERT_TRUE(q1.ok() && q2.ok());
    auto r1 = eval.EvalQuery(q1.value()).value();
    auto r2 = eval.EvalQuery(q2.value()).value();
    std::sort(r1.begin(), r1.end());
    std::sort(r2.begin(), r2.end());
    EXPECT_EQ(r1, r2) << a << " / " << b;
  }
}

TEST_P(SparqlPropertyTest, UnionCountsAddUp) {
  Evaluator eval(store_, &dict_);
  auto qa = ParseSparql("SELECT * WHERE { ?x p0 ?y }", &dict_);
  auto qb = ParseSparql("SELECT * WHERE { ?x p1 ?y }", &dict_);
  auto qu = ParseSparql(
      "SELECT * WHERE { { ?x p0 ?y } UNION { ?x p1 ?y } }", &dict_);
  ASSERT_TRUE(qa.ok() && qb.ok() && qu.ok());
  EXPECT_EQ(eval.EvalQuery(qu.value()).value().size(),
            eval.EvalQuery(qa.value()).value().size() +
                eval.EvalQuery(qb.value()).value().size());
}

TEST_P(SparqlPropertyTest, OptionalNeverLosesLeftSolutions) {
  Evaluator eval(store_, &dict_);
  auto plain = ParseSparql("SELECT ?x WHERE { ?x p0 ?y }", &dict_);
  auto opt = ParseSparql(
      "SELECT ?x WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }", &dict_);
  ASSERT_TRUE(plain.ok() && opt.ok());
  // Every left solution appears at least once after the left join.
  EXPECT_GE(eval.EvalQuery(opt.value()).value().size(),
            eval.EvalQuery(plain.value()).value().size());
}

TEST_P(SparqlPropertyTest, PathPatternAgreesWithWalkSemantics) {
  Evaluator eval(store_, &dict_);
  Rng rng(GetParam() + 5);
  for (const std::string text : {"p0/p1", "p0+", "p0*", "(p0|p1)/p2*"}) {
    auto path = paths::ParsePath(text, &dict_);
    ASSERT_TRUE(path.ok());
    const auto pairs = eval.EvalPathPairs(*path.value()).value();
    // Spot-check a sample of the produced pairs against MatchPath.
    size_t checked = 0;
    for (const auto& [s, o] : pairs) {
      if (rng.NextBool(0.8) || checked > 10) continue;
      ++checked;
      const auto match = paths::MatchPath(store_, *path.value(), s, o,
                                          paths::PathSemantics::kWalk);
      EXPECT_TRUE(match.matched) << text;
    }
  }
}

// --- The path automaton against the pair-set oracle ---------------------

/// A random path over predicates p0..p3 whose operators nest at most
/// `depth` deep: all eight PathOps, inverses nested in inverses, and
/// negated sets that mix forward and inverse members.
paths::PathPtr RandomPath(Rng& rng, Interner* dict, int depth) {
  using paths::Path;
  auto iri = [&] {
    return dict->Intern("p" + std::to_string(rng.NextBelow(4)));
  };
  auto children = [&] {
    std::vector<paths::PathPtr> out(2 + rng.NextBelow(2));
    for (auto& c : out) c = RandomPath(rng, dict, depth - 1);
    return out;
  };
  switch (depth == 0 ? rng.NextBelow(2) : rng.NextBelow(8)) {
    case 0:
      return Path::Iri(iri());
    case 1: {
      std::vector<std::pair<SymbolId, bool>> set(1 + rng.NextBelow(3));
      for (auto& member : set) member = {iri(), rng.NextBool(0.5)};
      return Path::Negated(std::move(set));
    }
    case 2:
      return Path::Inverse(RandomPath(rng, dict, depth - 1));
    case 3:
      return Path::Seq(children());
    case 4:
      return Path::Alt(children());
    case 5:
      return Path::Star(RandomPath(rng, dict, depth - 1));
    case 6:
      return Path::Plus(RandomPath(rng, dict, depth - 1));
    default:
      return Path::Optional(RandomPath(rng, dict, depth - 1));
  }
}

TEST_P(SparqlPropertyTest, PathAutomatonAgreesWithPairSetOracle) {
  // A small store keeps the oracle's per-operator sets small.
  Interner dict;
  Rng rng(GetParam() * 7919 + 1);
  graph::TripleStore store;
  auto random_name = [&](char prefix, uint64_t bound) {
    std::string name(1, prefix);
    name += std::to_string(rng.NextBelow(bound));
    return dict.Intern(name);
  };
  for (int i = 0; i < 24; ++i) {
    const SymbolId s = random_name('n', 9);
    const SymbolId p = random_name('p', 4);
    store.Add(s, p, random_name('n', 9));
  }
  const std::vector<SymbolId>& terms = store.Terms();
  auto some_term = [&] { return terms[rng.NextBelow(terms.size())]; };
  Evaluator eval(store, &dict);
  auto sorted = [](std::vector<std::pair<SymbolId, SymbolId>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  for (int round = 0; round < 150; ++round) {
    const paths::PathPtr path = RandomPath(rng, &dict, 1 + round % 3);
    const std::string text = path->ToString(dict);
    // Each endpoint unbound or bound to a store term.
    const SymbolId t = some_term();
    const struct {
      SymbolId s, o;
    } shapes[] = {{kInvalidSymbol, kInvalidSymbol},
                  {some_term(), kInvalidSymbol},
                  {kInvalidSymbol, some_term()},
                  {some_term(), some_term()},
                  {t, t}};
    for (const auto& [s, o] : shapes) {
      auto got = eval.EvalPathPairs(*path, s, o);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      EXPECT_EQ(sorted(got.value()),
                sorted(OraclePathPairs(store, *path, s, o)))
          << text << " s=" << s << " o=" << o;
    }
    // Walk semantics decides membership in the same pair set.
    const auto pairs = sorted(eval.EvalPathPairs(*path).value());
    for (int sample = 0; sample < 8; ++sample) {
      const SymbolId s = some_term();
      const SymbolId o = some_term();
      const auto match =
          paths::MatchPath(store, *path, s, o, paths::PathSemantics::kWalk);
      EXPECT_TRUE(match.decided) << text;
      EXPECT_EQ(match.matched,
                std::binary_search(pairs.begin(), pairs.end(),
                                   std::make_pair(s, o)))
          << text << " s=" << s << " o=" << o;
    }
  }
}

// --- Binding against std::map ------------------------------------------

/// The solution-mapping type Binding replaced; its operations are the
/// reference for Binding's.
using RefMap = std::map<SymbolId, SymbolId>;

/// Variables 0..kVars-1: past Binding::kInlineCapacity in both directions.
constexpr SymbolId kVars = 12;

::testing::AssertionResult SameAsMap(const Binding& b, const RefMap& ref) {
  if (b.size() != ref.size() || b.empty() != ref.empty()) {
    return ::testing::AssertionFailure()
           << "size " << b.size() << " vs " << ref.size();
  }
  auto it = ref.begin();
  for (const auto& [var, value] : b) {
    if (var != it->first || value != it->second) {
      return ::testing::AssertionFailure()
             << "pair (" << var << ", " << value << ") vs (" << it->first
             << ", " << it->second << ")";
    }
    ++it;
  }
  for (SymbolId var = 0; var <= kVars; ++var) {
    const auto found = b.find(var);
    const auto want = ref.find(var);
    if ((found == b.end()) != (want == ref.end()) ||
        (found != b.end() && found->second != want->second) ||
        b.count(var) != ref.count(var)) {
      return ::testing::AssertionFailure() << "find/count of " << var;
    }
  }
  return ::testing::AssertionSuccess();
}

/// A random mapping over 0..kVars-1 with values in [0, values).
RefMap RandomMap(Rng* rng, uint64_t values) {
  RefMap m;
  const uint64_t n = rng->NextBelow(kVars + 1);
  for (uint64_t i = 0; i < n; ++i) {
    m.emplace(static_cast<SymbolId>(rng->NextBelow(kVars)),
              static_cast<SymbolId>(rng->NextBelow(values)));
  }
  return m;
}

TEST_P(SparqlPropertyTest, BindingMatchesStdMapUnderRandomOperations) {
  if constexpr (sizeof(void*) == 8) {
    // Four inline pairs keep a mapping the size of libstdc++'s std::map.
    EXPECT_EQ(sizeof(Binding), 48u);
  }
  Rng rng(GetParam() * 1000 + 3);
  // Two slots, each a Binding and the std::map driven by the same
  // operations; copies, moves and assignments go between the slots.
  Binding b[2];
  RefMap m[2];
  size_t inline_steps = 0, heap_steps = 0;
  for (int step = 0; step < 5000; ++step) {
    const size_t i = rng.NextBelow(2);
    const size_t j = 1 - i;
    const auto var = static_cast<SymbolId>(rng.NextBelow(kVars));
    const auto value = static_cast<SymbolId>(rng.NextBelow(4));
    switch (rng.NextBelow(11)) {
      case 0:
      case 1: {
        const auto [it, inserted] = b[i].emplace(var, value);
        const auto [want, want_inserted] = m[i].emplace(var, value);
        EXPECT_EQ(inserted, want_inserted);
        EXPECT_EQ(it->first, want->first);
        EXPECT_EQ(it->second, want->second);
        break;
      }
      case 2: {
        const auto [it, inserted] = b[i].insert_or_assign(var, value);
        const auto [want, want_inserted] = m[i].insert_or_assign(var, value);
        EXPECT_EQ(inserted, want_inserted);
        EXPECT_EQ(it->first, want->first);
        EXPECT_EQ(it->second, want->second);
        break;
      }
      case 3: {
        // Hints that are right (end, the variable's place) and wrong.
        const size_t k = rng.NextBelow(b[i].size() + 1);
        const auto it = b[i].emplace_hint(b[i].begin() + k, var, value);
        const auto want = m[i].emplace_hint(std::next(m[i].begin(), k), var,
                                            value);
        EXPECT_EQ(it->first, want->first);
        EXPECT_EQ(it->second, want->second);
        break;
      }
      case 4:
        b[i].insert(b[j].begin(), b[j].end());
        m[i].insert(m[j].begin(), m[j].end());
        break;
      case 5: {
        const Binding copy(b[j]);
        EXPECT_TRUE(SameAsMap(copy, m[j]));
        b[i] = copy;
        m[i] = m[j];
        break;
      }
      case 6: {
        Binding moved(std::move(b[j]));
        EXPECT_TRUE(b[j].empty());
        EXPECT_TRUE(SameAsMap(moved, m[j]));
        b[i] = std::move(moved);
        EXPECT_TRUE(moved.empty());
        m[i] = std::move(m[j]);
        b[j] = Binding();
        m[j] = RefMap();
        break;
      }
      case 7: {
        const Binding& self = b[i];
        b[i] = self;
        break;
      }
      case 8:
        b[i] = Binding();
        m[i].clear();
        break;
      case 9:
        std::swap(b[0], b[1]);
        std::swap(m[0], m[1]);
        break;
      case 10:
        // Room below, at or past the size; the pairs stay as they are.
        b[i].reserve(rng.NextBelow(2 * kVars));
        break;
    }
    ASSERT_TRUE(SameAsMap(b[0], m[0])) << "step " << step;
    ASSERT_TRUE(SameAsMap(b[1], m[1])) << "step " << step;
    EXPECT_EQ(b[0] == b[1], m[0] == m[1]);
    EXPECT_EQ(b[0] < b[1], m[0] < m[1]);
    EXPECT_EQ(b[1] < b[0], m[1] < m[0]);
    ++(b[i].size() > Binding::kInlineCapacity ? heap_steps : inline_steps);
  }
  // Both sides of the inline capacity are visited many times.
  EXPECT_GT(inline_steps, 500u);
  EXPECT_GT(heap_steps, 500u);
}

TEST_P(SparqlPropertyTest, CompatibleAndMergeMatchMapDefinitions) {
  // The definitions the evaluator used while Binding was a std::map.
  auto ref_compatible = [](const RefMap& a, const RefMap& b) {
    for (const auto& [var, value] : a) {
      const auto it = b.find(var);
      if (it != b.end() && it->second != value) return false;
    }
    return true;
  };
  auto ref_merge = [](const RefMap& a, const RefMap& b) {
    RefMap out = a;
    out.insert(b.begin(), b.end());
    return out;
  };
  Rng rng(GetParam() * 1000 + 5);
  size_t compatible = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    // Two values per variable, so shared variables agree about half the
    // time.
    const RefMap ma = RandomMap(&rng, 2);
    const RefMap mb = RandomMap(&rng, 2);
    Binding a;
    a.insert(ma.begin(), ma.end());
    Binding b;
    b.insert(mb.begin(), mb.end());
    ASSERT_TRUE(SameAsMap(a, ma));
    const bool want = ref_compatible(ma, mb);
    EXPECT_EQ(Compatible(a, b), want);
    EXPECT_EQ(Compatible(b, a), want);
    compatible += want ? 1 : 0;
    EXPECT_TRUE(SameAsMap(Merge(a, b), ref_merge(ma, mb))) << trial;
  }
  EXPECT_GT(compatible, 300u);
  EXPECT_LT(compatible, 2700u);
}

/// Well-designedness as Section 9.1 states it, one OPTIONAL at a time:
/// for (P1 OPT P2), every variable of P2 that the rest of the pattern
/// mentions is a variable of P1.
bool WellDesignedByDefinition(const Query& q) {
  const Pattern& root = q.node(q.pattern);
  std::vector<const Pattern*> optionals;
  std::function<void(const Pattern&)> collect = [&](const Pattern& p) {
    if (p.op == Pattern::Op::kOptional) optionals.push_back(&p);
    for (const NodeIndex c : q.children(p)) collect(q.node(c));
  };
  collect(root);
  for (const Pattern* opt : optionals) {
    std::set<SymbolId> p1, p2, outside;
    q.CollectVars(q.children(*opt)[0], &p1);
    q.CollectVars(q.children(*opt)[1], &p2);
    std::function<void(const Pattern&)> walk = [&](const Pattern& p) {
      if (&p == opt) return;
      // The node's own variables, not its children's.
      const NodeIndex index(&p - q.nodes.data());
      Query shallow = q;
      shallow.nodes[index.value].children = {};
      shallow.CollectVars(index, &outside);
      for (const NodeIndex c : q.children(p)) walk(q.node(c));
    };
    walk(root);
    for (SymbolId v : p2) {
      if (p1.count(v) == 0 && outside.count(v) > 0) return false;
    }
  }
  return true;
}

/// A random group pattern of triples, filters, OPTIONALs and nested
/// groups over six variables, so that OPTIONALs share variables often.
std::string RandomGroup(Rng* rng, int depth) {
  auto var = [&] { return "?v" + std::to_string(rng->NextBelow(6)); };
  std::string group = "{ ";
  const uint64_t elements = 1 + rng->NextBelow(4);
  for (uint64_t i = 0; i < elements; ++i) {
    switch (rng->NextBelow(depth > 0 ? 6 : 3)) {
      case 0:
      case 1:
        group += var() + " <p> " + var() + " . ";
        break;
      case 2:
        group += rng->NextBool(0.5) ? "FILTER(" + var() + " != " + var() + ") "
                                    : "FILTER(bound(" + var() + ")) ";
        break;
      case 3:
      case 4:
        group += "OPTIONAL " + RandomGroup(rng, depth - 1) + " ";
        break;
      default:
        group += RandomGroup(rng, depth - 1) + " ";
        break;
    }
  }
  return group + "}";
}

TEST_P(SparqlPropertyTest, WellDesignedMatchesDefinition) {
  Rng rng(GetParam() + 500);
  size_t checked = 0, well_designed = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string text = "SELECT * WHERE " + RandomGroup(&rng, 3);
    auto q = ParseSparql(text, &dict_);
    ASSERT_TRUE(q.ok()) << text;
    if (!UsesOnlyAndFilterOptional(q.value())) continue;
    const bool want = WellDesignedByDefinition(q.value());
    EXPECT_EQ(IsWellDesigned(q.value()), want) << text;
    ++checked;
    well_designed += want ? 1 : 0;
  }
  // Both verdicts are common.
  EXPECT_GT(well_designed, checked / 5);
  EXPECT_LT(well_designed, checked * 4 / 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparqlPropertyTest,
                         ::testing::Values(1, 7, 13));

}  // namespace
}  // namespace rwdt::sparql
