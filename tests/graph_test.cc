#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/rdf.h"
#include "graph/treewidth.h"

namespace rwdt::graph {
namespace {

TEST(TripleStoreTest, AddMatchDedup) {
  Interner dict;
  TripleStore store;
  const SymbolId a = dict.Intern("a"), knows = dict.Intern("knows"),
                 b = dict.Intern("b"), c = dict.Intern("c");
  store.Add(a, knows, b);
  store.Add(a, knows, b);  // duplicate
  store.Add(a, knows, c);
  store.Add(b, knows, c);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.Contains(a, knows, b));
  EXPECT_FALSE(store.Contains(b, knows, a));
  EXPECT_EQ(store.Objects(a, knows).size(), 2u);
  EXPECT_EQ(store.Subjects(knows, c).size(), 2u);
  EXPECT_EQ(store.Match(kInvalidSymbol, knows, kInvalidSymbol).size(), 3u);
  EXPECT_EQ(store.Match(kInvalidSymbol, kInvalidSymbol, c).size(), 2u);
}

TEST(TripleStoreTest, TermSets) {
  Interner dict;
  TripleStore store;
  store.Add(dict.Intern("s1"), dict.Intern("p"), dict.Intern("o1"));
  store.Add(dict.Intern("s2"), dict.Intern("p"), dict.Intern("s1"));
  EXPECT_EQ(store.SubjectSet().size(), 2u);
  EXPECT_EQ(store.PredicateSet().size(), 1u);
  EXPECT_EQ(store.ObjectSet().size(), 2u);
}

/// The store's three orders, Terms() and the POS ranks against the
/// comparison sorts: random stores whose ids reach every byte of a
/// 32-bit id (the radix passes skip a digit only when no id sets it),
/// with duplicate triples.
TEST(TripleStoreTest, RadixIndexesMatchComparisonSorts) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    // Ids below 2^8, 2^16, 2^24 or up to the largest id, by seed, and a
    // few draws from every range in each store.
    const uint64_t top[] = {1ull << 8, 1ull << 16, 1ull << 24,
                            kInvalidSymbol};
    const uint64_t bound = top[seed % 4];
    auto id = [&]() -> SymbolId {
      const uint64_t range = rng.NextBelow(8) == 0 ? top[rng.NextBelow(4)]
                                                   : bound;
      return static_cast<SymbolId>(rng.NextBelow(range));
    };
    // A small pool of ids, so subjects, objects and predicates repeat.
    std::vector<SymbolId> pool(2 + rng.NextBelow(30));
    for (SymbolId& v : pool) v = id();
    auto pick = [&] { return pool[rng.NextBelow(pool.size())]; };
    TripleStore store;
    std::vector<Triple> added;
    const uint64_t n = rng.NextBelow(300);  // 0: the empty store
    for (uint64_t i = 0; i < n; ++i) {
      const Triple t = rng.NextBelow(5) == 0 && !added.empty()
                           ? added[rng.NextBelow(added.size())]
                           : Triple{pick(), pick(), pick()};
      added.push_back(t);
      store.Add(t);
    }

    std::vector<Triple> spo = added;
    std::sort(spo.begin(), spo.end());
    spo.erase(std::unique(spo.begin(), spo.end()), spo.end());
    std::vector<Triple> pos = spo, osp = spo;
    std::sort(pos.begin(), pos.end(), [](const Triple& a, const Triple& b) {
      return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
    });
    std::sort(osp.begin(), osp.end(), [](const Triple& a, const Triple& b) {
      return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
    });
    std::set<SymbolId> term_set, predicates, objects;
    for (const Triple& t : spo) {
      term_set.insert(t.s);
      term_set.insert(t.o);
      predicates.insert(t.p);
      objects.insert(t.o);
    }
    const std::vector<SymbolId> terms(term_set.begin(), term_set.end());

    EXPECT_EQ(store.triples(), spo) << "seed " << seed;
    EXPECT_EQ(store.Terms(), terms) << "seed " << seed;
    // Every predicate's range in turn covers the POS index in order, and
    // every object's the OSP index.
    std::vector<Triple> got_pos, got_osp;
    for (SymbolId p : predicates) {
      const auto [lo, hi] = store.RangeP(p);
      const auto [rlo, rhi] = store.RanksP(p);
      ASSERT_EQ(rhi - rlo, hi - lo) << "seed " << seed;
      for (const Triple* t = lo; t != hi; ++t) {
        got_pos.push_back(*t);
        const TripleStore::TermRanks& r = rlo[t - lo];
        ASSERT_LT(r.s, terms.size());
        ASSERT_LT(r.o, terms.size());
        EXPECT_EQ(terms[r.s], t->s) << "seed " << seed;
        EXPECT_EQ(terms[r.o], t->o) << "seed " << seed;
      }
    }
    for (SymbolId o : objects) {
      const auto [lo, hi] = store.RangeO(o);
      got_osp.insert(got_osp.end(), lo, hi);
    }
    EXPECT_EQ(got_pos, pos) << "seed " << seed;
    EXPECT_EQ(got_osp, osp) << "seed " << seed;
    for (size_t r = 0; r < terms.size(); ++r) {
      EXPECT_EQ(store.RankOf(terms[r]), r) << "seed " << seed;
    }
    const SymbolId absent = terms.empty() ? 0 : terms.back() + 1;
    if (absent != kInvalidSymbol) {
      EXPECT_EQ(store.RankOf(absent), TripleStore::kNoRank);
    }
  }
}

TEST(RdfStructureTest, GeneratedDatasetMatchesRealWorldShape) {
  Interner dict;
  Rng rng(7);
  TripleStore store = MakeRdfDataset(2000, 5, 4, &dict, rng);
  const RdfStructureStats stats = AnalyzeRdfStructure(store);
  // Fernandez et al.: predicates barely overlap subjects/objects.
  EXPECT_LT(stats.predicate_subject_overlap, 1e-3);
  EXPECT_LT(stats.predicate_object_overlap, 1e-3);
  // Few distinct predicate lists relative to subjects (~1% in the wild).
  EXPECT_LT(stats.predicate_list_ratio, 0.05);
  // Objects per (s,p) close to 1.
  EXPECT_LT(stats.objects_per_sp, 1.3);
  // Skewed in-degrees: max far above mean, power-law-ish alpha.
  EXPECT_GT(stats.in_degree_max, 10 * stats.in_degree_mean);
  EXPECT_GT(stats.in_degree_alpha, 1.2);
}

TEST(SimpleGraphTest, BasicOps) {
  SimpleGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 1);  // duplicate
  g.AddEdge(2, 2);  // self-loop ignored
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.Components().size(), 2u);  // {0,1,2} and {3}
}

SimpleGraph Cycle(size_t n) {
  SimpleGraph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    g.AddEdge(i, static_cast<uint32_t>((i + 1) % n));
  }
  return g;
}

SimpleGraph Clique(size_t n) {
  SimpleGraph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  return g;
}

SimpleGraph Grid(size_t w, size_t h) {
  SimpleGraph g(w * h);
  auto id = [&](size_t x, size_t y) {
    return static_cast<uint32_t>(y * w + x);
  };
  for (size_t y = 0; y < h; ++y) {
    for (size_t x = 0; x < w; ++x) {
      if (x + 1 < w) g.AddEdge(id(x, y), id(x + 1, y));
      if (y + 1 < h) g.AddEdge(id(x, y), id(x, y + 1));
    }
  }
  return g;
}

TEST(TreewidthTest, ExactOnKnownGraphs) {
  EXPECT_EQ(TreewidthExact(SimpleGraph(3)).value(), 0u);  // no edges
  {
    SimpleGraph path(4);
    path.AddEdge(0, 1);
    path.AddEdge(1, 2);
    path.AddEdge(2, 3);
    EXPECT_EQ(TreewidthExact(path).value(), 1u);
  }
  EXPECT_EQ(TreewidthExact(Cycle(5)).value(), 2u);
  EXPECT_EQ(TreewidthExact(Clique(4)).value(), 3u);
  EXPECT_EQ(TreewidthExact(Clique(6)).value(), 5u);
  EXPECT_EQ(TreewidthExact(Grid(3, 3)).value(), 3u);
  EXPECT_EQ(TreewidthExact(Grid(4, 4)).value(), 4u);
}

TEST(TreewidthTest, BoundsSandwichExact) {
  Rng rng(11);
  for (int round = 0; round < 15; ++round) {
    SimpleGraph g = MakeRandomGraph(12, 18, rng);
    const auto exact = TreewidthExact(g);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(TreewidthLowerBoundDegeneracy(g), *exact);
    EXPECT_LE(TreewidthLowerBoundMmdPlus(g), *exact);
    EXPECT_GE(TreewidthUpperBoundMinFill(g), *exact);
    EXPECT_GE(TreewidthUpperBoundMinDegree(g), *exact);
    EXPECT_GE(TreewidthLowerBoundMmdPlus(g),
              TreewidthLowerBoundDegeneracy(g) > 0
                  ? TreewidthLowerBoundDegeneracy(g)
                  : 0);
  }
}

TEST(TreewidthTest, AtMostSpecialCases) {
  EXPECT_TRUE(*TreewidthAtMost(SimpleGraph(3), 0));
  {
    SimpleGraph tree(5);
    tree.AddEdge(0, 1);
    tree.AddEdge(0, 2);
    tree.AddEdge(2, 3);
    tree.AddEdge(2, 4);
    EXPECT_TRUE(IsForest(tree));
    EXPECT_TRUE(*TreewidthAtMost(tree, 1));
    EXPECT_FALSE(*TreewidthAtMost(tree, 0));
  }
  EXPECT_FALSE(IsForest(Cycle(4)));
  EXPECT_FALSE(*TreewidthAtMost(Cycle(4), 1));
  EXPECT_TRUE(*TreewidthAtMost(Cycle(4), 2));
  EXPECT_FALSE(*TreewidthAtMost(Clique(4), 2));
  EXPECT_TRUE(*TreewidthAtMost(Clique(4), 3));
  EXPECT_FALSE(*TreewidthAtMost(Grid(3, 3), 2));
  EXPECT_TRUE(*TreewidthAtMost(Grid(3, 3), 3));
}

TEST(TreewidthTest, AtMost2AgreesWithExactOnRandomGraphs) {
  Rng rng(23);
  for (int round = 0; round < 30; ++round) {
    SimpleGraph g = MakeRandomGraph(10, 5 + rng.NextBelow(10), rng);
    const auto exact = TreewidthExact(g);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(*TreewidthAtMost(g, 2), *exact <= 2);
    EXPECT_EQ(*TreewidthAtMost(g, 3), *exact <= 3);
  }
}

TEST(GeneratorsTest, StructuralClassesHaveExpectedTreewidthShape) {
  Rng rng(5);
  // Road grid: lower/upper bounds scale with the small grid dimension.
  SimpleGraph road = MakeRoadNetwork(30, 10, 0.1, 0.05, rng);
  const size_t road_ub = TreewidthUpperBoundMinDegree(road);
  EXPECT_LE(road_ub, 30u);
  EXPECT_GE(road_ub, 3u);

  // Preferential attachment: treewidth bound large relative to size.
  SimpleGraph web = MakePreferentialAttachment(300, 3, rng);
  const size_t web_lb = TreewidthLowerBoundMmdPlus(web);
  EXPECT_GE(web_lb, 4u);

  // Genealogy: tiny bounds.
  SimpleGraph royal = MakeGenealogy(500, 0.05, rng);
  const size_t royal_ub = TreewidthUpperBoundMinFill(royal);
  EXPECT_LE(royal_ub, 12u);
}

TEST(GeneratorsTest, ToSimpleGraphSharesTerms) {
  Interner dict;
  TripleStore store;
  store.Add(dict.Intern("a"), dict.Intern("p"), dict.Intern("b"));
  store.Add(dict.Intern("b"), dict.Intern("q"), dict.Intern("c"));
  std::vector<SymbolId> terms;
  SimpleGraph g = ToSimpleGraph(store, &terms);
  EXPECT_EQ(g.NumVertices(), 3u);  // a, b, c (predicates are edges)
  EXPECT_EQ(g.NumEdges(), 2u);
}

}  // namespace
}  // namespace rwdt::graph
