#include <gtest/gtest.h>

#include "common/interner.h"
#include "hypergraph/hypergraph.h"
#include "sparql/parser.h"

namespace rwdt::hypergraph {
namespace {

Hypergraph H(std::vector<std::vector<uint32_t>> edges) {
  Hypergraph h;
  for (auto& e : edges) h.AddEdge(std::move(e));
  return h;
}

TEST(GyoTest, AcyclicCases) {
  EXPECT_TRUE(IsAcyclic(H({})));
  EXPECT_TRUE(IsAcyclic(H({{0, 1}})));
  EXPECT_TRUE(IsAcyclic(H({{0, 1}, {1, 2}})));                // path
  EXPECT_TRUE(IsAcyclic(H({{0, 1}, {0, 2}, {0, 3}})));        // star
  EXPECT_TRUE(IsAcyclic(H({{0, 1, 2}, {2, 3}, {3, 4, 5}})));  // tree-like
  // The triangle covered by a big edge is acyclic (alpha-acyclicity).
  EXPECT_TRUE(IsAcyclic(H({{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}})));
}

TEST(GyoTest, CyclicCases) {
  EXPECT_FALSE(IsAcyclic(H({{0, 1}, {1, 2}, {0, 2}})));  // triangle
  EXPECT_FALSE(IsAcyclic(H({{0, 1}, {1, 2}, {2, 3}, {3, 0}})));  // square
}

TEST(FreeConnexTest, ProjectionMatters) {
  // Path x-y-z: acyclic. Free vars {x, z} (endpoints) break free-connex
  // acyclicity; free vars {x, y} keep it.
  Hypergraph path = H({{0, 1}, {1, 2}});
  EXPECT_TRUE(IsFreeConnexAcyclic(path, {0, 1}));
  EXPECT_TRUE(IsFreeConnexAcyclic(path, {0, 1, 2}));
  EXPECT_FALSE(IsFreeConnexAcyclic(path, {0, 2}));
  // Cyclic queries are never free-connex acyclic.
  EXPECT_FALSE(IsFreeConnexAcyclic(H({{0, 1}, {1, 2}, {0, 2}}), {0}));
}

TEST(HtwTest, MatchesAcyclicityAtOne) {
  const std::vector<Hypergraph> acyclic = {
      H({{0, 1}, {1, 2}}), H({{0, 1, 2}, {2, 3}}), H({{0, 1}})};
  for (const auto& h : acyclic) {
    EXPECT_TRUE(HypertreeWidthAtMost(h, 1).value());
  }
  const Hypergraph triangle = H({{0, 1}, {1, 2}, {0, 2}});
  EXPECT_FALSE(HypertreeWidthAtMost(triangle, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(triangle, 2).value());
}

TEST(HtwTest, GridNeedsWidthTwo) {
  // 2x3 grid of binary edges: treewidth 2, hypertree width 2.
  Hypergraph grid = H({{0, 1}, {1, 2}, {3, 4}, {4, 5},
                       {0, 3}, {1, 4}, {2, 5}});
  EXPECT_FALSE(HypertreeWidthAtMost(grid, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(grid, 2).value());
}

TEST(HtwTest, CliqueOfBinaryEdges) {
  // K4 with binary edges: ghw = 2 (two edges cover each bag).
  Hypergraph k4 = H({{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_FALSE(HypertreeWidthAtMost(k4, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(k4, 2).value());
}

TEST(HtwTest, SearchBudgetAnswersUnknown) {
  // K10 of binary edges has ghw 5, and a 1,000-cycle ghw 2, but deciding
  // either at k = 2 or 3 would take the search past its work or depth
  // budget: it answers unknown instead of running for minutes.
  Hypergraph k10;
  for (uint32_t i = 0; i < 10; ++i) {
    for (uint32_t j = i + 1; j < 10; ++j) k10.AddEdge({i, j});
  }
  Hypergraph long_cycle;
  for (uint32_t i = 0; i < 1000; ++i) long_cycle.AddEdge({i, (i + 1) % 1000});
  EXPECT_FALSE(HypertreeWidthAtMost(k10, 2).has_value());
  EXPECT_FALSE(HypertreeWidthAtMost(k10, 3).has_value());
  EXPECT_FALSE(HypertreeWidthAtMost(long_cycle, 2).has_value());
  // A short cycle still gets its answer.
  Hypergraph cycle;
  for (uint32_t i = 0; i < 50; ++i) cycle.AddEdge({i, (i + 1) % 50});
  EXPECT_FALSE(HypertreeWidthAtMost(cycle, 1).value());
  EXPECT_TRUE(HypertreeWidthAtMost(cycle, 2).value());
}

class QueryShapeTest : public ::testing::Test {
 protected:
  sparql::Query Q(const std::string& text) {
    auto r = sparql::ParseSparql(text, &dict_);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? r.value() : sparql::Query{};
  }
  Interner dict_;
};

TEST_F(QueryShapeTest, CanonicalHypergraphFromQuery) {
  auto q = Q("SELECT ?x WHERE { ?x p ?y . ?y q ?z . "
             "FILTER(?x != ?z) }");
  Hypergraph h = BuildCanonicalHypergraph(q);
  EXPECT_EQ(h.num_vertices, 3u);
  EXPECT_EQ(h.num_edges(), 3u);
  // The filter edge closes a cycle x-y-z-x.
  EXPECT_FALSE(IsAcyclic(h));
  // The same triples without the filter: the triple hypergraph.
  Hypergraph no_filters =
      BuildCanonicalHypergraph(Q("SELECT ?x WHERE { ?x p ?y . ?y q ?z }"));
  EXPECT_TRUE(IsAcyclic(no_filters));
}

TEST_F(QueryShapeTest, ShapesFromQueries) {
  auto shape = [&](const std::string& text, bool with_constants) {
    const CanonicalGraphs graphs = BuildCanonicalGraphs(Q(text));
    return ClassifyShape(with_constants ? graphs.with_constants
                                        : graphs.without_constants);
  };
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p c1 }", true),
            GraphShape::kSingleEdge);
  // Without constants, the single triple's graph loses its only edge.
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p c1 }", false),
            GraphShape::kNoEdge);
  EXPECT_EQ(
      shape("SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?w }", true),
      GraphShape::kChain);
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?a . ?x p ?b . ?x p ?c }",
                  true),
            GraphShape::kStar);
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?a . ?x p ?b . ?x p ?c . "
                  "?a q ?d . ?b q ?e }",
                  true),
            GraphShape::kStar);  // spider: one branching node
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?a . ?x p ?b . ?a q ?c . "
                  "?a q ?d . ?b q ?e . ?b q ?f }",
                  true),
            GraphShape::kTree);  // two branching nodes
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?y . ?z p ?w }", true),
            GraphShape::kForest);
  EXPECT_EQ(shape("SELECT ?x WHERE { ?x p ?y . ?y p ?z . ?z p ?x }",
                  true),
            GraphShape::kTreewidth2);
}

TEST_F(QueryShapeTest, ConstantsBecomeNodes) {
  // Triple graph includes constant endpoint nodes (paper: "nodes that
  // correspond to constant values").
  auto q = Q("SELECT ?x WHERE { ?x p c1 . ?x p c2 }");
  const CanonicalGraphs graphs = BuildCanonicalGraphs(q);
  EXPECT_EQ(graphs.with_constants.NumVertices(), 3u);
  EXPECT_EQ(graphs.with_constants.NumEdges(), 2u);
  EXPECT_EQ(graphs.without_constants.NumEdges(), 0u);
}

TEST_F(QueryShapeTest, BinaryFilterAddsEdge) {
  auto q = Q("SELECT ?x WHERE { ?x p ?y . FILTER(?x != ?y) }");
  graph::SimpleGraph g = BuildCanonicalGraphs(q).with_constants;
  // The filter edge {x,y} coincides with the triple edge.
  EXPECT_EQ(g.NumEdges(), 1u);
  auto q2 = Q("SELECT ?x WHERE { ?x p ?y . ?y p ?z . FILTER(?x != ?z) }");
  graph::SimpleGraph g2 = BuildCanonicalGraphs(q2).with_constants;
  EXPECT_EQ(g2.NumEdges(), 3u);  // triangle
  EXPECT_EQ(ClassifyShape(g2), GraphShape::kTreewidth2);
}

}  // namespace
}  // namespace rwdt::hypergraph
