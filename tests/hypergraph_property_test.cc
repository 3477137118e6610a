// Property sweeps on the hypergraph machinery: ghw<=1 coincides with GYO
// acyclicity, hypertree width is monotone in k, and shape classes nest
// as Table 7's cumulative presentation requires.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "graph/generators.h"
#include "hypergraph/hypergraph.h"

namespace rwdt::hypergraph {
namespace {

Hypergraph RandomHypergraph(Rng& rng, size_t vertices, size_t edges) {
  Hypergraph h;
  for (size_t e = 0; e < edges; ++e) {
    std::vector<uint32_t> edge;
    const size_t width = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < width; ++i) {
      edge.push_back(static_cast<uint32_t>(rng.NextBelow(vertices)));
    }
    h.AddEdge(std::move(edge));
  }
  return h;
}

/// The hyperedges as vertex lists, the form the reference below takes.
std::vector<std::vector<uint32_t>> EdgeSets(const Hypergraph& h) {
  std::vector<std::vector<uint32_t>> edges;
  for (size_t e = 0; e < h.num_edges(); ++e) {
    edges.emplace_back(h.edge(e).begin(), h.edge(e).end());
  }
  return edges;
}

/// The GYO reduction as its definition states it, for reference: drop a
/// vertex that lies in one edge only, or an edge that is empty, inside
/// another edge, or equal to an earlier one, until nothing changes.
/// Acyclic iff no edge is left.
bool GyoReduces(std::vector<std::vector<uint32_t>> edges) {
  for (bool changed = true; changed;) {
    changed = false;
    std::map<uint32_t, int> count;
    for (const auto& e : edges) {
      for (uint32_t v : e) count[v]++;
    }
    for (auto& e : edges) {
      const size_t before = e.size();
      std::erase_if(e, [&](uint32_t v) { return count[v] == 1; });
      changed = changed || e.size() != before;
    }
    for (size_t i = 0; i < edges.size() && !changed; ++i) {
      bool drop = edges[i].empty();
      for (size_t j = 0; j < edges.size() && !drop; ++j) {
        drop = j != i &&
               std::includes(edges[j].begin(), edges[j].end(),
                             edges[i].begin(), edges[i].end()) &&
               (edges[i] != edges[j] || j < i);
      }
      if (drop) {
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
        changed = true;
      }
    }
  }
  return edges.empty();
}

class HgPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HgPropertyTest, AcyclicMatchesGyoReduction) {
  Rng rng(GetParam() + 400);
  for (int round = 0; round < 400; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 2 + rng.NextBelow(10),
                                          1 + rng.NextBelow(14));
    const bool acyclic = GyoReduces(EdgeSets(h));
    EXPECT_EQ(IsAcyclic(h), acyclic);
    std::vector<uint32_t> free;
    for (uint32_t v = 0; v < h.num_vertices; ++v) {
      if (rng.NextBool(0.5)) free.push_back(v);
    }
    std::vector<std::vector<uint32_t>> extended = EdgeSets(h);
    extended.push_back(free);
    const bool free_connex = acyclic && GyoReduces(extended);
    EXPECT_EQ(IsFreeConnexAcyclic(h, free), free_connex);
    EXPECT_EQ(IsFreeConnexAcyclic(h, free, acyclic), free_connex);
  }
}

TEST_P(HgPropertyTest, GhwOneIffAcyclic) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 6, 2 + rng.NextBelow(7));
    auto ghw1 = HypertreeWidthAtMost(h, 1);
    ASSERT_TRUE(ghw1.has_value());
    EXPECT_EQ(*ghw1, IsAcyclic(h));
  }
}

TEST_P(HgPropertyTest, WidthIsMonotone) {
  Rng rng(GetParam() + 100);
  for (int round = 0; round < 25; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 7, 3 + rng.NextBelow(8));
    bool previous = false;
    for (size_t k = 1; k <= 4; ++k) {
      auto at_most = HypertreeWidthAtMost(h, k);
      ASSERT_TRUE(at_most.has_value());
      if (previous) {
        EXPECT_TRUE(*at_most) << "monotonicity broke at " << k;
      }
      previous = *at_most;
    }
    // Every hypergraph with m edges has ghw <= m.
    auto all = HypertreeWidthAtMost(h, h.num_edges());
    ASSERT_TRUE(all.has_value());
    EXPECT_TRUE(*all);
  }
}

TEST_P(HgPropertyTest, FreeConnexImpliesAcyclic) {
  Rng rng(GetParam() + 200);
  for (int round = 0; round < 40; ++round) {
    const Hypergraph h = RandomHypergraph(rng, 6, 2 + rng.NextBelow(6));
    std::vector<uint32_t> free;
    for (uint32_t v = 0; v < h.num_vertices; ++v) {
      if (rng.NextBool(0.4)) free.push_back(v);
    }
    if (IsFreeConnexAcyclic(h, free)) {
      EXPECT_TRUE(IsAcyclic(h));
    }
    // All variables free: free-connex iff acyclic.
    std::vector<uint32_t> all;
    for (uint32_t v = 0; v < h.num_vertices; ++v) all.push_back(v);
    EXPECT_EQ(IsFreeConnexAcyclic(h, all), IsAcyclic(h));
  }
}

TEST_P(HgPropertyTest, ShapeClassesNest) {
  // The shape taxonomy must respect the cumulative ordering of Table 7:
  // classifying a graph as some class means every later (more general)
  // class also admits it. Spot-check with the treewidth oracle.
  Rng rng(GetParam() + 300);
  for (int round = 0; round < 30; ++round) {
    graph::SimpleGraph g =
        graph::MakeRandomGraph(8, 2 + rng.NextBelow(12), rng);
    const GraphShape shape = ClassifyShape(g);
    const auto tw = graph::TreewidthExact(g);
    ASSERT_TRUE(tw.has_value());
    switch (shape) {
      case GraphShape::kNoEdge:
        EXPECT_EQ(g.NumEdges(), 0u);
        break;
      case GraphShape::kSingleEdge:
        EXPECT_EQ(g.NumEdges(), 1u);
        break;
      case GraphShape::kChain:
      case GraphShape::kStar:
      case GraphShape::kTree:
        EXPECT_TRUE(graph::IsForest(g));
        EXPECT_EQ(g.Components().size(), 1u);
        break;
      case GraphShape::kForest:
        EXPECT_TRUE(graph::IsForest(g));
        break;
      case GraphShape::kTreewidth2:
        EXPECT_FALSE(graph::IsForest(g));
        EXPECT_LE(*tw, 2u);
        break;
      case GraphShape::kTreewidth3:
        EXPECT_EQ(*tw, 3u);
        break;
      case GraphShape::kOther:
        EXPECT_GT(*tw, 3u);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HgPropertyTest,
                         ::testing::Values(3, 17, 29, 41));

}  // namespace
}  // namespace rwdt::hypergraph
