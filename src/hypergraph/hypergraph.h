#ifndef RWDT_HYPERGRAPH_HYPERGRAPH_H_
#define RWDT_HYPERGRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/treewidth.h"
#include "sparql/algebra.h"

namespace rwdt::hypergraph {

/// A hypergraph H = (V, E) with V = {0..num_vertices-1} and hyperedges as
/// sorted vertex sets (paper Section 9.5).
struct Hypergraph {
  size_t num_vertices = 0;
  std::vector<std::vector<uint32_t>> edges;

  void AddEdge(std::vector<uint32_t> edge);
};

/// The *canonical hypergraph* of a CQ+F query (Section 9.5): one
/// hyperedge per triple pattern holding its variables/blanks, one per
/// property path over its endpoint variables, and one per filter over the
/// filter's variables, in that order. For a CQ, which has no filters,
/// this is the *triple hypergraph*. Variables are densely re-indexed in
/// first-seen order; `var_of_vertex` maps back.
Hypergraph BuildCanonicalHypergraph(const sparql::Query& query,
                                    std::vector<SymbolId>* var_of_vertex
                                    = nullptr);

/// True iff the hypergraph is alpha-acyclic, i.e. the GYO reduction
/// (drop vertices in one edge only, drop edges inside other edges)
/// removes every edge. Decided in one pass over flat incidence arrays,
/// in O(N log N) for N the total edge size (see hypergraph.cc).
bool IsAcyclic(const Hypergraph& h);

/// Free-connex acyclicity (Bagan-Durand-Grandjean): the query is acyclic
/// AND the hypergraph extended with a hyperedge over the free (projected)
/// variables is acyclic. For SELECT * queries all variables are free.
/// `free_vertices` is sorted and distinct.
bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices);

/// The same, for a caller that already has `acyclic` == IsAcyclic(h):
/// the acyclicity test then runs only on the extended hypergraph, and
/// not at all when every vertex is free (the extension is then acyclic).
bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic);

/// Decides (generalized) hypertree width <= k by recursive separator
/// search with memoization — the library's stand-in for det-k-decomp.
/// For the acyclic case this agrees with GYO (ghw = 1 iff acyclic);
/// queries in logs are small, so exact search is practical.
///
/// Returns nullopt ("unknown") when the search runs out of budget: more
/// than `max_states` memoized subproblems, more than 2^22 units of work
/// (each bag tried costs one unit per hyperedge, the edges it scans to
/// split the component), or subproblems nested more than 256 deep.
/// Callers read nullopt as "not certified <= k".
std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         size_t max_states = 1u << 20);

/// The undirected shape classes of Table 7, most specific first.
enum class GraphShape {
  kNoEdge,
  kSingleEdge,  // <= 1 edge
  kChain,
  kStar,
  kTree,
  kForest,
  kTreewidth2,
  kTreewidth3,
  kOther,
};

std::string GraphShapeName(GraphShape shape);

/// Classifies an undirected graph into its most specific shape class.
GraphShape ClassifyShape(const graph::SimpleGraph& g);

/// The *canonical graphs* of a graph-CQ+F query (Section 9.5), the
/// inputs of Table 7's two shape columns, from one walk of the query.
/// `with_constants` has one node per subject/object term, an edge per
/// triple pattern and property path, plus an edge per filter over two
/// variables; `without_constants` drops the IRI/literal nodes and their
/// incident edges. Self-loops are not edges, and a node without edges is
/// not a node.
struct CanonicalGraphs {
  graph::SimpleGraph with_constants;
  graph::SimpleGraph without_constants;
};

CanonicalGraphs BuildCanonicalGraphs(const sparql::Query& query);

}  // namespace rwdt::hypergraph

#endif  // RWDT_HYPERGRAPH_HYPERGRAPH_H_
