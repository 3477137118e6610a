#ifndef RWDT_HYPERGRAPH_HYPERGRAPH_H_
#define RWDT_HYPERGRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/treewidth.h"
#include "sparql/algebra.h"

namespace rwdt::hypergraph {

/// A hypergraph H = (V, E) with V = {0..num_vertices-1} and hyperedges as
/// sorted vertex sets (paper Section 9.5), stored flat: every edge's
/// vertices one edge after another, edge e ending at ends[e].
struct Hypergraph {
  size_t num_vertices = 0;
  std::vector<uint32_t> vertices;
  std::vector<uint32_t> ends;

  /// Adds the edge over `edge`'s vertices (sorted and deduplicated here).
  void AddEdge(const std::vector<uint32_t>& edge);
  size_t num_edges() const { return ends.size(); }
  std::span<const uint32_t> edge(size_t e) const {
    const uint32_t begin = e == 0 ? 0 : ends[e - 1];
    return std::span<const uint32_t>(vertices.data() + begin,
                                     ends[e] - begin);
  }
  /// Empties the hypergraph, keeping the arrays' capacity.
  void Clear();
};

/// An undirected simple graph on vertices 0..num_vertices-1 as its sorted
/// distinct edges (u < v): the form Table 7's shape classes are computed
/// on.
struct EdgeList {
  size_t num_vertices = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
};

/// The buffers the query builders and tests below reuse between calls. A
/// caller that classifies query after query (each engine shard) keeps
/// one, so once they have grown those steps allocate nothing; the
/// overloads without one make a fresh one.
struct Scratch {
  std::vector<uint32_t> slots;   // the builder's variable table
  std::vector<SymbolId> vars;    // one filter's variables
  std::vector<uint32_t> edge;    // the hyperedge being built
  std::vector<uint32_t> work;    // the acyclicity test's arrays
  /// Table 7: the term pairs of both canonical graphs, the nodes of one,
  /// and the graph itself.
  std::vector<std::pair<sparql::Term, sparql::Term>> term_edges;
  std::vector<sparql::Term> nodes;
  EdgeList edge_list;
  std::vector<uint32_t> parent, degree;  // the shape test's arrays
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
/// The same into `h` and `var_of_vertex`, both cleared first.
void BuildCanonicalHypergraph(const sparql::Query& query, Hypergraph* h,
                              std::vector<SymbolId>* var_of_vertex,
                              Scratch* scratch);

/// True iff the hypergraph is alpha-acyclic, i.e. the GYO reduction
/// (drop vertices in one edge only, drop edges inside other edges)
/// removes every edge. Decided in one pass over flat incidence arrays,
/// in O(N log N) for N the total edge size (see hypergraph.cc).
bool IsAcyclic(const Hypergraph& h);
bool IsAcyclic(const Hypergraph& h, Scratch* scratch);

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
bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic, Scratch* scratch);

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
std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         Scratch* scratch,
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
/// The forest classes are decided on the edge list; only a graph with a
/// cycle is built as a graph::SimpleGraph for the treewidth tests.
GraphShape ClassifyShape(const graph::SimpleGraph& g);
GraphShape ClassifyShape(const EdgeList& g, Scratch* scratch);

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

/// Table 7's two shape classes of a graph-CQ+F query: ClassifyShape of
/// both canonical graphs, built as edge lists in `scratch`.
struct QueryShapes {
  GraphShape with_constants = GraphShape::kOther;
  GraphShape without_constants = GraphShape::kOther;
};
QueryShapes ClassifyCanonicalShapes(const sparql::Query& query,
                                    Scratch* scratch);

}  // namespace rwdt::hypergraph

#endif  // RWDT_HYPERGRAPH_HYPERGRAPH_H_
