#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

namespace rwdt::hypergraph {

void Hypergraph::AddEdge(const std::vector<uint32_t>& edge) {
  const auto begin = static_cast<std::ptrdiff_t>(vertices.size());
  vertices.insert(vertices.end(), edge.begin(), edge.end());
  std::sort(vertices.begin() + begin, vertices.end());
  vertices.erase(std::unique(vertices.begin() + begin, vertices.end()),
                 vertices.end());
  for (uint32_t v : edge) {
    num_vertices = std::max<size_t>(num_vertices, v + 1);
  }
  ends.push_back(static_cast<uint32_t>(vertices.size()));
}

void Hypergraph::Clear() {
  num_vertices = 0;
  vertices.clear();
  ends.clear();
}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// Dense vertex numbers for query variables, in first-seen order: an
/// open-addressing table of vertex numbers, probed by variable id. Both
/// arrays are the caller's, cleared here and reused.
class VertexIndex {
 public:
  VertexIndex(std::vector<uint32_t>* slots, std::vector<SymbolId>* vars)
      : slots_(*slots), vars_(*vars) {
    slots_.clear();
    vars_.clear();
  }

  uint32_t Of(SymbolId var) {
    if (2 * (vars_.size() + 1) > slots_.size()) Grow();
    for (size_t i = Slot(var);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == kNone) {
        slots_[i] = static_cast<uint32_t>(vars_.size());
        vars_.push_back(var);
        return slots_[i];
      }
      if (vars_[slots_[i]] == var) return slots_[i];
    }
  }

 private:
  size_t Slot(SymbolId var) const {
    return (static_cast<uint64_t>(var) * 0x9E3779B97F4A7C15ull >> 32) &
           (slots_.size() - 1);
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kNone);
    for (uint32_t v = 0; v < vars_.size(); ++v) {
      size_t i = Slot(vars_[v]);
      while (slots_[i] != kNone) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = v;
    }
  }

  std::vector<uint32_t>& slots_;  // vertex number, or kNone when empty
  std::vector<SymbolId>& vars_;   // vertex -> variable
};

/// Sorts `vars` and drops repeats.
void SortUnique(std::vector<SymbolId>* vars) {
  std::sort(vars->begin(), vars->end());
  vars->erase(std::unique(vars->begin(), vars->end()), vars->end());
}

}  // namespace

void BuildCanonicalHypergraph(const sparql::Query& query, Hypergraph* h,
                              std::vector<SymbolId>* var_of_vertex,
                              Scratch* scratch) {
  h->Clear();
  VertexIndex index(&scratch->slots, var_of_vertex);
  std::vector<uint32_t>& edge = scratch->edge;
  // Triples, then paths, then filters: the edge order is the order in
  // which the htw search tries them.
  sparql::ForEachNode(query, [&](const sparql::Pattern& p) {
    if (p.op != sparql::Pattern::Op::kTriple) return;
    edge.clear();
    for (const sparql::Term* t : {&p.triple.s, &p.triple.p, &p.triple.o}) {
      if (t->ActsAsVar()) edge.push_back(index.Of(t->id));
    }
    if (!edge.empty()) h->AddEdge(edge);
  });
  // Property paths contribute their endpoint variables.
  sparql::ForEachNode(query, [&](const sparql::Pattern& p) {
    if (p.op != sparql::Pattern::Op::kPath) return;
    const sparql::PathTriple& path = query.path(p);
    edge.clear();
    if (path.s.ActsAsVar()) edge.push_back(index.Of(path.s.id));
    if (path.o.ActsAsVar()) edge.push_back(index.Of(path.o.id));
    if (!edge.empty()) h->AddEdge(edge);
  });
  std::vector<SymbolId>& vars = scratch->vars;  // one filter's
  sparql::ForEachNode(query, [&](const sparql::Pattern& p) {
    if (p.op != sparql::Pattern::Op::kFilter || p.filter == nullptr) return;
    vars.clear();
    query.AppendVars(query.filter(p.filter), &vars);
    if (vars.empty()) return;
    // Numbered in variable-id order, as the edge's vertex set.
    SortUnique(&vars);
    edge.clear();
    for (SymbolId v : vars) edge.push_back(index.Of(v));
    h->AddEdge(edge);
  });
  h->num_vertices = var_of_vertex->size();
}

Hypergraph BuildCanonicalHypergraph(const sparql::Query& query,
                                    std::vector<SymbolId>* var_of_vertex) {
  Hypergraph h;
  Scratch scratch;
  std::vector<SymbolId> vars;
  BuildCanonicalHypergraph(query, &h,
                           var_of_vertex != nullptr ? var_of_vertex : &vars,
                           &scratch);
  return h;
}

namespace {

/// Alpha-acyclicity of h's edges plus `extra` (sorted; none when null),
/// by Tarjan and Yannakakis' restricted maximum cardinality search
/// (SIAM J. Comput. 13(3), 1984, Section 4). It answers what the GYO
/// reduction answers, without GYO's pairwise containment rounds.
///
/// The search picks, at every step, an unpicked edge with the most
/// vertices already reached, and reaches the rest of its vertices. The
/// hypergraph is acyclic iff every picked edge's already-reached
/// vertices all lie in one edge: the edge that reached the latest of
/// them. (If the hypergraph is acyclic, the pick order has the running
/// intersection property, so a join tree hangs each edge below an
/// earlier one; the reached vertices' subtrees then all pass through
/// that edge.) Buckets of unpicked edges by reached count make each pick
/// O(1) amortized; each containment check is a binary search in a
/// sorted edge. Every array lives in `work`.
bool AcyclicWith(const Hypergraph& h, const std::vector<uint32_t>* extra,
                 std::vector<uint32_t>* work) {
  const size_t m = h.num_edges() + (extra != nullptr ? 1 : 0);
  auto edge = [&](size_t e) -> std::span<const uint32_t> {
    return e < h.num_edges() ? h.edge(e) : std::span<const uint32_t>(*extra);
  };
  size_t n = 0, incidences = 0, widest = 0;
  for (size_t e = 0; e < m; ++e) {
    for (uint32_t v : edge(e)) n = std::max<size_t>(n, v + 1);
    incidences += edge(e).size();
    widest = std::max(widest, edge(e).size());
  }
  // One block holds every array; `take` hands out consecutive parts.
  work->resize(2 * n + 1 + incidences + 4 * m + widest + 1);
  uint32_t* next_free = work->data();
  auto take = [&](size_t size, uint32_t fill) {
    uint32_t* part = next_free;
    std::fill(part, part + size, fill);
    next_free += size;
    return part;
  };
  // Vertex v's edges are inc[first[v], first[v + 1]).
  uint32_t* first = take(n + 1, 0);
  uint32_t* inc = take(incidences, 0);
  uint32_t* reached_at = take(n, kNone);  // step that reached v
  uint32_t* count = take(m, 0);           // reached vertices; kNone once picked
  uint32_t* next = take(m, kNone);        // bucket lists, doubly linked
  uint32_t* prev = take(m, kNone);
  uint32_t* picked = take(m, kNone);      // edge picked at each step
  uint32_t* head = take(widest + 1, kNone);  // bucket by reached count

  for (size_t e = 0; e < m; ++e) {
    for (uint32_t v : edge(e)) ++first[v];
  }
  for (size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  for (size_t e = m; e-- > 0;) {
    for (uint32_t v : edge(e)) inc[--first[v]] = static_cast<uint32_t>(e);
  }
  auto unlink = [&](uint32_t e) {
    if (prev[e] != kNone) {
      next[prev[e]] = next[e];
    } else {
      head[count[e]] = next[e];
    }
    if (next[e] != kNone) prev[next[e]] = prev[e];
  };
  auto link = [&](uint32_t e) {
    prev[e] = kNone;
    next[e] = head[count[e]];
    if (next[e] != kNone) prev[next[e]] = e;
    head[count[e]] = e;
  };
  for (size_t e = m; e-- > 0;) link(static_cast<uint32_t>(e));

  size_t top = 0;  // no bucket above it holds an edge
  for (uint32_t step = 0; step < m; ++step) {
    while (head[top] == kNone) --top;
    const uint32_t e = head[top];
    unlink(e);
    count[e] = kNone;
    picked[step] = e;
    uint32_t latest = kNone;
    for (uint32_t v : edge(e)) {
      if (reached_at[v] != kNone &&
          (latest == kNone || reached_at[v] > latest)) {
        latest = reached_at[v];
      }
    }
    if (latest != kNone) {
      const std::span<const uint32_t> parent = edge(picked[latest]);
      for (uint32_t v : edge(e)) {
        if (reached_at[v] != kNone &&
            !std::binary_search(parent.begin(), parent.end(), v)) {
          return false;
        }
      }
    }
    for (uint32_t v : edge(e)) {
      if (reached_at[v] != kNone) continue;
      reached_at[v] = step;
      for (uint32_t i = first[v]; i < first[v + 1]; ++i) {
        const uint32_t f = inc[i];
        if (count[f] == kNone) continue;
        unlink(f);
        ++count[f];
        link(f);
        top = std::max<size_t>(top, count[f]);
      }
    }
  }
  return true;
}

}  // namespace

bool IsAcyclic(const Hypergraph& h) {
  std::vector<uint32_t> work;
  return AcyclicWith(h, nullptr, &work);
}

bool IsAcyclic(const Hypergraph& h, Scratch* scratch) {
  return AcyclicWith(h, nullptr, &scratch->work);
}

bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices) {
  return IsFreeConnexAcyclic(h, free_vertices, IsAcyclic(h));
}

bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic) {
  Scratch scratch;
  return IsFreeConnexAcyclic(h, free_vertices, acyclic, &scratch);
}

bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic, Scratch* scratch) {
  if (!acyclic) return false;
  // An edge over every vertex contains all others: GYO removes them.
  if (free_vertices.empty() || free_vertices.size() == h.num_vertices) {
    return true;
  }
  return AcyclicWith(h, &free_vertices, &scratch->work);
}

namespace {

using VertexSet = std::vector<uint32_t>;  // sorted

/// Work one htw search may do before it answers "unknown". A bag tried
/// costs one unit per hyperedge, the edges it scans to split the
/// component, so a search over 64 edges may try 2^16 bags. The Table 2
/// profiles at RWDT_SCALE=500 run 2,149 searches, the largest doing
/// 2,560 units (128 bags over 20 edges), and no search of the
/// hypergraph property tests does more than 1,215.
constexpr size_t kSearchWork = size_t{1} << 22;

/// Subproblems one search may nest, each holding a few stack frames.
/// Real searches nest at most 20 deep.
constexpr size_t kSearchDepth = 256;

VertexSet Union(const VertexSet& a, std::span<const uint32_t> b) {
  VertexSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool Subset(const VertexSet& a, const VertexSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

class GhwSolver {
 public:
  /// The per-vertex and per-edge arrays live in `block`.
  GhwSolver(const Hypergraph& h, size_t k, size_t max_states,
            std::vector<uint32_t>* block)
      : h_(h), k_(k), max_states_(max_states) {
    size_t n = 0;
    for (uint32_t v : h_.vertices) n = std::max<size_t>(n, v + 1);
    block->assign(4 * n + 1 + h_.num_edges() + h_.vertices.size(), 0);
    uint32_t* next_free = block->data();
    auto take = [&](size_t size) {
      uint32_t* part = next_free;
      next_free += size;
      return part;
    };
    parent_ = take(n);
    slot_ = take(n);
    mark_ = take(n);
    edge_mark_ = take(h_.num_edges());
    // Incidence lists: v's edges are incident_[first_[v], first_[v+1]).
    first_ = take(n + 1);
    incident_ = take(h_.vertices.size());
    for (uint32_t v : h_.vertices) ++first_[v + 1];
    for (size_t v = 0; v < n; ++v) first_[v + 1] += first_[v];
    // slot_ serves as each vertex's fill cursor until TryBag needs it.
    std::copy(first_, first_ + n, slot_);
    for (uint32_t i = 0; i < h_.num_edges(); ++i) {
      for (uint32_t v : h_.edge(i)) incident_[slot_[v]++] = i;
    }
  }

  std::optional<bool> Solve() {
    VertexSet all(h_.vertices.begin(), h_.vertices.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return Decompose(all, {});
  }

 private:
  std::optional<bool> Decompose(const VertexSet& component,
                                const VertexSet& boundary) {
    if (component.empty()) return true;
    // The component, a separator no vertex equals, then the boundary.
    VertexSet key;
    key.reserve(component.size() + 1 + boundary.size());
    key.insert(key.end(), component.begin(), component.end());
    key.push_back(kNone);
    key.insert(key.end(), boundary.begin(), boundary.end());
    auto memo = memo_.find(key);
    if (memo != memo_.end()) return memo->second;
    if (memo_.size() > max_states_ || depth_ == kSearchDepth) {
      return std::nullopt;
    }
    // Assume failure while in progress (cycle guard).
    memo = memo_.emplace(std::move(key), false).first;

    // Candidate bag edges: those touching the component or boundary.
    const uint32_t scope = NewMark();
    for (uint32_t v : component) mark_[v] = scope;
    for (uint32_t v : boundary) mark_[v] = scope;
    std::vector<size_t> candidates;
    for (size_t i = 0; i < h_.num_edges(); ++i) {
      if (Touches(h_.edge(i), scope)) candidates.push_back(i);
    }

    // Enumerate subsets of <= k candidate edges.
    std::vector<size_t> chosen;
    ++depth_;
    const std::optional<bool> found =
        EnumerateBags(candidates, 0, &chosen, component, boundary);
    --depth_;
    if (found.has_value()) memo->second = *found;
    return found;
  }

  std::optional<bool> EnumerateBags(const std::vector<size_t>& candidates,
                                    size_t from, std::vector<size_t>* chosen,
                                    const VertexSet& component,
                                    const VertexSet& boundary) {
    if (!chosen->empty()) {
      const size_t cost = std::max<size_t>(1, h_.num_edges());
      if (work_ + cost > kSearchWork) return std::nullopt;
      work_ += cost;
      const VertexSet bag = BagOf(*chosen);
      auto r = TryBag(bag, component, boundary);
      if (!r.has_value()) return std::nullopt;  // resource limit
      if (*r) return true;
    }
    if (chosen->size() == k_) return false;
    for (size_t i = from; i < candidates.size(); ++i) {
      chosen->push_back(candidates[i]);
      auto r = EnumerateBags(candidates, i + 1, chosen, component,
                             boundary);
      chosen->pop_back();
      if (!r.has_value()) return std::nullopt;
      if (*r) return true;
    }
    return false;
  }

  // Out of line for the reason BagOf is: inlined, its temporaries would
  // sit in every one of EnumerateBags' nested frames.
  [[gnu::noinline]] std::optional<bool> TryBag(const VertexSet& bag,
                             const VertexSet& component,
                             const VertexSet& boundary) {
    if (!Subset(boundary, bag)) return false;
    // Split component \ bag into connected [component]-subcomponents.
    VertexSet rest;
    std::set_difference(component.begin(), component.end(), bag.begin(),
                        bag.end(), std::back_inserter(rest));
    if (rest.empty()) return true;
    // Union-find over rest vertices via edges. The order of the unions
    // fixes the roots, and the roots the order in which the components
    // are tried below.
    const uint32_t in_rest = NewMark();
    for (uint32_t v : rest) {
      parent_[v] = v;
      mark_[v] = in_rest;
    }
    for (size_t e = 0; e < h_.num_edges(); ++e) {
      uint32_t anchor = kNone;  // the edge's first vertex in rest
      for (uint32_t v : h_.edge(e)) {
        if (mark_[v] != in_rest) continue;
        if (anchor == kNone) {
          anchor = v;
          continue;
        }
        const uint32_t root = Find(anchor);
        parent_[Find(v)] = root;
      }
    }
    // Components by ascending root, each in ascending vertex order.
    const uint32_t is_root = NewMark();
    std::vector<uint32_t> roots;
    for (uint32_t v : rest) {
      const uint32_t root = Find(v);
      if (mark_[root] != is_root) {
        mark_[root] = is_root;
        roots.push_back(root);
      }
    }
    std::sort(roots.begin(), roots.end());
    for (uint32_t i = 0; i < roots.size(); ++i) slot_[roots[i]] = i;
    std::vector<VertexSet> comps(roots.size());
    for (uint32_t v : rest) comps[slot_[Find(v)]].push_back(v);
    for (const VertexSet& comp : comps) {
      // New boundary: bag vertices on the edges the component touches.
      // Marked afresh for each component: the recursion below reuses the
      // marks.
      const uint32_t in_bag = NewMark();
      const uint32_t seen = NewMark();
      for (uint32_t v : bag) mark_[v] = in_bag;
      VertexSet new_boundary;
      for (uint32_t v : comp) {
        for (uint32_t i = first_[v]; i < first_[v + 1]; ++i) {
          const uint32_t e = incident_[i];
          if (edge_mark_[e] == seen) continue;
          edge_mark_[e] = seen;
          for (uint32_t u : h_.edge(e)) {
            if (mark_[u] == in_bag) new_boundary.push_back(u);
          }
        }
      }
      std::sort(new_boundary.begin(), new_boundary.end());
      new_boundary.erase(
          std::unique(new_boundary.begin(), new_boundary.end()),
          new_boundary.end());
      const VertexSet sub = Union(comp, new_boundary);
      auto r = Decompose(sub, new_boundary);
      if (!r.has_value()) return std::nullopt;
      if (!*r) return false;
    }
    return true;
  }

  /// The union of the chosen edges. Out of line: EnumerateBags recurses
  /// once per chosen edge within every subproblem, so its frame must stay
  /// small (with the sort inlined it took 10 KB under ASan, and the
  /// search overflowed an 8 MiB stack at the 256-subproblem bound).
  [[gnu::noinline]] VertexSet BagOf(const std::vector<size_t>& chosen) const {
    VertexSet bag;
    for (size_t i : chosen) {
      bag.insert(bag.end(), h_.edge(i).begin(), h_.edge(i).end());
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    return bag;
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// A value no vertex is marked with yet.
  uint32_t NewMark() { return ++last_mark_; }

  bool Touches(std::span<const uint32_t> edge, uint32_t mark) const {
    for (uint32_t v : edge) {
      if (mark_[v] == mark) return true;
    }
    return false;
  }

  const Hypergraph& h_;
  size_t k_;
  size_t max_states_;
  std::map<VertexSet, bool> memo_;  // keyed as in Decompose
  size_t work_ = 0;   // units spent, against kSearchWork
  size_t depth_ = 0;  // open subproblems, against kSearchDepth
  uint32_t* parent_;     // union-find over TryBag's rest
  uint32_t* slot_;       // root -> its component's index
  uint32_t* mark_;       // vertex -> the mark last set on it
  uint32_t* edge_mark_;  // edge -> the mark last set on it
  uint32_t* first_;      // vertex -> its edges, in incident_
  uint32_t* incident_;
  uint32_t last_mark_ = 0;
};

}  // namespace

std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         size_t max_states) {
  Scratch scratch;
  return HypertreeWidthAtMost(h, k, &scratch, max_states);
}

std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         Scratch* scratch,
                                         size_t max_states) {
  if (k == 0) return h.num_edges() == 0;
  GhwSolver solver(h, k, max_states, &scratch->work);
  return solver.Solve();
}

std::string GraphShapeName(GraphShape shape) {
  switch (shape) {
    case GraphShape::kNoEdge:
      return "no edge";
    case GraphShape::kSingleEdge:
      return "<= 1 edge";
    case GraphShape::kChain:
      return "chain";
    case GraphShape::kStar:
      return "star";
    case GraphShape::kTree:
      return "tree";
    case GraphShape::kForest:
      return "forest";
    case GraphShape::kTreewidth2:
      return "tw <= 2";
    case GraphShape::kTreewidth3:
      return "tw <= 3";
    case GraphShape::kOther:
      return "other";
  }
  return "?";
}

GraphShape ClassifyShape(const EdgeList& g, Scratch* scratch) {
  const size_t m = g.edges.size();
  if (m == 0) return GraphShape::kNoEdge;
  if (m == 1) return GraphShape::kSingleEdge;
  // Union-find over the edges: an edge inside one component closes a
  // cycle, and every other edge merges two components.
  std::vector<uint32_t>& parent = scratch->parent;
  std::vector<uint32_t>& degree = scratch->degree;
  parent.resize(g.num_vertices);
  std::iota(parent.begin(), parent.end(), 0u);
  degree.assign(g.num_vertices, 0);
  auto find = [&](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  bool forest = true;
  size_t merges = 0;
  for (const auto& [u, v] : g.edges) {
    ++degree[u];
    ++degree[v];
    const uint32_t ru = find(u), rv = find(v);
    if (ru == rv) {
      forest = false;
    } else {
      parent[ru] = rv;
      ++merges;
    }
  }
  const bool connected = g.num_vertices - merges <= 1;
  if (connected && forest) {
    size_t high_degree = 0;
    for (uint32_t d : degree) high_degree += d > 2 ? 1 : 0;
    if (high_degree == 0) return GraphShape::kChain;
    if (high_degree <= 1) return GraphShape::kStar;
    return GraphShape::kTree;
  }
  if (forest) return GraphShape::kForest;
  // A graph with a cycle: the treewidth tests take a graph::SimpleGraph.
  graph::SimpleGraph sg(g.num_vertices);
  for (const auto& [u, v] : g.edges) sg.AddEdge(u, v);
  if (graph::TreewidthAtMost(sg, 2).value_or(false)) {
    return GraphShape::kTreewidth2;
  }
  if (graph::TreewidthAtMost(sg, 3).value_or(false)) {
    return GraphShape::kTreewidth3;
  }
  return GraphShape::kOther;
}

GraphShape ClassifyShape(const graph::SimpleGraph& g) {
  Scratch scratch;
  EdgeList& list = scratch.edge_list;
  list.num_vertices = g.NumVertices();
  for (uint32_t v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t u : g.Neighbors(v)) {
      if (u > v) list.edges.emplace_back(v, u);
    }
  }
  return ClassifyShape(list, &scratch);
}

namespace {

/// Table 7's graph as term pairs in `scratch->term_edges`, self-loops
/// dropped: an edge per triple pattern and property path (subject,
/// object), then one per filter over exactly two variables.
void CollectTermEdges(const sparql::Query& query, Scratch* scratch) {
  auto& edges = scratch->term_edges;
  edges.clear();
  auto add = [&](const sparql::Term& a, const sparql::Term& b) {
    if (!(a == b)) edges.emplace_back(a, b);
  };
  sparql::ForEachNode(query, [&](const sparql::Pattern& p) {
    if (p.op == sparql::Pattern::Op::kTriple) add(p.triple.s, p.triple.o);
  });
  sparql::ForEachNode(query, [&](const sparql::Pattern& p) {
    if (p.op == sparql::Pattern::Op::kPath) {
      add(query.path(p).s, query.path(p).o);
    }
  });
  std::vector<SymbolId>& vars = scratch->vars;  // one filter's
  sparql::ForEachNode(query, [&](const sparql::Pattern& p) {
    if (p.op != sparql::Pattern::Op::kFilter || p.filter == nullptr) return;
    vars.clear();
    query.AppendVars(query.filter(p.filter), &vars);
    SortUnique(&vars);
    if (vars.size() != 2) return;
    sparql::Term a, b;
    a.kind = sparql::Term::Kind::kVar;
    a.id = vars[0];
    b.kind = sparql::Term::Kind::kVar;
    b.id = vars[1];
    add(a, b);
  });
}

/// Fills `scratch->edge_list` with the graph over the term pairs' endpoints,
/// numbered in term order; without constants, only the pairs of two
/// variables.
void BuildGraph(bool include_constants, Scratch* scratch) {
  auto kept = [&](const std::pair<sparql::Term, sparql::Term>& e) {
    return include_constants || (e.first.ActsAsVar() && e.second.ActsAsVar());
  };
  std::vector<sparql::Term>& nodes = scratch->nodes;
  nodes.clear();
  for (const auto& e : scratch->term_edges) {
    if (!kept(e)) continue;
    nodes.push_back(e.first);
    nodes.push_back(e.second);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  auto node = [&](const sparql::Term& t) {
    return static_cast<uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), t) - nodes.begin());
  };
  EdgeList& g = scratch->edge_list;
  g.num_vertices = nodes.size();
  g.edges.clear();
  for (const auto& e : scratch->term_edges) {
    if (!kept(e)) continue;
    const uint32_t u = node(e.first), v = node(e.second);
    g.edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(g.edges.begin(), g.edges.end());
  g.edges.erase(std::unique(g.edges.begin(), g.edges.end()), g.edges.end());
}

graph::SimpleGraph ToSimpleGraph(const EdgeList& list) {
  graph::SimpleGraph g(list.num_vertices);
  for (const auto& [u, v] : list.edges) g.AddEdge(u, v);
  return g;
}

}  // namespace

CanonicalGraphs BuildCanonicalGraphs(const sparql::Query& query) {
  Scratch scratch;
  CollectTermEdges(query, &scratch);
  CanonicalGraphs graphs;
  BuildGraph(/*include_constants=*/true, &scratch);
  graphs.with_constants = ToSimpleGraph(scratch.edge_list);
  BuildGraph(/*include_constants=*/false, &scratch);
  graphs.without_constants = ToSimpleGraph(scratch.edge_list);
  return graphs;
}

QueryShapes ClassifyCanonicalShapes(const sparql::Query& query,
                                    Scratch* scratch) {
  CollectTermEdges(query, scratch);
  QueryShapes shapes;
  BuildGraph(/*include_constants=*/true, scratch);
  shapes.with_constants = ClassifyShape(scratch->edge_list, scratch);
  BuildGraph(/*include_constants=*/false, scratch);
  shapes.without_constants = ClassifyShape(scratch->edge_list, scratch);
  return shapes;
}

}  // namespace rwdt::hypergraph
