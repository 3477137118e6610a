#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

namespace rwdt::hypergraph {

void Hypergraph::AddEdge(std::vector<uint32_t> edge) {
  std::sort(edge.begin(), edge.end());
  edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
  for (uint32_t v : edge) {
    num_vertices = std::max<size_t>(num_vertices, v + 1);
  }
  edges.push_back(std::move(edge));
}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

/// Dense vertex numbers for query variables, in first-seen order: an
/// open-addressing table of vertex numbers, probed by variable id.
class VertexIndex {
 public:
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

  std::vector<SymbolId>& vars() { return vars_; }

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

  std::vector<uint32_t> slots_;  // vertex number, or kNone when empty
  std::vector<SymbolId> vars_;   // vertex -> variable
};

}  // namespace

Hypergraph BuildCanonicalHypergraph(const sparql::Query& query,
                                    std::vector<SymbolId>* var_of_vertex) {
  Hypergraph h;
  VertexIndex index;
  if (query.pattern != nullptr) {
    // Triples, then paths, then filters: the edge order is the order in
    // which the htw search tries them.
    const sparql::Pattern& root = *query.pattern;
    sparql::ForEachNode(root, [&](const sparql::Pattern& p) {
      if (p.op != sparql::Pattern::Op::kTriple) return;
      std::vector<uint32_t> edge;
      for (const sparql::Term* t : {&p.triple.s, &p.triple.p, &p.triple.o}) {
        if (t->ActsAsVar()) edge.push_back(index.Of(t->id));
      }
      if (!edge.empty()) h.AddEdge(std::move(edge));
    });
    // Property paths contribute their endpoint variables.
    sparql::ForEachNode(root, [&](const sparql::Pattern& p) {
      if (p.op != sparql::Pattern::Op::kPath) return;
      std::vector<uint32_t> edge;
      if (p.path.s.ActsAsVar()) edge.push_back(index.Of(p.path.s.id));
      if (p.path.o.ActsAsVar()) edge.push_back(index.Of(p.path.o.id));
      if (!edge.empty()) h.AddEdge(std::move(edge));
    });
    std::vector<SymbolId> vars;  // one filter's, reused
    sparql::ForEachNode(root, [&](const sparql::Pattern& p) {
      if (p.op != sparql::Pattern::Op::kFilter || p.filter == nullptr) return;
      vars.clear();
      p.filter->AppendVars(&vars);
      if (vars.empty()) return;
      // Numbered in variable-id order, as the edge's vertex set.
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
      std::vector<uint32_t> edge;
      edge.reserve(vars.size());
      for (SymbolId v : vars) edge.push_back(index.Of(v));
      h.AddEdge(std::move(edge));
    });
  }
  h.num_vertices = index.vars().size();
  if (var_of_vertex != nullptr) *var_of_vertex = std::move(index.vars());
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
/// sorted edge.
bool AcyclicWith(const Hypergraph& h, const std::vector<uint32_t>* extra) {
  const size_t m = h.edges.size() + (extra != nullptr ? 1 : 0);
  auto edge = [&](size_t e) -> const std::vector<uint32_t>& {
    return e < h.edges.size() ? h.edges[e] : *extra;
  };
  size_t n = 0, incidences = 0, widest = 0;
  for (size_t e = 0; e < m; ++e) {
    for (uint32_t v : edge(e)) n = std::max<size_t>(n, v + 1);
    incidences += edge(e).size();
    widest = std::max(widest, edge(e).size());
  }
  // One block holds every array; `take` hands out consecutive parts.
  std::vector<uint32_t> block(2 * n + 1 + incidences + 4 * m + widest + 1);
  uint32_t* next_free = block.data();
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
      const std::vector<uint32_t>& parent = edge(picked[latest]);
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

bool IsAcyclic(const Hypergraph& h) { return AcyclicWith(h, nullptr); }

bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices) {
  return IsFreeConnexAcyclic(h, free_vertices, IsAcyclic(h));
}

bool IsFreeConnexAcyclic(const Hypergraph& h,
                         const std::vector<uint32_t>& free_vertices,
                         bool acyclic) {
  if (!acyclic) return false;
  // An edge over every vertex contains all others: GYO removes them.
  if (free_vertices.empty() || free_vertices.size() == h.num_vertices) {
    return true;
  }
  return AcyclicWith(h, &free_vertices);
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

VertexSet Union(const VertexSet& a, const VertexSet& b) {
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
  GhwSolver(const Hypergraph& h, size_t k, size_t max_states)
      : h_(h), k_(k), max_states_(max_states) {
    size_t n = 0;
    for (const auto& e : h_.edges) {
      for (uint32_t v : e) n = std::max<size_t>(n, v + 1);
    }
    parent_.assign(n, 0);
    slot_.assign(n, 0);
    mark_.assign(n, 0);
    edge_mark_.assign(h_.edges.size(), 0);
    // Incidence lists: v's edges are incident_[first_[v], first_[v+1]).
    first_.assign(n + 1, 0);
    for (const auto& e : h_.edges) {
      for (uint32_t v : e) ++first_[v + 1];
    }
    for (size_t v = 0; v < n; ++v) first_[v + 1] += first_[v];
    incident_.resize(first_[n]);
    std::vector<uint32_t> fill(first_.begin(), first_.end() - 1);
    for (uint32_t i = 0; i < h_.edges.size(); ++i) {
      for (uint32_t v : h_.edges[i]) incident_[fill[v]++] = i;
    }
  }

  std::optional<bool> Solve() {
    VertexSet all;
    for (const auto& e : h_.edges) all.insert(all.end(), e.begin(), e.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return Decompose(all, {});
  }

 private:
  std::optional<bool> Decompose(const VertexSet& component,
                                const VertexSet& boundary) {
    if (component.empty()) return true;
    auto key = std::make_pair(component, boundary);
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
    for (size_t i = 0; i < h_.edges.size(); ++i) {
      if (Touches(h_.edges[i], scope)) candidates.push_back(i);
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
      const size_t cost = std::max<size_t>(1, h_.edges.size());
      if (work_ + cost > kSearchWork) return std::nullopt;
      work_ += cost;
      VertexSet bag;
      for (size_t i : *chosen) bag = Union(bag, h_.edges[i]);
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

  std::optional<bool> TryBag(const VertexSet& bag,
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
    for (const auto& e : h_.edges) {
      uint32_t anchor = kNone;  // the edge's first vertex in rest
      for (uint32_t v : e) {
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
          for (uint32_t u : h_.edges[e]) {
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

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// A value no vertex is marked with yet.
  uint32_t NewMark() { return ++last_mark_; }

  bool Touches(const VertexSet& edge, uint32_t mark) const {
    for (uint32_t v : edge) {
      if (mark_[v] == mark) return true;
    }
    return false;
  }

  const Hypergraph& h_;
  size_t k_;
  size_t max_states_;
  std::map<std::pair<VertexSet, VertexSet>, bool> memo_;
  size_t work_ = 0;   // units spent, against kSearchWork
  size_t depth_ = 0;  // open subproblems, against kSearchDepth
  std::vector<uint32_t> parent_;     // union-find over TryBag's rest
  std::vector<uint32_t> slot_;       // root -> its component's index
  std::vector<uint32_t> mark_;       // vertex -> the mark last set on it
  std::vector<uint32_t> edge_mark_;  // edge -> the mark last set on it
  std::vector<uint32_t> first_, incident_;  // vertex -> its edges
  uint32_t last_mark_ = 0;
};

}  // namespace

std::optional<bool> HypertreeWidthAtMost(const Hypergraph& h, size_t k,
                                         size_t max_states) {
  if (k == 0) return h.edges.empty();
  GhwSolver solver(h, k, max_states);
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

GraphShape ClassifyShape(const graph::SimpleGraph& g) {
  const size_t m = g.NumEdges();
  if (m == 0) return GraphShape::kNoEdge;
  if (m == 1) return GraphShape::kSingleEdge;
  const auto components = g.Components();
  const bool connected = components.size() <= 1;
  const bool forest = graph::IsForest(g);
  if (connected && forest) {
    size_t high_degree = 0;
    bool all_low = true;
    for (uint32_t v = 0; v < g.NumVertices(); ++v) {
      const size_t d = g.Neighbors(v).size();
      if (d > 2) {
        ++high_degree;
        all_low = false;
      }
    }
    if (all_low) return GraphShape::kChain;
    if (high_degree <= 1) return GraphShape::kStar;
    return GraphShape::kTree;
  }
  if (forest) return GraphShape::kForest;
  if (graph::TreewidthAtMost(g, 2).value_or(false)) {
    return GraphShape::kTreewidth2;
  }
  if (graph::TreewidthAtMost(g, 3).value_or(false)) {
    return GraphShape::kTreewidth3;
  }
  return GraphShape::kOther;
}

namespace {

/// Table 7's graph as term pairs, self-loops dropped: an edge per triple
/// pattern and property path (subject, object), then one per filter over
/// exactly two variables.
std::vector<std::pair<sparql::Term, sparql::Term>> CanonicalEdges(
    const sparql::Query& query) {
  std::vector<std::pair<sparql::Term, sparql::Term>> edges;
  if (query.pattern == nullptr) return edges;
  auto add = [&](const sparql::Term& a, const sparql::Term& b) {
    if (!(a == b)) edges.emplace_back(a, b);
  };
  const sparql::Pattern& root = *query.pattern;
  sparql::ForEachNode(root, [&](const sparql::Pattern& p) {
    if (p.op == sparql::Pattern::Op::kTriple) add(p.triple.s, p.triple.o);
  });
  sparql::ForEachNode(root, [&](const sparql::Pattern& p) {
    if (p.op == sparql::Pattern::Op::kPath) add(p.path.s, p.path.o);
  });
  std::vector<SymbolId> vars;  // one filter's, reused
  sparql::ForEachNode(root, [&](const sparql::Pattern& p) {
    if (p.op != sparql::Pattern::Op::kFilter || p.filter == nullptr) return;
    vars.clear();
    p.filter->AppendVars(&vars);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    if (vars.size() != 2) return;
    sparql::Term a, b;
    a.kind = sparql::Term::Kind::kVar;
    a.id = vars[0];
    b.kind = sparql::Term::Kind::kVar;
    b.id = vars[1];
    add(a, b);
  });
  return edges;
}

/// The graph over `edges`' endpoints, numbered in term order; without
/// constants, only the edges between two variables.
graph::SimpleGraph GraphOf(
    const std::vector<std::pair<sparql::Term, sparql::Term>>& edges,
    bool include_constants) {
  auto kept = [&](const std::pair<sparql::Term, sparql::Term>& e) {
    return include_constants || (e.first.ActsAsVar() && e.second.ActsAsVar());
  };
  std::vector<sparql::Term> nodes;
  for (const auto& e : edges) {
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
  graph::SimpleGraph g(nodes.size());
  for (const auto& e : edges) {
    if (kept(e)) g.AddEdge(node(e.first), node(e.second));
  }
  return g;
}

}  // namespace

CanonicalGraphs BuildCanonicalGraphs(const sparql::Query& query) {
  const auto edges = CanonicalEdges(query);
  return {GraphOf(edges, /*include_constants=*/true),
          GraphOf(edges, /*include_constants=*/false)};
}

}  // namespace rwdt::hypergraph
