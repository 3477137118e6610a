#include "exec/path_automaton.h"

#include <algorithm>
#include <deque>
#include <set>

namespace rwdt::exec {
namespace {

/// Thompson construction over an epsilon-NFA; `inverted` compiles the
/// reversal with flipped step directions, which is exactly the relation
/// inverse `^e` (so nested `^` costs nothing at runtime).
class NfaBuilder {
 public:
  struct Frag {
    uint32_t in = 0;
    uint32_t out = 0;
  };

  Frag Build(const paths::Path& p, bool inverted) {
    using paths::PathOp;
    switch (p.op()) {
      case PathOp::kIri: {
        Frag f = NewFrag();
        AddEdge(f.in,
                {inverted ? PathNfa::EdgeKind::kInv : PathNfa::EdgeKind::kFwd,
                 p.iri(),
                 {},
                 f.out});
        return f;
      }
      case PathOp::kNegated: {
        // Forward-forbidden and inverse-forbidden sets, split the same
        // way Evaluator::EvalPathPairs splits them; inversion swaps the
        // roles of the two components.
        std::vector<SymbolId> fwd, inv;
        for (const auto& [iri, is_inv] : p.negated_set()) {
          (is_inv ? inv : fwd).push_back(iri);
        }
        std::sort(fwd.begin(), fwd.end());
        std::sort(inv.begin(), inv.end());
        Frag f = NewFrag();
        const bool has_fwd_component = inv.empty() || !fwd.empty();
        if (has_fwd_component) {
          AddEdge(f.in, {inverted ? PathNfa::EdgeKind::kNegInv
                                  : PathNfa::EdgeKind::kNegFwd,
                         kInvalidSymbol, fwd, f.out});
        }
        if (!inv.empty()) {
          AddEdge(f.in, {inverted ? PathNfa::EdgeKind::kNegFwd
                                  : PathNfa::EdgeKind::kNegInv,
                         kInvalidSymbol, inv, f.out});
        }
        return f;
      }
      case PathOp::kInverse:
        return Build(*p.child(), !inverted);
      case PathOp::kSeq: {
        Frag whole = NewFrag();
        uint32_t cur = whole.in;
        const auto& kids = p.children();
        for (size_t i = 0; i < kids.size(); ++i) {
          // Reversal distributes over concatenation in reverse order.
          const auto& child =
              inverted ? *kids[kids.size() - 1 - i] : *kids[i];
          Frag f = Build(child, inverted);
          AddEps(cur, f.in);
          cur = f.out;
        }
        AddEps(cur, whole.out);
        return whole;
      }
      case PathOp::kAlt: {
        Frag whole = NewFrag();
        for (const auto& c : p.children()) {
          Frag f = Build(*c, inverted);
          AddEps(whole.in, f.in);
          AddEps(f.out, whole.out);
        }
        return whole;
      }
      case PathOp::kStar: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, f.in);
        AddEps(f.out, whole.out);
        AddEps(whole.in, whole.out);
        return whole;
      }
      case PathOp::kPlus: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, f.in);
        AddEps(f.out, whole.out);
        return whole;
      }
      case PathOp::kOptional: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, whole.out);
        AddEps(whole.in, whole.out);
        return whole;
      }
    }
    return NewFrag();  // unreachable
  }

  /// Epsilon elimination: the final NFA has, for each state, the labeled
  /// out-edges of its epsilon closure, and accepts wherever the closure
  /// contains `final_state`.
  PathNfa Finish(Frag top) {
    PathNfa nfa;
    const size_t n = edges_.size();
    nfa.adj.resize(n);
    nfa.accept.assign(n, false);
    nfa.start = top.in;
    for (uint32_t q = 0; q < n; ++q) {
      std::vector<bool> in_closure(n, false);
      std::deque<uint32_t> queue{q};
      in_closure[q] = true;
      while (!queue.empty()) {
        const uint32_t r = queue.front();
        queue.pop_front();
        if (r == top.out) nfa.accept[q] = true;
        for (const auto& e : edges_[r]) nfa.adj[q].push_back(e);
        for (uint32_t nxt : eps_[r]) {
          if (!in_closure[nxt]) {
            in_closure[nxt] = true;
            queue.push_back(nxt);
          }
        }
      }
      // Distinct epsilon paths can copy the same labeled edge several
      // times; duplicates would multiply product-BFS work.
      auto& adj = nfa.adj[q];
      std::sort(adj.begin(), adj.end(),
                [](const PathNfa::Edge& a, const PathNfa::Edge& b) {
                  if (a.kind != b.kind) return a.kind < b.kind;
                  if (a.iri != b.iri) return a.iri < b.iri;
                  if (a.to != b.to) return a.to < b.to;
                  return a.negated < b.negated;
                });
      adj.erase(std::unique(adj.begin(), adj.end(),
                            [](const PathNfa::Edge& a, const PathNfa::Edge& b) {
                              return a.kind == b.kind && a.iri == b.iri &&
                                     a.to == b.to && a.negated == b.negated;
                            }),
                adj.end());
    }
    nfa.nullable = nfa.accept[nfa.start];
    return nfa;
  }

 private:
  uint32_t NewState() {
    edges_.emplace_back();
    eps_.emplace_back();
    return static_cast<uint32_t>(edges_.size() - 1);
  }
  Frag NewFrag() { return {NewState(), NewState()}; }
  void AddEdge(uint32_t from, PathNfa::Edge e) {
    edges_[from].push_back(std::move(e));
  }
  void AddEps(uint32_t from, uint32_t to) { eps_[from].push_back(to); }

  std::vector<std::vector<PathNfa::Edge>> edges_;
  std::vector<std::vector<uint32_t>> eps_;
};

/// One application of a negated edge `e` at `t`, in the direction a
/// sweep walks it: calls `visit(y)` for every term one step away,
/// scanning the store's zero-copy ranges. A kNegFwd edge walked forward
/// and a kNegInv edge walked backward both go from subject to object.
template <typename Visit>
void ForEachNegatedStep(const graph::TripleStore& store,
                        const PathNfa::Edge& e, bool forward, SymbolId t,
                        Visit&& visit) {
  const bool from_subject = (e.kind == PathNfa::EdgeKind::kNegFwd) == forward;
  const auto [lo, hi] = from_subject ? store.RangeS(t) : store.RangeO(t);
  for (const graph::Triple* tr = lo; tr != hi; ++tr) {
    if (!std::binary_search(e.negated.begin(), e.negated.end(), tr->p)) {
      visit(from_subject ? tr->o : tr->s);
    }
  }
}

/// Successor lists over term ids for one labeled step in the direction
/// a sweep walks it: from term t the step reaches
/// targets[offsets[t], offsets[t + 1]).
struct DenseSteps {
  std::vector<uint32_t> offsets;  // num_ids + 1 entries
  std::vector<SymbolId> targets;
};

/// The lists of the triples (x, iri, y), keyed by x and reaching y when
/// `from_subject`, else keyed by y and reaching x; one pass over
/// RangeP(iri). Every key must be below `num_ids`.
DenseSteps BuildDenseSteps(const graph::TripleStore& store, SymbolId iri,
                           bool from_subject, size_t num_ids) {
  DenseSteps d;
  d.offsets.assign(num_ids + 1, 0);
  const auto [lo, hi] = store.RangeP(iri);
  for (const graph::Triple* tr = lo; tr != hi; ++tr) {
    ++d.offsets[from_subject ? tr->s : tr->o];
  }
  // Running sums make offsets[t] the end of t's list; placing triples
  // back to front then moves it to the start, keeping index order.
  uint32_t total = 0;
  for (uint32_t& end : d.offsets) {
    total += end;
    end = total;
  }
  d.targets.resize(total);
  for (const graph::Triple* tr = hi; tr != lo;) {
    --tr;
    const SymbolId key = from_subject ? tr->s : tr->o;
    d.targets[--d.offsets[key]] = from_subject ? tr->o : tr->s;
  }
  return d;
}

}  // namespace

PathNfa CompilePathNfa(const paths::Path& path) {
  NfaBuilder b;
  NfaBuilder::Frag top = b.Build(path, /*inverted=*/false);
  return b.Finish(top);
}

std::vector<std::pair<SymbolId, SymbolId>> EvalPathNfa(
    const graph::TripleStore& store, const PathNfa& nfa,
    const std::vector<SymbolId>& all_terms, SymbolId s, SymbolId o) {
  std::vector<std::pair<SymbolId, SymbolId>> out;
  const uint32_t ns = static_cast<uint32_t>(nfa.num_states());
  if (ns == 0) return out;

  // Dense visited / emitted stamps over (term x state): every term the
  // sweeps can touch is a store term (all_terms is sorted) or one of the
  // bound endpoints, so ids are bounded and an epoch counter replaces
  // per-BFS set allocations.
  SymbolId max_id = all_terms.empty() ? 0 : all_terms.back();
  if (s != kInvalidSymbol) max_id = std::max(max_id, s);
  if (o != kInvalidSymbol) max_id = std::max(max_id, o);
  const size_t num_ids = static_cast<size_t>(max_id) + 1;
  std::vector<uint32_t> visited(num_ids * ns, 0);
  std::vector<uint32_t> emitted(num_ids, 0);
  uint32_t epoch = 0;
  std::vector<std::pair<SymbolId, uint32_t>> work;

  // Bound s, or nothing bound: forward sweeps. Bound o alone: one
  // backward sweep over the reversed product.
  const bool forward = s != kInvalidSymbol || o == kInvalidSymbol;

  // The product steps out of each state in the sweep's direction: to
  // state `next`, through dense list `dense` for a labeled edge, or
  // through a negated edge's range scan. A kFwd edge walked forward and
  // a kInv edge walked backward both go from subject to object; one list
  // serves every edge with the same (iri, direction).
  constexpr uint32_t kScan = 0xffffffffu;
  struct Step {
    uint32_t next = 0;
    uint32_t dense = kScan;
    const PathNfa::Edge* edge = nullptr;
  };
  std::vector<std::vector<Step>> steps(ns);
  std::vector<std::pair<SymbolId, bool>> keys;  // (iri, from_subject)
  for (uint32_t q = 0; q < ns; ++q) {
    for (const auto& e : nfa.adj[q]) {
      Step st{forward ? e.to : q, kScan, &e};
      if (e.kind == PathNfa::EdgeKind::kFwd ||
          e.kind == PathNfa::EdgeKind::kInv) {
        const std::pair<SymbolId, bool> key = {
            e.iri, (e.kind == PathNfa::EdgeKind::kFwd) == forward};
        st.dense = static_cast<uint32_t>(
            std::find(keys.begin(), keys.end(), key) - keys.begin());
        if (st.dense == keys.size()) keys.push_back(key);
      }
      steps[forward ? q : e.to].push_back(st);
    }
  }
  // Built over the stamps' id range, so a bound endpoint above every
  // store term steps to nothing.
  std::vector<DenseSteps> dense;
  dense.reserve(keys.size());
  for (const auto& [iri, from_subject] : keys) {
    dense.push_back(BuildDenseSteps(store, iri, from_subject, num_ids));
  }
  auto expand = [&](SymbolId term, uint32_t state, auto&& visit) {
    for (const Step& st : steps[state]) {
      if (st.dense != kScan) {
        const DenseSteps& d = dense[st.dense];
        for (uint32_t k = d.offsets[term]; k < d.offsets[term + 1]; ++k) {
          visit(d.targets[k], st.next);
        }
      } else {
        ForEachNegatedStep(store, *st.edge, forward, term,
                           [&](SymbolId y) { visit(y, st.next); });
      }
    }
  };

  // One forward product sweep; emits (start, y) at every accepting
  // product node, including the seed (zero-length matches when
  // nullable). Traversal order is immaterial for reachability, so the
  // worklist is a stack.
  auto forward_from = [&](SymbolId start) {
    ++epoch;
    work.clear();
    auto visit = [&](SymbolId term, uint32_t state) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      stamp = epoch;
      work.emplace_back(term, state);
      if (nfa.accept[state] && (o == kInvalidSymbol || o == term) &&
          emitted[term] != epoch) {
        emitted[term] = epoch;
        out.emplace_back(start, term);
      }
    };
    visit(start, nfa.start);
    while (!work.empty()) {
      const auto [term, state] = work.back();
      work.pop_back();
      expand(term, state, visit);
    }
  };

  if (s != kInvalidSymbol) {
    forward_from(s);
  } else if (o != kInvalidSymbol) {
    // Backward sweep from the bound object over the reversed product;
    // reaching the start state at term x means x -> o in the path.
    // Callers must ensure o is in all_terms (see header).
    ++epoch;
    auto visit = [&](SymbolId term, uint32_t state) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      stamp = epoch;
      work.emplace_back(term, state);
      if (state == nfa.start && emitted[term] != epoch) {
        emitted[term] = epoch;
        out.emplace_back(term, o);
      }
    };
    for (uint32_t q = 0; q < ns; ++q) {
      if (nfa.accept[q]) visit(o, q);
    }
    while (!work.empty()) {
      const auto [term, state] = work.back();
      work.pop_back();
      expand(term, state, visit);
    }
  } else {
    for (SymbolId start : all_terms) forward_from(start);
  }
  return out;
}

}  // namespace rwdt::exec
