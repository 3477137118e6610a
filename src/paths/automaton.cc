#include "paths/automaton.h"

#include <string>

namespace rwdt::paths {
namespace {

/// The most states the epsilon-closure walks visit in all. A state in a
/// closure that carries no labeled edge costs a visit but writes no
/// transition, and each of a path's up to kDefaultMaxDepth nested `*`
/// or `?` adds two such states around every step it wraps; without
/// this bound a 32 KB path of 128 steps, each under 250 stars, walked
/// closures for 1.1 s before its transitions passed their cap.
constexpr size_t kMaxClosureVisits = 4 * kMaxNfaTransitions;

Status TooLarge() {
  return Status::ResourceExhausted(
      "property path automaton needs more than " +
      std::to_string(kMaxNfaTransitions) + " transitions");
}

/// The states NfaBuilder::Build makes for `p`: two per operator, none
/// for `^`.
size_t StatesOf(const Path& p) {
  size_t n = p.op() == PathOp::kInverse ? 0 : 2;
  for (const auto& c : p.children()) n += StatesOf(*c);
  return n;
}

/// Thompson construction over an epsilon-NFA; `inverted` compiles the
/// reversal with flipped step directions, which is exactly the relation
/// inverse `^e` (so nested `^` costs nothing at runtime).
class NfaBuilder {
 public:
  struct Frag {
    uint32_t in = 0;
    uint32_t out = 0;
  };

  Frag Build(const Path& p, bool inverted) {
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
        // Forward-forbidden and inverse-forbidden sets: a set with only
        // inverse members steps backward only. Inversion swaps the roles
        // of the two components.
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
  /// contains `top.out`. Refused once the copied edges pass
  /// kMaxNfaTransitions, or the closure walks pass kMaxClosureVisits
  /// states in all. The walks share one stamp array and one queue, so a
  /// walk costs its closure, not a bit per state.
  Result<PathNfa> Finish(Frag top) {
    PathNfa nfa;
    const size_t n = edges_.size();
    nfa.adj.resize(n);
    nfa.accept.assign(n, false);
    nfa.start = top.in;
    // closure_of[r] == q + 1 while r is in the closure of q.
    std::vector<uint32_t> closure_of(n, 0);
    std::vector<uint32_t> queue;
    size_t transitions = 0;
    size_t visits = 0;
    for (uint32_t q = 0; q < n; ++q) {
      auto& adj = nfa.adj[q];
      queue.assign(1, q);
      closure_of[q] = q + 1;
      for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t r = queue[head];
        if (r == top.out) nfa.accept[q] = true;
        transitions += edges_[r].size();
        if (transitions > kMaxNfaTransitions ||
            ++visits > kMaxClosureVisits) {
          return TooLarge();
        }
        adj.insert(adj.end(), edges_[r].begin(), edges_[r].end());
        for (uint32_t nxt : eps_[r]) {
          if (closure_of[nxt] != q + 1) {
            closure_of[nxt] = q + 1;
            queue.push_back(nxt);
          }
        }
      }
      // Distinct epsilon paths can copy the same labeled edge several
      // times; duplicates would multiply product-sweep work.
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

Result<PathNfa> CompilePathNfa(const Path& path) {
  // The closure of each fragment's entry state reaches a step, so every
  // other state writes at least one transition: a path with more states
  // than twice the cap cannot fit, and is refused before it is built.
  if (StatesOf(path) > 2 * kMaxNfaTransitions) return TooLarge();
  NfaBuilder b;
  NfaBuilder::Frag top = b.Build(path, /*inverted=*/false);
  return b.Finish(top);
}

Result<std::vector<std::pair<SymbolId, SymbolId>>> EvalPathNfa(
    const graph::TripleStore& store, const PathNfa& nfa, SymbolId s,
    SymbolId o, uint64_t* steps, uint64_t max_steps) {
  std::vector<std::pair<SymbolId, SymbolId>> out;
  const uint32_t ns = static_cast<uint32_t>(nfa.num_states());
  if (ns == 0) return out;
  const std::vector<SymbolId>& all_terms = store.Terms();

  // Dense visited / emitted stamps over (term x state): every term the
  // sweeps can touch is a store term (all_terms is sorted) or one of the
  // bound endpoints, so ids are bounded and an epoch counter replaces
  // per-sweep set allocations.
  SymbolId max_id = all_terms.empty() ? 0 : all_terms.back();
  if (s != kInvalidSymbol) max_id = std::max(max_id, s);
  if (o != kInvalidSymbol) max_id = std::max(max_id, o);
  const size_t num_ids = static_cast<size_t>(max_id) + 1;
  std::vector<uint32_t> visited(num_ids * ns, 0);
  std::vector<uint32_t> emitted(num_ids, 0);
  uint32_t epoch = 0;
  std::vector<std::pair<SymbolId, uint32_t>> work;
  uint64_t charged = *steps;
  bool exhausted = false;

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
  std::vector<std::vector<Step>> sweep_steps(ns);
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
      sweep_steps[forward ? q : e.to].push_back(st);
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
    for (const Step& st : sweep_steps[state]) {
      if (st.dense != kScan) {
        const DenseSteps& d = dense[st.dense];
        for (uint32_t k = d.offsets[term]; k < d.offsets[term + 1]; ++k) {
          visit(d.targets[k], st.next);
        }
      } else {
        ForEachStep(store, *st.edge, forward, term,
                    [&](SymbolId y, const graph::Triple&) {
                      visit(y, st.next);
                    });
      }
    }
  };
  // Traversal order is immaterial for reachability, so the worklist is a
  // stack. A sweep stops at the first node past the budget.
  auto drain = [&](auto&& visit) {
    while (!work.empty() && !exhausted) {
      const auto [term, state] = work.back();
      work.pop_back();
      expand(term, state, visit);
    }
  };

  // One forward product sweep; emits (start, y) at every accepting
  // product node, including the seed (zero-length matches when
  // nullable). Each node is charged when it is first marked visited.
  auto forward_from = [&](SymbolId start) {
    ++epoch;
    work.clear();
    auto visit = [&](SymbolId term, uint32_t state) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      if (++charged > max_steps) {
        exhausted = true;
        return;
      }
      stamp = epoch;
      work.emplace_back(term, state);
      if (nfa.accept[state] && (o == kInvalidSymbol || o == term) &&
          emitted[term] != epoch) {
        emitted[term] = epoch;
        out.emplace_back(start, term);
      }
    };
    visit(start, nfa.start);
    drain(visit);
  };

  if (s != kInvalidSymbol) {
    forward_from(s);
  } else if (o != kInvalidSymbol) {
    // Backward sweep from the bound object over the reversed product;
    // reaching the start state at term x means x -> o in the path.
    ++epoch;
    auto visit = [&](SymbolId term, uint32_t state) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      if (++charged > max_steps) {
        exhausted = true;
        return;
      }
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
    drain(visit);
  } else {
    for (SymbolId start : all_terms) {
      if (exhausted) break;
      forward_from(start);
    }
  }
  *steps = charged;
  if (exhausted) {
    return Status::ResourceExhausted("evaluation exceeded " +
                                     std::to_string(max_steps) + " steps");
  }
  return out;
}

}  // namespace rwdt::paths
