#include "paths/semantics.h"

#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "paths/automaton.h"

namespace rwdt::paths {
namespace {

/// Depth-first backtracking over the (term x state) product for the
/// simple-path and trail semantics: a simple path may not revisit a
/// term, a trail may not cross a triple twice (in either direction).
/// The search path lives in an explicit stack, so its length is bounded
/// by the budget, not by the thread's stack.
class Searcher {
 public:
  Searcher(const graph::TripleStore& store, const PathNfa& nfa,
           PathSemantics semantics, uint64_t budget)
      : store_(store), nfa_(nfa), semantics_(semantics), budget_(budget) {}

  PathMatch Run(SymbolId source, SymbolId target) {
    PathMatch result;
    visited_nodes_ = {source};
    const bool matched = Search(source, target, &result.steps);
    result.matched = matched;
    result.decided = matched || !exhausted_;
    return result;
  }

 private:
  /// One product node of the search path: its term and state, the edge
  /// of nfa_.adj[state] it is trying and that edge's triples not tried
  /// yet, and the triple crossed to reach it (trail semantics).
  struct Frame {
    SymbolId node = kInvalidSymbol;
    uint32_t state = 0;
    uint32_t edge = 0;
    const graph::Triple* next = nullptr;
    const graph::Triple* end = nullptr;
    graph::Triple via;
  };

  /// Points `f` at the triples of its current edge, if it has one left.
  void StartEdge(Frame* f) const {
    const auto& edges = nfa_.adj[f->state];
    if (f->edge < edges.size()) {
      std::tie(f->next, f->end) =
          StepRange(store_, edges[f->edge], /*forward=*/true, f->node);
    } else {
      f->next = f->end = nullptr;
    }
  }

  /// Charges a step for entering (node, state) and pushes it unless
  /// that ends the search: kMatch when it completes a path, kStop when
  /// the budget is spent.
  enum class Entered { kPushed, kMatch, kStop };
  Entered Enter(SymbolId node, uint32_t state, const graph::Triple& via,
                SymbolId target, uint64_t* steps) {
    if (++*steps > budget_) {
      exhausted_ = true;
      return Entered::kStop;
    }
    if (node == target && nfa_.accept[state]) return Entered::kMatch;
    Frame f;
    f.node = node;
    f.state = state;
    f.via = via;
    StartEdge(&f);
    stack_.push_back(f);
    return Entered::kPushed;
  }

  /// Tries a node's edges in order and each edge's triples in index
  /// order, enters every unvisited successor, and unmarks a node once
  /// every edge out of it failed. The step counts follow from that
  /// order, and golden_path_semantics pins them.
  bool Search(SymbolId source, SymbolId target, uint64_t* steps) {
    stack_.clear();
    Entered entered = Enter(source, nfa_.start, {}, target, steps);
    while (entered == Entered::kPushed && !stack_.empty()) {
      Frame& f = stack_.back();
      if (f.next == f.end) {
        ++f.edge;
        if (f.edge < nfa_.adj[f.state].size()) {
          StartEdge(&f);
          continue;
        }
        // Every edge failed: unmark the node (the source stays marked).
        const Frame done = f;
        stack_.pop_back();
        if (stack_.empty()) break;
        if (semantics_ == PathSemantics::kSimplePath) {
          visited_nodes_.erase(done.node);
        } else {
          visited_edges_.erase(done.via);
        }
        continue;
      }
      const PathNfa::Edge& e = nfa_.adj[f.state][f.edge];
      const graph::Triple& triple = *f.next++;
      if (StepSkips(e, triple)) continue;
      const SymbolId next =
          StepFromSubject(e, /*forward=*/true) ? triple.o : triple.s;
      if (semantics_ == PathSemantics::kSimplePath) {
        if (!visited_nodes_.insert(next).second) continue;
      } else if (!visited_edges_.insert(triple).second) {
        continue;
      }
      entered = Enter(next, e.to, triple, target, steps);
    }
    return entered == Entered::kMatch;
  }

  const graph::TripleStore& store_;
  const PathNfa& nfa_;
  PathSemantics semantics_;
  uint64_t budget_;
  std::vector<Frame> stack_;
  std::set<SymbolId> visited_nodes_;
  std::set<graph::Triple> visited_edges_;
  bool exhausted_ = false;
};

}  // namespace

PathMatch MatchPath(const graph::TripleStore& store, const Path& path,
                    SymbolId source, SymbolId target,
                    PathSemantics semantics, uint64_t budget) {
  const Result<PathNfa> nfa = CompilePathNfa(path);
  if (!nfa.ok()) return {};  // too large to compile: undecided
  if (semantics == PathSemantics::kWalk) {
    PathMatch result;
    const auto pairs =
        EvalPathNfa(store, nfa.value(), source, target, &result.steps,
                    std::numeric_limits<uint64_t>::max());
    result.decided = true;
    result.matched = !pairs.value().empty();
    return result;
  }
  return Searcher(store, nfa.value(), semantics, budget).Run(source, target);
}

}  // namespace rwdt::paths
