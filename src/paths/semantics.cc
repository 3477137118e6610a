#include "paths/semantics.h"

#include <limits>
#include <set>

#include "paths/automaton.h"

namespace rwdt::paths {
namespace {

/// Depth-first backtracking over the (term x state) product for the
/// simple-path and trail semantics: a simple path may not revisit a
/// term, a trail may not cross a triple twice (in either direction).
class Searcher {
 public:
  Searcher(const graph::TripleStore& store, const PathNfa& nfa,
           PathSemantics semantics, uint64_t budget)
      : store_(store), nfa_(nfa), semantics_(semantics), budget_(budget) {}

  PathMatch Run(SymbolId source, SymbolId target) {
    PathMatch result;
    visited_nodes_ = {source};
    const bool matched = Dfs(source, nfa_.start, target, &result.steps);
    result.matched = matched;
    result.decided = matched || !exhausted_;
    return result;
  }

 private:
  bool Dfs(SymbolId node, uint32_t state, SymbolId target, uint64_t* steps) {
    if (++*steps > budget_) {
      exhausted_ = true;
      return false;
    }
    if (node == target && nfa_.accept[state]) return true;
    for (const PathNfa::Edge& e : nfa_.adj[state]) {
      bool found = false;
      ForEachStep(store_, e, /*forward=*/true, node,
                  [&](SymbolId next, const graph::Triple& triple) {
                    if (found || exhausted_) return;
                    if (semantics_ == PathSemantics::kSimplePath) {
                      if (!visited_nodes_.insert(next).second) return;
                      found = Dfs(next, e.to, target, steps);
                      if (!found) visited_nodes_.erase(next);
                    } else {  // trail
                      if (!visited_edges_.insert(triple).second) return;
                      found = Dfs(next, e.to, target, steps);
                      if (!found) visited_edges_.erase(triple);
                    }
                  });
      if (found) return true;
      if (exhausted_) return false;
    }
    return false;
  }

  const graph::TripleStore& store_;
  const PathNfa& nfa_;
  PathSemantics semantics_;
  uint64_t budget_;
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
