#ifndef RWDT_EXEC_PATH_AUTOMATON_H_
#define RWDT_EXEC_PATH_AUTOMATON_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "graph/rdf.h"
#include "paths/path.h"

namespace rwdt::exec {

/// A property path compiled to an epsilon-free NFA whose transitions are
/// direction-labeled graph steps (Section 9.6: SPARQL property paths are
/// 2RPQs; simple transitive expressions admit NFA-product reachability
/// instead of the evaluator's recursive pair-set materialization).
///
/// Transition kinds mirror exactly the four atomic steps of
/// `Evaluator::EvalPathPairs`:
///   kFwd(p)      x -> y  when (x, p, y) in G
///   kInv(p)      x -> y  when (y, p, x) in G
///   kNegFwd(S)   x -> y  when (x, q, y) in G for some q not in S
///   kNegInv(S)   x -> y  when (y, q, x) in G for some q not in S
struct PathNfa {
  enum class EdgeKind { kFwd, kInv, kNegFwd, kNegInv };
  struct Edge {
    EdgeKind kind = EdgeKind::kFwd;
    SymbolId iri = kInvalidSymbol;       // kFwd / kInv
    std::vector<SymbolId> negated;       // kNegFwd / kNegInv (sorted)
    uint32_t to = 0;
  };

  std::vector<std::vector<Edge>> adj;  // out-edges per state
  uint32_t start = 0;
  std::vector<bool> accept;
  /// Whether the empty word is in the path language (zero-length
  /// matches: the `e*` / `e?` self-pairs of the evaluator).
  bool nullable = false;

  size_t num_states() const { return adj.size(); }
};

/// Compiles a property path AST to an epsilon-free NFA (Thompson
/// construction + epsilon elimination). Inverse subexpressions are
/// compiled by reversing the subautomaton and flipping step directions,
/// so `^` needs no runtime support. Total states are linear in the path
/// size; always succeeds.
PathNfa CompilePathNfa(const paths::Path& path);

/// All (start, end) pairs of the path over the store, each once and in
/// no specified order, via BFS on the (graph term x NFA state) product.
/// Fixing `s`/`o` restricts the search (bound `s`: one forward sweep;
/// bound `o` alone: one backward sweep).
/// Each call first turns every distinct labeled step into successor
/// lists over term ids, read from `RangeP`, so a product step is an
/// array slice rather than an index search; negated steps scan ranges.
///
/// `all_terms` must be the sorted subjects-union-objects of the store
/// (`TripleStore::Terms`) — it seeds the unbound sweeps and the
/// zero-length matches. The pair set is exactly
/// `Evaluator::EvalPathPairs(path, s, o)` whenever `o` is unbound, `s`
/// is bound, or `o` is in `all_terms`; the one remaining corner (s
/// unbound, o bound to a term with no incident edges) differs on
/// zero-length matches for bare `e?`, so callers fall back to the
/// evaluator there (see AutomatonPathScanOp).
std::vector<std::pair<SymbolId, SymbolId>> EvalPathNfa(
    const graph::TripleStore& store, const PathNfa& nfa,
    const std::vector<SymbolId>& all_terms, SymbolId s = kInvalidSymbol,
    SymbolId o = kInvalidSymbol);

}  // namespace rwdt::exec

#endif  // RWDT_EXEC_PATH_AUTOMATON_H_
