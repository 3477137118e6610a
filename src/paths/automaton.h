#ifndef RWDT_PATHS_AUTOMATON_H_
#define RWDT_PATHS_AUTOMATON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "graph/rdf.h"
#include "paths/path.h"

namespace rwdt::paths {

/// A property path compiled to an epsilon-free NFA whose transitions are
/// direction-labeled graph steps (Section 9.6: SPARQL property paths are
/// 2RPQs). It is the one way the library evaluates a path: the SPARQL
/// evaluator and exec's path scans sweep it (EvalPathNfa), and MatchPath
/// searches it under walk, simple-path and trail semantics.
///
/// The four transition kinds:
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
  /// matches).
  bool nullable = false;

  size_t num_states() const { return adj.size(); }
};

/// The most transitions CompilePathNfa writes, counted before duplicates
/// are dropped. The epsilon-free construction is quadratic for a wide
/// alternation under a closure and for a long optional tail, so a short
/// query text could otherwise ask for gigabytes. The cap admits a
/// 254-way alternation under `*` (65,532 transitions), a tail of 208
/// optional steps and a sequence of about 32,700 steps, which compile in
/// 3 to 11 ms (RelWithDebInfo, GCC 12, one core of a shared VM); the
/// paths of real query logs are far smaller.
inline constexpr size_t kMaxNfaTransitions = size_t{1} << 16;

/// Compiles a property path AST to an epsilon-free NFA (Thompson
/// construction + epsilon elimination). Inverse subexpressions are
/// compiled by reversing the subautomaton and flipping step directions,
/// so `^` needs no runtime support. Total states are linear in the path
/// size. A path whose automaton would need more than kMaxNfaTransitions
/// transitions is refused with kResourceExhausted, and so is one whose
/// epsilon closures (deeply nested `*` or `?`) take more than four times
/// as many state visits to walk.
Result<PathNfa> CompilePathNfa(const Path& path);

/// All (start, end) pairs of the path over the store, each once and in
/// no specified order, via a sweep of the (graph term x NFA state)
/// product: bound `s`, one forward sweep; bound `o` alone, one backward
/// sweep; nothing bound, a forward sweep from every store term
/// (`TripleStore::Terms`). The sweep's arrays are indexed by a term's
/// rank in Terms(), so a call costs the store's size, however many
/// symbols the dictionary holds.
///
/// Zero-length matches follow the automaton: a nullable path matches a
/// bound endpoint to itself whether or not the store holds it, and with
/// both ends unbound it matches every store term to itself.
///
/// Each product node (term, state) the sweep marks visited adds one to
/// `*steps`; once `*steps` passes `max_steps` the sweep stops with
/// kResourceExhausted.
Result<std::vector<std::pair<SymbolId, SymbolId>>> EvalPathNfa(
    const graph::TripleStore& store, const PathNfa& nfa, SymbolId s,
    SymbolId o, uint64_t* steps, uint64_t max_steps);

/// Whether one application of edge `e` goes from a triple's subject to
/// its object. `forward` false walks the edge against its direction
/// (from its target term back to its source term), as a backward sweep
/// does; a forward edge walked forward and an inverse edge walked
/// backward both go from subject to object.
inline bool StepFromSubject(const PathNfa::Edge& e, bool forward) {
  using Kind = PathNfa::EdgeKind;
  return (e.kind == Kind::kFwd || e.kind == Kind::kNegFwd) == forward;
}

/// The index range that holds every triple one application of edge `e`
/// at term `t` may cross; a negated edge must still skip the triples
/// whose predicate its set names (StepSkips).
inline graph::TripleStore::TripleRange StepRange(
    const graph::TripleStore& store, const PathNfa::Edge& e, bool forward,
    SymbolId t) {
  using Kind = PathNfa::EdgeKind;
  const bool negated = e.kind == Kind::kNegFwd || e.kind == Kind::kNegInv;
  const bool from_subject = StepFromSubject(e, forward);
  return negated ? (from_subject ? store.RangeS(t) : store.RangeO(t))
                 : (from_subject ? store.RangeSP(t, e.iri)
                                 : store.RangePO(e.iri, t));
}

/// Whether edge `e` may not cross `tr`, a triple of its StepRange.
inline bool StepSkips(const PathNfa::Edge& e, const graph::Triple& tr) {
  return !e.negated.empty() &&
         std::binary_search(e.negated.begin(), e.negated.end(), tr.p);
}

/// One application of edge `e` at term `t`: calls `visit(y, triple)` for
/// every term y one step away and the triple that step crosses, in index
/// order.
template <typename Visit>
void ForEachStep(const graph::TripleStore& store, const PathNfa::Edge& e,
                 bool forward, SymbolId t, Visit&& visit) {
  const bool from_subject = StepFromSubject(e, forward);
  const auto [lo, hi] = StepRange(store, e, forward, t);
  for (const graph::Triple* tr = lo; tr != hi; ++tr) {
    if (StepSkips(e, *tr)) continue;
    visit(from_subject ? tr->o : tr->s, *tr);
  }
}

}  // namespace rwdt::paths

#endif  // RWDT_PATHS_AUTOMATON_H_
