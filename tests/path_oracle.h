#ifndef RWDT_TESTS_PATH_ORACLE_H_
#define RWDT_TESTS_PATH_ORACLE_H_

// The reference for property-path evaluation: a recursive pair-set
// algebra, one std::set per operator, that shares no code with the
// automaton (paths::CompilePathNfa / EvalPathNfa) the library runs. It
// charges no budget, so keep its stores and paths small.
//
// Zero-length matches differ from the automaton's in one corner only: an
// endpoint bound to a term the store does not hold. There a closure
// (`*`, `+`) gives the term a self-pair only when it is the bound
// subject, while `e?` gives one in every direction. Tests compare the two
// with endpoints unbound or bound to store terms (TripleStore::Terms),
// where they agree.

#include <algorithm>
#include <deque>
#include <set>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "graph/rdf.h"
#include "paths/path.h"

namespace rwdt {

/// All (start, end) pairs of `path` over `store`; fixing `s`/`o`
/// (non-wildcard) restricts them. Pair order is unspecified: compare as
/// sorted sets.
inline std::vector<std::pair<SymbolId, SymbolId>> OraclePathPairs(
    const graph::TripleStore& store, const paths::Path& path,
    SymbolId s = kInvalidSymbol, SymbolId o = kInvalidSymbol) {
  using paths::PathOp;
  using Pairs = std::vector<std::pair<SymbolId, SymbolId>>;
  switch (path.op()) {
    case PathOp::kIri: {
      Pairs out;
      for (const auto& t : store.Match(s, path.iri(), o)) {
        out.emplace_back(t.s, t.o);
      }
      return out;
    }
    case PathOp::kNegated: {
      Pairs out;
      // Forward-forbidden and inverse-forbidden sets.
      std::set<SymbolId> fwd, inv;
      for (const auto& [iri, inverted] : path.negated_set()) {
        (inverted ? inv : fwd).insert(iri);
      }
      if (inv.empty() || !fwd.empty()) {
        for (const auto& t : store.Match(s, kInvalidSymbol, o)) {
          if (fwd.count(t.p) == 0) out.emplace_back(t.s, t.o);
        }
      }
      if (!inv.empty()) {
        for (const auto& t : store.Match(o, kInvalidSymbol, s)) {
          if (inv.count(t.p) == 0) out.emplace_back(t.o, t.s);
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
    case PathOp::kInverse: {
      const Pairs pairs = OraclePathPairs(store, *path.child(), o, s);
      Pairs out;
      out.reserve(pairs.size());
      for (const auto& [x, y] : pairs) out.emplace_back(y, x);
      return out;
    }
    case PathOp::kSeq: {
      // Fold left; keep intermediate endpoints unrestricted.
      Pairs acc =
          OraclePathPairs(store, *path.children()[0], s, kInvalidSymbol);
      for (size_t i = 1; i < path.children().size(); ++i) {
        const bool last = i + 1 == path.children().size();
        std::set<std::pair<SymbolId, SymbolId>> next;
        for (const auto& [x, mid] : acc) {
          const Pairs step =
              OraclePathPairs(store, *path.children()[i], mid,
                              last ? o : kInvalidSymbol);
          for (const auto& [m2, y] : step) {
            (void)m2;
            next.emplace(x, y);
          }
        }
        acc.assign(next.begin(), next.end());
      }
      return acc;
    }
    case PathOp::kAlt: {
      std::set<std::pair<SymbolId, SymbolId>> out;
      for (const auto& c : path.children()) {
        const Pairs pairs = OraclePathPairs(store, *c, s, o);
        out.insert(pairs.begin(), pairs.end());
      }
      return Pairs(out.begin(), out.end());
    }
    case PathOp::kOptional: {
      const Pairs pairs = OraclePathPairs(store, *path.child(), s, o);
      std::set<std::pair<SymbolId, SymbolId>> out(pairs.begin(), pairs.end());
      // Zero-length matches: every graph term (restricted by s/o).
      if (s != kInvalidSymbol) {
        if (o == kInvalidSymbol || o == s) out.emplace(s, s);
      } else if (o != kInvalidSymbol) {
        out.emplace(o, o);
      } else {
        const std::vector<SymbolId>& terms = store.Terms();
        for (SymbolId t : terms) out.emplace(t, t);
      }
      return Pairs(out.begin(), out.end());
    }
    case PathOp::kStar:
    case PathOp::kPlus: {
      // BFS closure from each candidate start.
      std::vector<SymbolId> starts;
      if (s != kInvalidSymbol) {
        starts.push_back(s);
      } else {
        starts = store.Terms();
      }
      std::set<std::pair<SymbolId, SymbolId>> out;
      for (SymbolId start : starts) {
        std::set<SymbolId> seen;
        std::deque<SymbolId> queue;
        if (path.op() == PathOp::kStar) {
          if (o == kInvalidSymbol || o == start) out.emplace(start, start);
        }
        queue.push_back(start);
        seen.insert(start);
        while (!queue.empty()) {
          const SymbolId cur = queue.front();
          queue.pop_front();
          const Pairs step =
              OraclePathPairs(store, *path.child(), cur, kInvalidSymbol);
          for (const auto& [x, y] : step) {
            (void)x;
            if (seen.insert(y).second) queue.push_back(y);
            if (o == kInvalidSymbol || o == y) out.emplace(start, y);
          }
        }
      }
      // Deduplicate star self-pairs already handled; plus excludes them
      // unless reachable in >= 1 step (handled by construction).
      return Pairs(out.begin(), out.end());
    }
  }
  return Pairs{};
}

}  // namespace rwdt

#endif  // RWDT_TESTS_PATH_ORACLE_H_
