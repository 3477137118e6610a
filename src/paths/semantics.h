#ifndef RWDT_PATHS_SEMANTICS_H_
#define RWDT_PATHS_SEMANTICS_H_

#include <cstdint>

#include "graph/rdf.h"
#include "paths/path.h"

namespace rwdt::paths {

/// Evaluation semantics for regular path queries (Section 9.6):
/// homomorphism (arbitrary walks, the SPARQL default — PTIME), simple
/// path (node-disjoint — NP-complete in general, tractable on C_tract),
/// and trail (edge-disjoint — tractable on T_tract).
enum class PathSemantics { kWalk, kSimplePath, kTrail };

struct PathMatch {
  bool decided = false;   // false: budget exhausted or path too large
  bool matched = false;
  uint64_t steps = 0;     // search steps expended
};

/// Does a path from `source` to `target` matching `path` exist under the
/// given semantics? All three search the path's automaton
/// (CompilePathNfa): walk semantics is one product sweep with both ends
/// bound, and always decides; simple-path and trail semantics backtrack
/// over the automaton's edges, and `budget` caps their search steps. A
/// path whose automaton CompilePathNfa refuses is left undecided.
PathMatch MatchPath(const graph::TripleStore& store, const Path& path,
                    SymbolId source, SymbolId target,
                    PathSemantics semantics, uint64_t budget = 1 << 22);

}  // namespace rwdt::paths

#endif  // RWDT_PATHS_SEMANTICS_H_
