// Reproduces the Section 9.6 path-semantics story: evaluating the
// Table 8 path types under walk (SPARQL default), simple-path, and trail
// semantics. Walk semantics always decides quickly; the backtracking
// semantics stay fast on simple transitive expressions (C_tract /
// T_tract members) and blow their budget on adversarial instances.

#include <cstdio>

#include <chrono>

#include "common/interner.h"
#include "common/rng.h"
#include "common/table.h"
#include "graph/generators.h"
#include "paths/analysis.h"
#include "paths/semantics.h"

int main() {
  using namespace rwdt;
  using paths::PathSemantics;
  std::printf("=== Path semantics on Table 8 types (Section 9.6) ===\n");

  Interner dict;
  Rng rng(2022);
  // A dense-ish link graph: entity-to-entity edges under predicates
  // p0..p3.
  graph::TripleStore store;
  const size_t n = 400;
  std::vector<SymbolId> nodes;
  for (size_t i = 0; i < n; ++i) {
    nodes.push_back(dict.Intern("n" + std::to_string(i)));
  }
  std::vector<SymbolId> preds;
  for (int p = 0; p < 4; ++p) {
    preds.push_back(dict.Intern("p" + std::to_string(p)));
  }
  for (size_t i = 0; i < 4 * n; ++i) {
    store.Add(nodes[rng.NextBelow(n)], preds[rng.NextBelow(4)],
              nodes[rng.NextBelow(n)]);
  }

  const std::vector<std::string> exprs = {"p0*",       "p0/p1*", "p0+",
                                          "p0/p1*/p2", "p0*/p1*", "p0/p1",
                                          "(p0|p1)*"};
  // Answers go to stdout and timings to stderr, so the golden holds
  // only what does not vary from run to run.
  AsciiTable table({"path", "STE?", "walk decided", "simple-path decided",
                    "trail decided"});
  AsciiTable timings({"path", "walk us", "simple-path us", "trail us"});
  for (const auto& text : exprs) {
    auto parsed = paths::ParsePath(text, &dict);
    if (!parsed.ok()) return 1;
    const auto& path = *parsed.value();
    double us[3] = {0, 0, 0};
    int decided[3] = {0, 0, 0};
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      const SymbolId src = nodes[rng.NextBelow(n)];
      const SymbolId dst = nodes[rng.NextBelow(n)];
      const PathSemantics semantics[3] = {PathSemantics::kWalk,
                                          PathSemantics::kSimplePath,
                                          PathSemantics::kTrail};
      for (int s = 0; s < 3; ++s) {
        const auto start = std::chrono::steady_clock::now();
        const auto match =
            paths::MatchPath(store, path, src, dst, semantics[s],
                             /*budget=*/200000);
        const auto stop = std::chrono::steady_clock::now();
        us[s] += std::chrono::duration<double, std::micro>(stop - start)
                     .count();
        decided[s] += match.decided;
      }
    }
    auto of_trials = [&](int d) {
      return std::to_string(d) + "/" + std::to_string(trials);
    };
    table.AddRow({text,
                  paths::IsSimpleTransitiveExpression(path) ? "yes" : "no",
                  of_trials(decided[0]), of_trials(decided[1]),
                  of_trials(decided[2])});
    timings.AddRow({text, Fixed(us[0] / trials, 1), Fixed(us[1] / trials, 1),
                    Fixed(us[2] / trials, 1)});
  }
  std::printf("%s", table.Render().c_str());
  std::fprintf(stderr, "%s", timings.Render().c_str());
  std::printf(
      "\nShape to hold: walk semantics is uniformly cheap (PTIME); the\n"
      "backtracking semantics decide all queries here but pay visibly "
      "more on\nnon-STE types like p0*/p1* — the fragment boundary the "
      "Bagan-Bonifati-Groz\nand Martens-Trautner trichotomies draw.\n");
  return 0;
}
