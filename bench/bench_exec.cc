// Classifier-dispatched execution vs the naive evaluator (ROADMAP item
// 1: make the classifier actionable). For each certified fragment the
// planner specializes — acyclic CQ (Yannakakis), bounded-htw CQ+F
// (decomposition-guided hash joins), simple transitive property paths
// (NFA-product reachability), well-designed OPTIONAL (hash left joins)
// — this bench runs the same query through `sparql::Evaluator` and
// through `exec::Executor`, checks the bags agree, and reports the
// speedup to BENCH_exec.json.
//
// RWDT_SCALE divides the store size (bigger value = smaller run; CI
// smoke uses RWDT_SCALE=6). When RWDT_EXEC_GATE is set the binary exits
// non-zero unless every classifier-picked plan is at least as fast as
// the naive evaluator — the regression gate CI runs on capable machines.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/table.h"
#include "exec/planner.h"
#include "graph/generators.h"
#include "sparql/eval.h"
#include "sparql/parser.h"
#include "study_util.h"

namespace {

using namespace rwdt;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct ClassResult {
  std::string name;
  std::string query;
  std::string strategy;
  size_t rows = 0;
  double naive_seconds = 0;
  double exec_seconds = 0;
  double speedup = 0;
  bool agree = false;
};

std::vector<sparql::Binding> Sorted(std::vector<sparql::Binding> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

int main() {
  const uint64_t scale = bench::ScaleFromEnv(1);
  auto trace = bench::MaybeStartBenchTrace();
  auto self_profile = bench::MaybeStartBenchProfile("profile.collapsed");
  std::printf("=== Classifier-dispatched execution vs naive (scale %llu) "
              "===\n",
              static_cast<unsigned long long>(scale));

  // One synthetic store stressing every specialized fragment: dense
  // random layers on p0..p2 (joins explode naively), plus p3 arranged in
  // disjoint chains (transitive closure stays linear per chain).
  Interner dict;
  Rng rng(2022);
  graph::TripleStore store;
  const uint64_t n = std::max<uint64_t>(120, 2400 / scale);
  const uint64_t edges = std::max<uint64_t>(240, 3000 / scale);
  for (const char* pred : {"p0", "p1", "p2"}) {
    const SymbolId p = dict.Intern(pred);
    for (uint64_t i = 0; i < edges; ++i) {
      store.Add(dict.Intern("n" + std::to_string(rng.NextBelow(n))), p,
                dict.Intern("n" + std::to_string(rng.NextBelow(n))));
    }
  }
  const SymbolId p3 = dict.Intern("p3");
  for (uint64_t i = 0; i + 1 < n; ++i) {
    if ((i + 1) % 12 == 0) continue;  // break into chains of 12
    store.Add(dict.Intern("n" + std::to_string(i)), p3,
              dict.Intern("n" + std::to_string(i + 1)));
  }

  const struct {
    const char* name;
    const char* text;
    const char* want_strategy;
  } classes[] = {
      {"acyclic_cq",
       "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }", "yannakakis"},
      {"cyclic_htw2",
       "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
       "htw_join_order"},
      // A C2RPQ: the naive evaluator nested-loops the path's full pair
      // set against the scan; the executor hash-joins them.
      {"ste_path", "SELECT * WHERE { ?x p3* ?y . ?y p1 ?z }",
       "nfa_path_product"},
      // Bare path scan: both sides sweep the same path automaton for the
      // same pair set, so this measures exec's planning and flat rows
      // against the naive side's one Binding per pair.
      {"ste_path_scan", "SELECT * WHERE { ?x p0/p3* ?y }",
       "nfa_path_product"},
      {"wd_optional",
       "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
       "pattern_tree"},
  };

  // The naive side joins path closures by nested loop; give both sides
  // enough step budget that the comparison measures time, not limits.
  sparql::EvalLimits limits;
  limits.max_steps = 1ull << 33;
  exec::ExecOptions exec_options;
  exec_options.limits = limits;
  sparql::Evaluator eval(store, &dict, limits);
  exec::Executor executor(store, &dict, exec_options);
  std::vector<ClassResult> results;
  bool all_ok = true;

  for (const auto& cls : classes) {
    ClassResult r;
    r.name = cls.name;
    r.query = cls.text;
    auto q = sparql::ParseSparql(cls.text, &dict);
    if (!q.ok()) {
      std::fprintf(stderr, "parse failed: %s\n", cls.text);
      return 1;
    }

    auto t0 = std::chrono::steady_clock::now();
    auto naive = eval.EvalQuery(q.value());
    r.naive_seconds = Seconds(std::chrono::steady_clock::now() - t0);
    if (!naive.ok()) {
      std::fprintf(stderr, "naive eval failed: %s\n",
                   naive.status().ToString().c_str());
      return 1;
    }

    // Planning (classification included) is part of the measured cost:
    // the comparison is end-to-end "what a caller pays".
    t0 = std::chrono::steady_clock::now();
    auto plan = executor.MakePlan(q.value());
    if (!plan.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    auto fast = executor.Execute(plan.value());
    r.exec_seconds = Seconds(std::chrono::steady_clock::now() - t0);
    if (!fast.ok()) {
      std::fprintf(stderr, "exec failed: %s\n",
                   fast.status().ToString().c_str());
      return 1;
    }

    r.strategy = exec::StrategyName(plan.value().strategy);
    r.rows = fast.value().size();
    r.agree = Sorted(naive.value()) == Sorted(fast.value());
    r.speedup = r.exec_seconds > 0 ? r.naive_seconds / r.exec_seconds : 0;
    if (r.strategy != cls.want_strategy) {
      std::fprintf(stderr, "%s: expected strategy %s, planner picked %s\n",
                   cls.name, cls.want_strategy, r.strategy.c_str());
      all_ok = false;
    }
    if (!r.agree) {
      std::fprintf(stderr, "%s: executor and evaluator bags DISAGREE\n",
                   cls.name);
      all_ok = false;
    }
    results.push_back(std::move(r));
  }

  AsciiTable table(
      {"Class", "Strategy", "Rows", "Naive (ms)", "Exec (ms)", "Speedup"});
  for (const auto& r : results) {
    char naive_ms[32], exec_ms[32], speedup[32];
    std::snprintf(naive_ms, sizeof(naive_ms), "%.2f",
                  r.naive_seconds * 1e3);
    std::snprintf(exec_ms, sizeof(exec_ms), "%.2f", r.exec_seconds * 1e3);
    std::snprintf(speedup, sizeof(speedup), "%.1fx", r.speedup);
    table.AddRow({r.name, r.strategy, WithThousands(r.rows), naive_ms,
                  exec_ms, speedup});
  }
  std::printf("%s", table.Render().c_str());

  // BENCH_exec.json: one self-contained record for the perf dashboard.
  {
    std::string out;
    JsonWriter w(&out);
    w.BeginObject();
    w.StringField("bench", "bench_exec");
    w.Key("provenance");
    w.Raw(bench::ProvenanceJson());
    w.UIntField("scale", scale);
    w.UIntField("store_triples", store.size());
    w.Key("classes");
    w.BeginArray();
    for (const auto& r : results) {
      w.BeginObject();
      w.StringField("class", r.name);
      w.StringField("query", r.query);
      w.StringField("strategy", r.strategy);
      w.UIntField("rows", r.rows);
      w.Key("naive_seconds");
      w.Double(r.naive_seconds);
      w.Key("exec_seconds");
      w.Double(r.exec_seconds);
      w.Key("speedup");
      w.Double(r.speedup);
      w.BoolField("agree", r.agree);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    FILE* f = std::fopen("BENCH_exec.json", "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", out.c_str());
      std::fclose(f);
      std::printf("\nwrote BENCH_exec.json\n");
    }
  }

  // Regression gate (CI sets RWDT_EXEC_GATE on capable runners): every
  // classifier-picked plan must be at least as fast as the naive
  // evaluator, and the bags must agree.
  if (std::getenv("RWDT_EXEC_GATE") != nullptr) {
    for (const auto& r : results) {
      if (r.speedup < 1.0) {
        std::fprintf(stderr,
                     "GATE: %s slower than naive (%.2fx < 1.0x)\n",
                     r.name.c_str(), r.speedup);
        all_ok = false;
      }
    }
  }

  bench::FinishBenchTrace(std::move(trace));
  bench::FinishBenchProfile(std::move(self_profile));
  return all_ok ? 0 : 1;
}
