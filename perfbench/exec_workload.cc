// exec-mix: query -> rows. A closed loop on one thread runs a fixed mix
// with at least one query per planner strategy; each iteration is
// Executor::MakePlan + Execute over a seeded synthetic store.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/planner.h"
#include "graph/rdf.h"
#include "layers.h"
#include "sparql/eval.h"
#include "sparql/parser.h"

namespace perfbench {

namespace {

// Store shape (after bench_exec): random layers on p0..p2, where naive
// joins explode, and p3 in disjoint chains of 12, where transitive
// closure stays linear per chain. Every node has exactly two distinct
// out-edges per layer, so the rows a join chain yields, and with them
// the work per query, do not depend on the seed.
constexpr uint64_t kNodes = 1000;
constexpr uint64_t kOutDegree = 2;
constexpr uint64_t kChainLength = 12;

struct MixQuery {
  const char* name;
  const char* text;
  const char* strategy;  // what the planner must pick
};

constexpr std::array<MixQuery, 7> kMix = {{
    {"acyclic_cq", "SELECT * WHERE { ?a p0 ?b . ?b p1 ?c . ?c p2 ?d }",
     "yannakakis"},
    {"cyclic_triangle", "SELECT * WHERE { ?x p0 ?y . ?y p1 ?z . ?z p2 ?x }",
     "htw_join_order"},
    {"filtered_chain",
     "SELECT ?a ?c WHERE { ?a p0 ?b . ?b p1 ?c FILTER(?a != ?c) }",
     "htw_join_order"},
    {"ste_path", "SELECT * WHERE { ?x p3* ?y . ?y p1 ?z }",
     "nfa_path_product"},
    {"ste_path_scan", "SELECT * WHERE { ?x p0/p3* ?y }", "nfa_path_product"},
    {"wd_optional", "SELECT * WHERE { ?x p0 ?y OPTIONAL { ?y p1 ?z } }",
     "pattern_tree"},
    {"union", "SELECT * WHERE { { ?x p0 ?y } UNION { ?x p2 ?y } }",
     "fallback"},
}};

constexpr const char* kStrategies[] = {"yannakakis", "htw_join_order",
                                       "nfa_path_product", "pattern_tree",
                                       "fallback"};

// One set-up takes ~4 ms, too short to time steadily on its own: each
// timed sample builds kBuildsPerSample states, and setup_s is the median
// of kSetups samples, per build.
constexpr int kSetups = 15;
constexpr int kBuildsPerSample = 8;
// trace.overhead_share compares this many traced cycles with as many
// untraced ones; one cycle is too short to time on its own.
constexpr int kOverheadCycles = 5;
constexpr int kReplayRounds = 20;

struct ExecState {
  Dict dict;
  rwdt::graph::TripleStore store;
  std::vector<rwdt::sparql::Query> queries;
  std::unique_ptr<rwdt::exec::Executor> executor;
  uint64_t fingerprint = 0;
};

rwdt::exec::ExecOptions MakeExecOptions() {
  // The reference evaluator nested-loops path closures; give it (and
  // the executor) enough step budget to finish every query.
  rwdt::exec::ExecOptions options;
  options.limits.max_steps = 1ull << 33;
  return options;
}

std::unique_ptr<ExecState> BuildState(uint64_t seed) {
  auto s = std::make_unique<ExecState>();
  rwdt::Rng rng(seed);
  auto add = [&](const std::string& subject, const char* predicate,
                 const std::string& object) {
    s->store.Add(s->dict.Intern(subject), s->dict.Intern(predicate),
                 s->dict.Intern(object));
    s->fingerprint = Fingerprint(subject + ' ' + predicate + ' ' + object + '\n',
                                 s->fingerprint);
  };
  for (const char* p : {"p0", "p1", "p2"}) {
    for (uint64_t i = 0; i < kNodes; ++i) {
      uint64_t previous = kNodes;
      for (uint64_t e = 0; e < kOutDegree; ++e) {
        uint64_t target = rng.NextBelow(kNodes);
        while (target == previous) target = rng.NextBelow(kNodes);
        previous = target;
        add("n" + std::to_string(i), p, "n" + std::to_string(target));
      }
    }
  }
  // Chains start at a seeded offset so every seed shifts them.
  const uint64_t offset = rng.NextBelow(kChainLength);
  for (uint64_t i = 0; i + 1 < kNodes; ++i) {
    if ((i + offset + 1) % kChainLength == 0) continue;
    add("n" + std::to_string(i), "p3", "n" + std::to_string(i + 1));
  }
  for (const MixQuery& mq : kMix) {
    auto q = rwdt::sparql::ParseSparql(mq.text, &s->dict);
    if (!q.ok()) {
      std::fprintf(stderr, "perfbench: cannot parse %s\n", mq.name);
      std::exit(1);
    }
    s->queries.push_back(std::move(q).value());
  }
  s->store.size();  // finishes the store's lazy index build
  s->executor = std::make_unique<rwdt::exec::Executor>(s->store, &s->dict,
                                                       MakeExecOptions());
  return s;
}

/// Order-independent digest of a bag of bindings: a sum of row hashes,
/// so two bags match exactly when they hold the same rows as often.
struct BagDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const BagDigest&) const = default;
};

BagDigest Digest(const std::vector<rwdt::sparql::Binding>& bag) {
  BagDigest d;
  for (const rwdt::sparql::Binding& row : bag) {
    uint64_t h = rwdt::kHashSeed;
    for (const auto& [var, value] : row) {
      h = rwdt::Hash64(std::string_view(reinterpret_cast<const char*>(&var),
                                        sizeof(var)),
                       h ^ value);
    }
    ++d.rows;
    d.sum += h;
  }
  return d;
}

struct Execution {
  double plan_ns = 0;
  double execute_ns = 0;
  std::string strategy;
  BagDigest bag;
  bool ok = false;
};

/// One MakePlan + Execute, each inside its own span when traced.
Execution RunOne(const ExecState& s, size_t i, Tracer* tracer) {
  Execution e;
  const uint64_t t0 = NowNs();
  rwdt::Result<rwdt::exec::Plan> plan = rwdt::Status::Ok();
  {
    Scope span(tracer, "exec.plan");
    plan = s.executor->MakePlan(s.queries[i]);
  }
  const uint64_t t1 = NowNs();
  if (!plan.ok()) return e;
  rwdt::Result<std::vector<rwdt::sparql::Binding>> rows = rwdt::Status::Ok();
  {
    Scope span(tracer, "exec.execute");
    rows = s.executor->Execute(plan.value());
  }
  const uint64_t t2 = NowNs();
  e.plan_ns = static_cast<double>(t1 - t0);
  e.execute_ns = static_cast<double>(t2 - t1);
  e.strategy = rwdt::exec::StrategyName(plan.value().strategy);
  if (rows.ok()) {
    e.bag = Digest(rows.value());
    e.ok = true;
  }
  return e;
}

/// One pass over the mix; returns its wall in ns (plan + execute only).
double Cycle(const ExecState& s, const std::vector<BagDigest>& refs,
             Tracer* tracer, Outcome* out) {
  double cycle_ns = 0;
  for (size_t i = 0; i < kMix.size(); ++i) {
    const Execution e = RunOne(s, i, tracer);
    cycle_ns += e.plan_ns + e.execute_ns;
    out->Op(e.ok && e.bag == refs[i] && e.strategy == kMix[i].strategy,
            kMix[i].name);
  }
  return cycle_ns;
}

}  // namespace

void RunExecMix(const Options& options, Outcome* out) {
  // A sample's states are released untimed, after it.
  std::vector<std::unique_ptr<ExecState>> built;
  std::vector<uint64_t> fingerprints;
  auto keep_fingerprints = [&] {
    for (const auto& s : built) fingerprints.push_back(s->fingerprint);
  };
  const double setup_s =
      MedianSetupSeconds(kSetups,
                         [&] {
                           keep_fingerprints();
                           built.clear();
                         },
                         [&] {
                           for (int b = 0; b < kBuildsPerSample; ++b) {
                             built.push_back(BuildState(options.seed));
                           }
                         }) /
      kBuildsPerSample;
  keep_fingerprints();
  const std::unique_ptr<ExecState> state = std::move(built.back());
  built.clear();
  out->Check(std::all_of(fingerprints.begin(), fingerprints.end(),
                         [&](uint64_t f) { return f == fingerprints.front(); }),
             "same seed gives identical inputs");
  out->Check(BuildState(options.seed + 1)->fingerprint != fingerprints.front(),
             "another seed gives other inputs");

  // Reference bags, untimed: the naive evaluator over the same store.
  std::vector<BagDigest> refs;
  {
    const rwdt::sparql::Evaluator eval(state->store, &state->dict,
                                       MakeExecOptions().limits);
    for (size_t i = 0; i < kMix.size(); ++i) {
      auto bag = eval.EvalQuery(state->queries[i]);
      out->Check(bag.ok(), "reference evaluation");
      refs.push_back(bag.ok() ? Digest(bag.value()) : BagDigest{});
    }
  }

  if (!options.trace) {
    Cycle(*state, refs, nullptr, out);  // warm-up
    TrimHeap();
    out->Check(ResetPeakRss(getpid()), "reset peak RSS");
    std::vector<double> cycles_ms;
    const uint64_t deadline =
        NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
    while (NowNs() < deadline) {
      cycles_ms.push_back(Cycle(*state, refs, nullptr, out) / 1e6);
    }
    PrintSpread("cycle ms", cycles_ms);
    out->Add("setup_s", "s", setup_s);
    out->Add("peak_rss_mb", "MiB", PeakRssMiB(getpid()));
    // Throughput from the fastest cycle (see Outcome). The latency metric
    // is per cycle too: single executions of ~0.3 to ~9 ms take the full
    // hit of short interference bursts, and their p99, overall or per
    // query, moved by 13-22% between runs.
    out->Add("items_per_s", "1/s",
             static_cast<double>(kMix.size()) / (Percentile(cycles_ms, 0) / 1e3));
    out->Add("p99_ms", "ms", Percentile(cycles_ms, 0.99));
    return;
  }

  Tracer tracer(options.seed);
  double baseline_ns = 0;
  for (int i = 0; i < kOverheadCycles; ++i) {
    baseline_ns += Cycle(*state, refs, nullptr, out);
  }
  double root_ns = 0;
  {
    Scope root(&tracer, "run.exec-mix");
    for (int i = 0; i < kOverheadCycles; ++i) {
      root_ns += Cycle(*state, refs, &tracer, out);
    }
  }

  std::map<std::string, std::vector<double>> execute_ns;  // by strategy
  double rows = 0;
  {
    Scope replay(&tracer, "run.replay");
    for (int round = 0; round < kReplayRounds; ++round) {
      for (size_t i = 0; i < kMix.size(); ++i) {
        const Execution e = RunOne(*state, i, &tracer);
        out->Check(e.ok && e.bag == refs[i], "replayed execution");
        execute_ns[e.strategy].push_back(e.execute_ns);
        if (round == 0) rows += static_cast<double>(e.bag.rows);
      }
    }
  }
  double fallback_ns = 0;
  double all_ns = 0;
  for (const auto& [strategy, ns] : execute_ns) {
    for (const double v : ns) {
      all_ns += v;
      if (strategy == "fallback") fallback_ns += v;
    }
  }
  out->Add("exec.plan_us_p50", "us", Median(tracer.DurationsNs("exec.plan")) / 1e3);
  for (const char* strategy : kStrategies) {
    out->Add(std::string("exec.execute_ms_p50.") + strategy, "ms",
             Median(execute_ns[strategy]) / 1e6);
  }
  out->Add("exec.rows", "count", rows);
  out->Add("exec.fallback_share", "ratio", all_ns > 0 ? fallback_ns / all_ns : 0);
  out->Add("trace.overhead_share", "ratio", root_ns / baseline_ns - 1.0);
  FinishTrace(options, tracer);
}

}  // namespace perfbench
