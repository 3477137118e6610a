// Engine throughput bench: streams the same generated DBpedia-like log
// through rwdt::engine at several thread counts, checks that the
// aggregates are identical, and writes the timings to
// BENCH_log_study.json so the perf trajectory is tracked across PRs.
//
//   $ ./build/bench/bench_log_study [num_queries]
//
// Environment: RWDT_BENCH_ENTRIES=<n> sets the workload size when no
// argument is given (default 200000 — large enough that thread scaling
// is measurable above fixed costs); RWDT_BENCH_THREADS="1,2,4"
// overrides the sweep; RWDT_BENCH_JSON overrides the output path;
// RWDT_TRACE=<file> records a Chrome/Perfetto trace of the whole sweep;
// RWDT_PROGRESS=<ms> enables live one-line progress reporting at that
// interval; RWDT_ADMIN_PORT=<port> hosts the admin endpoints for the
// whole sweep, with /statusz reading the engine currently sweeping.
//
// The JSON output carries `speedup_vs_1t` per run (wall of the
// 1-thread run divided by this run's wall) and the machine's
// `hw_threads`, so CI can gate on parallel-scaling regressions and skip
// the gate on single-core runners where speedup is physically capped.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/table.h"
#include "engine/engine.h"
#include "serve/admin_server.h"
#include "study_util.h"

namespace {

std::vector<unsigned> ThreadSweep() {
  std::vector<unsigned> sweep;
  const char* env = std::getenv("RWDT_BENCH_THREADS");
  std::string spec = env != nullptr ? env : "1,2,4";
  size_t pos = 0;
  while (pos < spec.size()) {
    sweep.push_back(
        static_cast<unsigned>(std::strtoul(spec.c_str() + pos, nullptr, 10)));
    pos = spec.find(',', pos);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rwdt;
  using Clock = std::chrono::steady_clock;

  const char* entries_env = std::getenv("RWDT_BENCH_ENTRIES");
  const uint64_t default_n =
      entries_env != nullptr ? std::strtoull(entries_env, nullptr, 10)
                             : 200000;
  const uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                              : default_n;
  loggen::SourceProfile profile = loggen::ExampleProfile(n);
  profile.name = "bench-log-study";
  const uint64_t seed = 2022;

  auto trace = bench::MaybeStartBenchTrace();
  auto self_profile = bench::MaybeStartBenchProfile("profile.collapsed");
  const char* progress_env = std::getenv("RWDT_PROGRESS");
  const uint32_t progress_ms =
      progress_env != nullptr
          ? static_cast<uint32_t>(std::strtoul(progress_env, nullptr, 10))
          : 0;

  // Generate once so the sweep times only the analysis pipeline.
  const auto entries = loggen::GenerateLog(profile, seed);
  std::printf("log: %zu entries; sweeping threads...\n\n", entries.size());

  struct Run {
    unsigned threads;
    double wall_ms;
    engine::Metrics snap;
  };
  std::vector<Run> runs;
  core::SourceStudy reference;
  double base_ms = 0;

  {
    // Untimed warmup so the first sweep element doesn't pay the
    // allocator / page-cache cost for everyone.
    engine::Engine warm(engine::EngineOptions{});
    warm.AnalyzeEntries(profile.name, profile.wikidata_like, entries);
  }

  AsciiTable table({"Threads", "Wall", "Queries/s", "Speedup"});
  // One admin host for the whole sweep (RWDT_ADMIN_PORT). Its /statusz
  // reads the engine currently sweeping; `sweeping` is cleared under
  // the lock before that engine is destroyed, so a scrape never reads a
  // dead engine.
  std::mutex sweeping_mu;
  const engine::Engine* sweeping = nullptr;
  auto admin = serve::MaybeStartEnvAdmin([&] {
    std::lock_guard<std::mutex> lock(sweeping_mu);
    return sweeping != nullptr ? sweeping->Snapshot().ToJson()
                               : engine::Metrics{}.ToJson();
  });
  auto set_sweeping = [&](const engine::Engine* eng) {
    std::lock_guard<std::mutex> lock(sweeping_mu);
    sweeping = eng;
  };
  for (unsigned threads : ThreadSweep()) {
    engine::EngineOptions opts;
    opts.threads = threads;
    opts.progress.interval_ms = progress_ms;
    engine::Engine eng(opts);
    set_sweeping(&eng);
    const auto t0 = Clock::now();
    const core::SourceStudy study =
        eng.AnalyzeEntries(profile.name, profile.wikidata_like, entries);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    set_sweeping(nullptr);
    if (runs.empty()) {
      reference = study;
      base_ms = ms;
    } else if (!(study == reference)) {
      RWDT_LOG(ERROR) << "aggregates at threads=" << threads
                      << " differ from threads=" << runs.front().threads;
      return 1;
    }
    Run run{threads, ms, eng.Snapshot()};
    table.AddRow({std::to_string(threads), Fixed(ms, 1) + " ms",
                  WithThousands(static_cast<uint64_t>(
                      run.snap.QueriesPerSec())),
                  Fixed(base_ms / ms, 2) + "x"});
    runs.push_back(std::move(run));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("aggregates identical across the sweep (valid=%llu unique=%llu)\n\n",
              static_cast<unsigned long long>(reference.valid),
              static_cast<unsigned long long>(reference.unique));
  std::printf("%s\n", runs.back().snap.ToText().c_str());

  const char* json_env = std::getenv("RWDT_BENCH_JSON");
  const std::string path =
      json_env != nullptr ? json_env : "BENCH_log_study.json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  // speedup_vs_1t is normalized against the sweep's 1-thread run (the
  // first run if the sweep has no 1-thread element).
  double one_thread_ms = runs.front().wall_ms;
  for (const Run& r : runs) {
    if (r.threads == 1) one_thread_ms = r.wall_ms;
  }
  std::fprintf(out,
               "{\"bench\":\"log_study\",\"provenance\":%s,"
               "\"entries\":%zu,"
               "\"runs\":[",
               bench::ProvenanceJson().c_str(), entries.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(
        out,
        "%s{\"threads\":%u,\"wall_ms\":%.3f,\"speedup_vs_1t\":%.3f,"
        "\"metrics\":%s}",
        i == 0 ? "" : ",", runs[i].threads, runs[i].wall_ms,
        one_thread_ms / runs[i].wall_ms, runs[i].snap.ToJson().c_str());
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  bench::FinishBenchTrace(std::move(trace));
  bench::FinishBenchProfile(std::move(self_profile));
  return 0;
}
