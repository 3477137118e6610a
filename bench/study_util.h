#ifndef RWDT_BENCH_STUDY_UTIL_H_
#define RWDT_BENCH_STUDY_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <thread>

#include <unistd.h>

#include "common/build_info.h"
#include "common/json.h"
#include "core/log_study.h"
#include "engine/engine.h"
#include "loggen/sparql_gen.h"
#include "obs/log.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace rwdt::bench {

/// The shared provenance block every BENCH_*.json carries: build info
/// (git sha + describe, compiler, build type), hardware threads, and
/// hostname. tools/bench_trajectory.py keys its per-metric series on
/// `provenance.build.git_commit`, so no bench hand-rolls this.
inline std::string ProvenanceJson() {
  char host[256] = "unknown";
  if (gethostname(host, sizeof(host) - 1) != 0) {
    std::snprintf(host, sizeof(host), "unknown");
  }
  host[sizeof(host) - 1] = '\0';
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.RawField("build", common::BuildInfo::Get().ToJson());
  w.UIntField("hw_threads", std::thread::hardware_concurrency());
  w.StringField("hostname", host);
  w.EndObject();
  return out;
}

/// Shared driver for the Table 2-8 / Figure 3 benchmarks: runs the full
/// log-study pipeline over the seventeen Table 2 source profiles on the
/// streaming engine.
///
/// `scale` divides the paper's query counts; the default keeps each
/// bench binary in the seconds range. Override with the RWDT_SCALE
/// environment variable (smaller value = bigger corpus) and the worker
/// count with RWDT_THREADS (default: one per hardware thread; results
/// are bit-identical for any value).
struct StudyCorpus {
  std::vector<core::SourceStudy> sources;
  core::SourceStudy dbpedia_britm;  // merged non-Wikidata sources
  core::SourceStudy wikidata;       // merged Wikidata sources
  engine::Metrics metrics;          // pipeline counters for the whole run
};

inline uint64_t ScaleFromEnv(uint64_t fallback) {
  const char* env = std::getenv("RWDT_SCALE");
  if (env == nullptr) return fallback;
  const uint64_t v = std::strtoull(env, nullptr, 10);
  return v == 0 ? fallback : v;
}

inline unsigned ThreadsFromEnv() {
  const char* env = std::getenv("RWDT_THREADS");
  if (env == nullptr) return 0;  // engine default: hardware threads
  return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
}

inline StudyCorpus RunFullStudy(uint64_t scale, uint64_t seed = 2022) {
  StudyCorpus corpus;
  corpus.dbpedia_britm.name = "DBpedia-BritM";
  corpus.wikidata.name = "Wikidata";
  engine::EngineOptions opts;
  opts.threads = ThreadsFromEnv();
  engine::Engine eng(opts);  // one engine, one stream per source
  for (const auto& profile : loggen::Table2Profiles(scale)) {
    RWDT_LOG(INFO) << "analyzing " << profile.name << " ("
                   << profile.total_queries << " queries, " << eng.threads()
                   << " threads)";
    core::SourceStudy study = eng.AnalyzeLog(profile, seed);
    if (profile.wikidata_like) {
      core::MergeSource(study, &corpus.wikidata);
    } else {
      core::MergeSource(study, &corpus.dbpedia_britm);
    }
    corpus.sources.push_back(std::move(study));
  }
  corpus.metrics = eng.Snapshot();
  std::fprintf(stderr, "%s\n", corpus.metrics.ToText().c_str());
  return corpus;
}

/// The one place table benches write their engine Metrics: appends this
/// run's metrics as a JSON-lines record next to the BENCH_*.json outputs
/// so perf is comparable across PRs. The bench name is escaped — no
/// bench hand-rolls this JSON itself.
inline void AppendBenchJson(const std::string& bench_name,
                            const engine::Metrics& snap,
                            const char* path = "BENCH_study_metrics.jsonl") {
  FILE* out = std::fopen(path, "a");
  if (out == nullptr) {
    RWDT_LOG(ERROR) << "cannot append bench metrics to " << path;
    return;
  }
  // The build field lets a perf dashboard pin every record to the exact
  // commit and compiler that produced it.
  std::fprintf(out, "{\"bench\":\"%s\",\"build\":%s,\"metrics\":%s}\n",
               JsonEscape(bench_name).c_str(),
               common::BuildInfo::Get().ToJson().c_str(),
               snap.ToJson().c_str());
  std::fclose(out);
  RWDT_LOG(INFO) << "bench " << bench_name << ": metrics appended to "
                 << path;
}

/// Shared tracing hook for bench binaries: when the RWDT_TRACE
/// environment variable names a file, returns an installed collector
/// whose Chrome trace JSON is written there by `FinishBenchTrace`.
inline std::unique_ptr<obs::TraceCollector> MaybeStartBenchTrace() {
  const char* path = std::getenv("RWDT_TRACE");
  if (path == nullptr || path[0] == '\0') return nullptr;
  return std::make_unique<obs::TraceCollector>();
}

inline void FinishBenchTrace(std::unique_ptr<obs::TraceCollector> trace) {
  if (trace == nullptr) return;
  const char* path = std::getenv("RWDT_TRACE");
  if (path == nullptr) return;
  const Status st = trace->WriteChromeJson(path);
  if (!st.ok()) {
    RWDT_LOG(ERROR) << "trace export failed: " << st.message();
    return;
  }
  RWDT_LOG(INFO) << "trace: " << trace->events_recorded() << " spans from "
                 << trace->threads_seen() << " threads ("
                 << trace->events_dropped() << " dropped) written to "
                 << path << " — open in Perfetto / chrome://tracing";
}

/// Shared self-profiling hook for bench binaries: when RWDT_PROFILE is
/// set (a path, or "1" for `default_path`), starts a sampling CPU
/// capture whose collapsed stacks land next to the bench's JSON report.
/// RWDT_PROFILE_HZ overrides the 99 Hz default.
inline std::unique_ptr<obs::ScopedSelfProfile> MaybeStartBenchProfile(
    const char* default_path = "profile.collapsed") {
  return obs::MaybeStartEnvProfile(default_path);
}

inline void FinishBenchProfile(
    std::unique_ptr<obs::ScopedSelfProfile> profile) {
  if (profile == nullptr) return;
  const Status st = profile->Finish();
  if (!st.ok()) {
    RWDT_LOG(ERROR) << "profile export failed: " << st.message();
  }
}

}  // namespace rwdt::bench

#endif  // RWDT_BENCH_STUDY_UTIL_H_
