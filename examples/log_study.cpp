// A miniature end-to-end "practical study" (paper Section 11): generate
// a query log, stream every query through the analysis engine, and print
// the study report the way the paper's tables do — plus the engine's
// parallel-speedup comparison and metrics snapshot.
//
//   $ ./build/examples/log_study [num_queries] [threads]
//
// The engine guarantees bit-identical aggregates for any thread count,
// which this example verifies by running threads=1 and threads=N over
// the same log and comparing the studies.
//
// Watch a run live: RWDT_PROGRESS=<ms> logs a one-line engine snapshot
// (entries/sec, analyzed, rejects) at that interval during the
// ingest phase, and RWDT_TRACE=<file> writes a Chrome/Perfetto trace of
// the per-worker pipeline stages. RWDT_ADMIN_PORT=<port> makes this
// process host the admin endpoints (/metrics, /healthz, /readyz,
// /statusz, /tracez, /profilez), with /statusz reading the ingest
// engine; RWDT_ADMIN_LINGER_MS=<ms> keeps them up after the run until
// GET /quitquitquit (or the deadline) releases the process — how CI
// scrapes a finished run.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

#include "rwdt.h"

int main(int argc, char** argv) {
  using namespace rwdt;
  using Clock = std::chrono::steady_clock;
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", common::BuildInfo::Get().ToString().c_str());
    return 0;
  }
  const uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5000;
  const unsigned threads =
      argc > 2 ? static_cast<unsigned>(std::strtoul(argv[2], nullptr, 10)) : 4;

  // Optional observability, keyed off the environment so the default run
  // stays byte-identical: a trace collector records per-worker stage
  // spans, a progress interval makes the ingest below report live.
  const char* trace_path = std::getenv("RWDT_TRACE");
  std::unique_ptr<obs::TraceCollector> trace;
  if (trace_path != nullptr && trace_path[0] != '\0') {
    trace = std::make_unique<obs::TraceCollector>();
  }
  const char* progress_env = std::getenv("RWDT_PROGRESS");
  const uint32_t progress_ms =
      progress_env != nullptr
          ? static_cast<uint32_t>(std::strtoul(progress_env, nullptr, 10))
          : 0;
  // RWDT_PROFILE=<path|1> samples this whole run's CPU stacks into a
  // collapsed-stack file (RWDT_PROFILE_HZ overrides the 99 Hz default).
  auto self_profile = obs::MaybeStartEnvProfile("profile.collapsed");

  loggen::SourceProfile profile = loggen::ExampleProfile(n);
  profile.name = "mini-study";
  std::printf("analyzing a synthetic log of %llu queries...\n\n",
              static_cast<unsigned long long>(n));
  const auto entries = loggen::GenerateLog(profile, 7);

  auto run = [&](unsigned t, core::SourceStudy* study,
                 engine::Metrics* snap) -> double {
    engine::EngineOptions opts;
    opts.threads = t;
    engine::Engine eng(opts);
    const auto t0 = Clock::now();
    *study = eng.AnalyzeEntries(profile.name, profile.wikidata_like, entries);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (snap != nullptr) *snap = eng.Snapshot();
    return ms;
  };

  core::SourceStudy single, study;
  engine::Metrics snap;
  run(1, &single, nullptr);  // untimed warmup (allocator, page cache)
  const double ms1 = run(1, &single, nullptr);
  const double msN = run(threads, &study, &snap);
  if (!(single == study)) {
    RWDT_LOG(ERROR) << "threads=" << threads
                    << " study differs from threads=1";
    return 1;
  }
  std::printf(
      "engine: threads=1 took %.1f ms, threads=%u took %.1f ms "
      "(%.2fx speedup),\naggregate tables bit-identical.\n\n",
      ms1, threads, msN, ms1 / msN);

  std::printf("log: total %llu, valid %llu, unique %llu\n\n",
              static_cast<unsigned long long>(study.total),
              static_cast<unsigned long long>(study.valid),
              static_cast<unsigned long long>(study.unique));

  const core::LogAggregates& v = study.valid_agg;
  const core::LogAggregates& u = study.unique_agg;

  AsciiTable features({"Feature", "Valid", "Rel", "Unique", "Rel"});
  for (sparql::Feature f : sparql::AllFeatures()) {
    auto count = [&](const core::LogAggregates& a) -> uint64_t {
      auto it = a.feature_counts.find(f);
      return it == a.feature_counts.end() ? 0 : it->second;
    };
    if (count(v) == 0) continue;
    features.AddRow({sparql::FeatureName(f), WithThousands(count(v)),
                     Percent(count(v), v.select_ask_construct),
                     WithThousands(count(u)),
                     Percent(count(u), u.select_ask_construct)});
  }
  std::printf("feature usage:\n%s\n", features.Render().c_str());

  AsciiTable fragments({"Fragment", "Valid", "Rel"});
  fragments.AddRow({"CQ (only And)", WithThousands(v.cq),
                    Percent(v.cq, v.select_ask_construct)});
  fragments.AddRow({"CQ+F", WithThousands(v.cq_f),
                    Percent(v.cq_f, v.select_ask_construct)});
  fragments.AddRow({"C2RPQ+F", WithThousands(v.c2rpq_f),
                    Percent(v.c2rpq_f, v.select_ask_construct)});
  fragments.AddRow({"And/Filter/Optional only", WithThousands(v.afo_only),
                    Percent(v.afo_only, v.select_ask_construct)});
  fragments.AddRow({"  of which well-designed",
                    WithThousands(v.well_designed),
                    Percent(v.well_designed, v.afo_only)});
  std::printf("fragments:\n%s\n", fragments.Render().c_str());

  AsciiTable structure({"Structure (CQ+F)", "Valid", "Rel"});
  structure.AddRow({"free-connex acyclic", WithThousands(v.cqf_fca),
                    Percent(v.cqf_fca, v.cq_f)});
  structure.AddRow({"hypertree width <= 1", WithThousands(v.cqf_htw1),
                    Percent(v.cqf_htw1, v.cq_f)});
  structure.AddRow({"hypertree width <= 2", WithThousands(v.cqf_htw2),
                    Percent(v.cqf_htw2, v.cq_f)});
  std::printf("structure:\n%s\n", structure.Render().c_str());

  AsciiTable shapes({"Shape (with constants)", "Valid", "Rel"});
  for (const auto& [shape, count] : v.shapes_with_constants) {
    shapes.AddRow({hypergraph::GraphShapeName(shape),
                   WithThousands(count), Percent(count, v.graph_cqf)});
  }
  std::printf("shapes of graph-CQ+F queries:\n%s", shapes.Render().c_str());
  std::printf(
      "\nLesson from Section 11 ('The Right Perspective'): %s of these\n"
      "queries have at most one triple pattern, which explains most of "
      "the\nconjunctive dominance above.\n\n",
      Percent(v.triple_histogram[0] + v.triple_histogram[1],
              v.select_ask_construct)
          .c_str());

  std::printf("%s", snap.ToText().c_str());

  // Real logs are never clean: corrupt a copy of the log, serialize it to
  // text, and stream it back through the fault-tolerant ingest layer. The
  // Total-vs-Valid row and the per-class reject counts show how much of
  // the log survived and why the rest was dropped.
  auto corrupted = entries;
  loggen::CorruptionOptions copts;
  copts.rate = 0.2;
  const auto summary = loggen::CorruptLog(&corrupted, 99, copts);
  std::stringstream log_text;
  loggen::WriteLogText(corrupted, log_text);

  ingest::IngestOptions iopts;
  iopts.source_name = profile.name;
  iopts.wikidata_like = profile.wikidata_like;

  // The ingest runs on an engine we own (rather than an IngestStream
  // internal one) so the admin endpoints — enabled via RWDT_ADMIN_PORT,
  // off and free by default — expose this phase live and stay
  // scrapeable after it finishes. The admin host is declared after the
  // engine, so it stops before the engine its /statusz reads.
  engine::EngineOptions eng_opts;
  eng_opts.threads = threads;
  eng_opts.progress.interval_ms = progress_ms;  // live one-line snapshots
  engine::Engine ingest_engine(eng_opts);
  auto admin = serve::MaybeStartEnvAdmin(
      [&ingest_engine] { return ingest_engine.Snapshot().ToJson(); });
  auto ingested = ingest::IngestStream(log_text, &ingest_engine, iopts);
  if (!ingested.ok()) {
    RWDT_LOG(ERROR) << "ingest failed: " << ingested.error_message();
    return 1;
  }
  const ingest::IngestReport& report = ingested.value();

  std::printf(
      "\nsame log with %llu of %llu queries corrupted, re-read from text:\n",
      static_cast<unsigned long long>(summary.corrupted),
      static_cast<unsigned long long>(entries.size()));
  AsciiTable errors({"Row", "Queries", "Rel"});
  errors.AddRow({"Total", WithThousands(report.study.total), "100.0%"});
  errors.AddRow({"Valid", WithThousands(report.study.valid),
                 Percent(report.study.valid, report.study.total)});
  errors.AddRow({"Unique", WithThousands(report.study.unique),
                 Percent(report.study.unique, report.study.total)});
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    const uint64_t count = report.study.errors[c];
    if (count == 0) continue;
    errors.AddRow({std::string("  ") + ErrorClassName(ErrorClass(c)),
                   WithThousands(count),
                   Percent(count, report.study.total)});
  }
  std::printf("%s", errors.Render().c_str());

  if (trace != nullptr) {
    const Status st = trace->WriteChromeJson(trace_path);
    if (!st.ok()) {
      RWDT_LOG(ERROR) << "trace export failed: " << st.message();
    } else {
      RWDT_LOG(INFO) << "trace: " << trace->events_recorded()
                     << " spans written to " << trace_path
                     << " — open in Perfetto / chrome://tracing";
    }
  }

  if (self_profile != nullptr) {
    const Status finished = self_profile->Finish();
    if (!finished.ok()) {
      RWDT_LOG(ERROR) << "profile export failed: " << finished.message();
    }
  }

  // Linger: keep the admin endpoints up after the workload so an
  // external scraper (CI, a human with curl) can read the finished
  // run's /metrics, /statusz, and /tracez. GET /quitquitquit releases
  // the process early; the deadline bounds it.
  const char* linger_env = std::getenv("RWDT_ADMIN_LINGER_MS");
  const uint32_t linger_ms =
      linger_env != nullptr
          ? static_cast<uint32_t>(std::strtoul(linger_env, nullptr, 10))
          : 0;
  if (linger_ms > 0 && admin != nullptr) {
    RWDT_LOG(INFO) << "lingering up to " << linger_ms
                   << " ms for admin scrapes (GET /quitquitquit to release)";
    admin->WaitForQuit(linger_ms);
  }
  return 0;
}
