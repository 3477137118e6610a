// ingest-dup: raw log bytes -> SourceStudy. One raw log as the ROADMAP
// baseline has it — every text repeated ~27 times and 2% of lines
// corrupted — read by ingest::IngestFile on a 1-thread engine.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "ingest/ingest.h"
#include "layers.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "loggen/sparql_gen.h"

namespace perfbench {

namespace {

using rwdt::core::SourceStudy;
using rwdt::loggen::LogEntry;

// Sized so a run of the benchmark's length times over a thousand
// studies, which leaves p99_ms ten samples beyond it.
constexpr uint64_t kLines = 48000;
constexpr double kDuplicateFactor = 27;
constexpr double kCorruptRate = 0.02;

// The log's texts and corruptions come from these fixed generator seeds,
// as in the repository's table benches; --seed shuffles the entries. So
// seeds give different bytes and arrival orders over the same multiset of
// texts, and the work of a run does not move with the seed. (With
// seed-drawn texts, a handful of heavy queries, htw searches of up to
// ~0.4 ms each, moved a mid-sized source's study time by ~13% between
// seeds.)
constexpr uint64_t kContentSeed = 2022;
constexpr uint64_t kCorruptSeed = 2023;

// Set-up (generate and write the log) takes ~40 ms; setup_s is the
// median of this many.
constexpr int kSetups = 9;
// Untraced repeats of the timed call that trace.overhead_share compares
// the traced one against.
constexpr int kBaselineRepeats = 3;

/// The log for `seed`: the fixed texts, corrupted, shuffled by the seed.
std::vector<LogEntry> MakeLog(uint64_t seed) {
  rwdt::loggen::SourceProfile profile = rwdt::loggen::ExampleProfile(kLines);
  profile.name = "ingest-dup";
  profile.duplicate_factor = kDuplicateFactor;
  std::vector<LogEntry> log = rwdt::loggen::GenerateLog(profile, kContentSeed);
  rwdt::loggen::CorruptionOptions corruption;
  corruption.rate = kCorruptRate;
  rwdt::loggen::CorruptLog(&log, kCorruptSeed, corruption);
  rwdt::Rng rng(seed);
  for (size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[rng.NextBelow(i)]);
  }
  return log;
}

/// Writes `log` as raw log text; false on an I/O error.
bool WriteLog(const std::vector<LogEntry>& log, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  rwdt::loggen::WriteLogText(log, file);
  file.close();
  return !file.fail();
}

uint64_t FingerprintFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  return Fingerprint(bytes);
}

}  // namespace

void RunIngestDup(const Options& options, Outcome* out) {
  CheckKnownStudy(out);

  const std::string path = options.work_dir + "/ingest-dup-" +
                           std::to_string(getpid()) + ".log";
  bool written = true;
  std::vector<uint64_t> fingerprints;  // of the file each set-up wrote
  const double setup_s = MedianSetupSeconds(
      kSetups, [&] { fingerprints.push_back(FingerprintFile(path)); },
      [&] { written = WriteLog(MakeLog(options.seed), path) && written; });
  fingerprints.push_back(FingerprintFile(path));
  out->Check(written, "write the ingest log");
  out->Check(std::all_of(fingerprints.begin(), fingerprints.end(),
                         [&](uint64_t f) { return f == fingerprints.front(); }),
             "same seed gives identical inputs");
  {
    const std::string other = path + ".other";
    out->Check(WriteLog(MakeLog(options.seed + 1), other) &&
                   FingerprintFile(other) != fingerprints.front(),
               "another seed gives other inputs");
    std::remove(other.c_str());
  }
  TrimHeap();

  rwdt::ingest::IngestOptions ingest_options;
  ingest_options.source_name = "ingest-dup";
  ingest_options.engine.threads = 1;

  // Reference answer, untimed, through the istream reader instead of
  // the mmap one the timed runs use.
  SourceStudy ref;
  {
    std::ifstream in(path, std::ios::binary);
    auto report = rwdt::ingest::IngestStream(in, ingest_options);
    out->Check(report.ok() && Balanced(report.value().study),
               "reference ingest");
    if (report.ok()) ref = report.value().study;
  }
  auto ingest_once = [&](Tracer* tracer, double* ms) {
    const uint64_t t0 = NowNs();
    rwdt::Result<rwdt::ingest::IngestReport> report = rwdt::Status::Ok();
    {
      Scope span(tracer, "ingest.ingest_file");
      report = rwdt::ingest::IngestFile(path, ingest_options);
    }
    *ms = (NowNs() - t0) / 1e6;
    const bool ok = report.ok() && report.value().study == ref &&
                    Balanced(report.value().study);
    out->Op(ok, "ingest-dup study");
    return ok ? report.value().study.total : 0;
  };

  if (!options.trace) {
    double ms = 0;
    ingest_once(nullptr, &ms);  // warm-up: page cache, allocator
    TrimHeap();
    out->Check(ResetPeakRss(getpid()), "reset peak RSS");
    std::vector<double> latencies_ms;
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(options.seconds * 1e9);
    uint64_t entries = 0;
    while (NowNs() < deadline) {
      entries = ingest_once(nullptr, &ms);
      latencies_ms.push_back(ms);
    }
    PrintSpread("ingest ms", latencies_ms);
    out->Add("setup_s", "s", setup_s);
    out->Add("peak_rss_mb", "MiB", PeakRssMiB(getpid()));
    // Throughput from the fastest run, p99 over every run (see Outcome).
    out->Add("items_per_s", "1/s",
             static_cast<double>(entries) / (Percentile(latencies_ms, 0) / 1e3));
    out->Add("p99_ms", "ms", Percentile(latencies_ms, 0.99));
    std::remove(path.c_str());
    return;
  }

  Tracer tracer(options.seed);
  std::vector<double> baseline_ms;
  for (int i = 0; i < kBaselineRepeats; ++i) {
    double ms = 0;
    ingest_once(nullptr, &ms);
    baseline_ms.push_back(ms);
  }
  double root_ms = 0;
  {
    Scope root(&tracer, "run.ingest-dup");
    ingest_once(&tracer, &root_ms);
  }

  LayerCounts counts;
  {
    Scope replay(&tracer, "run.replay");
    IngestedLines lines;
    out->Check(ReplayIngest(path, &tracer, &counts, &lines),
               "map the log for the replay");
    SourceStudy replayed = ReplayEngine(lines.accepted, &tracer, &counts);
    replayed.name = ref.name;
    AddRejects(lines, &replayed);
    out->Check(replayed == ref, "replayed layers add up to the study");
    bool two_thread_matches = false;
    const SourceStudy streamed = TimeEngineStream(
        ref.name, lines, &tracer, &counts, &two_thread_matches);
    out->Check(streamed == ref && two_thread_matches, "EngineStream study");
  }
  MeasureServeLayer(options, &tracer, out);
  AddLogLayerMetrics(tracer, counts, out);
  out->Add("trace.overhead_share", "ratio",
           root_ms / Median(baseline_ms) - 1.0);
  FinishTrace(options, tracer);
  std::remove(path.c_str());
}

}  // namespace perfbench
