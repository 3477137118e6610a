#include "obs/engine_bridge.h"

#include <algorithm>
#include <utility>

#include "engine/engine.h"
#include "obs/openmetrics.h"

namespace rwdt::obs {
namespace {

using engine::kLatencyBuckets;
using engine::kNumStages;
using engine::MetricsSnapshot;
using engine::Stage;
using engine::StageStats;

FamilySnapshot CounterFamily(const char* name, const char* help,
                             const Labels& labels, double value) {
  FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = MetricType::kCounter;
  f.samples.push_back({"_total", labels, value});
  return f;
}

FamilySnapshot GaugeFamily(const char* name, const char* help,
                           const Labels& labels, double value) {
  FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = MetricType::kGauge;
  f.samples.push_back({"", labels, value});
  return f;
}

Labels WithLabel(const Labels& labels, const char* key, const char* value) {
  Labels out = labels;
  out.emplace_back(key, value);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

EngineTick ComputeEngineTick(const MetricsSnapshot& snap,
                             uint64_t prev_entries, double interval_s) {
  EngineTick tick;
  tick.entries = snap.entries_processed;
  tick.analyzed = snap.queries_analyzed;
  tick.rejects = snap.TotalErrors();
  if (interval_s > 0 && tick.entries >= prev_entries) {
    tick.entries_per_sec =
        static_cast<double>(tick.entries - prev_entries) / interval_s;
  }
  return tick;
}

void AppendEngineFamilies(const MetricsSnapshot& snap, uint64_t queue_depth,
                          const Labels& labels,
                          std::vector<FamilySnapshot>* out) {
  out->push_back(CounterFamily("rwdt_engine_entries",
                               "Log entries streamed through the engine.",
                               labels,
                               static_cast<double>(snap.entries_processed)));
  out->push_back(CounterFamily(
      "rwdt_engine_queries_analyzed",
      "Distinct query texts parsed and classified (once per stream).",
      labels,
      static_cast<double>(snap.queries_analyzed)));
  out->push_back(CounterFamily("rwdt_engine_parse_failures",
                               "Distinct query texts that failed to parse.",
                               labels,
                               static_cast<double>(snap.parse_failures)));
  out->push_back(CounterFamily(
      "rwdt_engine_wall_seconds",
      "Cumulative wall time inside AnalyzeEntries/Feed.", labels,
      static_cast<double>(snap.wall_ns) / 1e9));

  {
    FamilySnapshot errors;
    errors.name = "rwdt_engine_errors";
    errors.help = "Rejected entries by taxonomy class.";
    errors.type = MetricType::kCounter;
    for (size_t c = 0; c < kNumErrorClasses; ++c) {
      errors.samples.push_back(
          {"_total",
           WithLabel(labels, "class",
                     ErrorClassName(static_cast<ErrorClass>(c))),
           static_cast<double>(snap.errors[c])});
    }
    out->push_back(std::move(errors));
  }

  out->push_back(GaugeFamily("rwdt_engine_threads", "Engine worker threads.",
                             labels, static_cast<double>(snap.threads)));
  out->push_back(GaugeFamily(
      "rwdt_engine_interner_bytes",
      "Bytes reserved by the open (else the last finished) stream's dedup "
      "interners and parse dictionaries.",
      labels, static_cast<double>(snap.interner_bytes)));
  out->push_back(GaugeFamily(
      "rwdt_engine_dedup_entries",
      "Distinct query texts pinned by the open (else the last finished) "
      "stream's dedup state.",
      labels, static_cast<double>(snap.dedup_entries)));
  out->push_back(GaugeFamily(
      "rwdt_engine_queue_depth",
      "Shard tasks queued or running on the engine's thread pool.", labels,
      static_cast<double>(queue_depth)));

  // Stage latency histograms. The engine's power-of-two buckets map onto
  // exact inclusive `le` bounds: bucket b counts samples with
  // bit_width(ns) == b, i.e. ns in [2^(b-1), 2^b - 1], so le = 2^b - 1
  // (bucket 0 is ns == 0 -> le = 0). The empty tail above the highest
  // non-empty bucket of any stage is collapsed into +Inf to keep the
  // exposition compact; cumulativity is unaffected.
  size_t max_bucket = 0;
  for (size_t s = 0; s < kNumStages; ++s) {
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      if (snap.stages[s].buckets[b] != 0) max_bucket = std::max(max_bucket, b);
    }
  }
  std::vector<double> bounds;
  bounds.reserve(max_bucket + 1);
  for (size_t b = 0; b <= max_bucket; ++b) {
    bounds.push_back(b == 0 ? 0.0
                            : static_cast<double>((uint64_t{1} << b) - 1));
  }
  FamilySnapshot latency;
  latency.name = "rwdt_engine_stage_latency_ns";
  latency.help = "Per-stage pipeline latency in nanoseconds.";
  latency.type = MetricType::kHistogram;
  for (size_t s = 0; s < kNumStages; ++s) {
    const StageStats& st = snap.stages[s];
    if (st.count == 0) continue;
    AppendHistogramSamples(
        bounds,
        [&](size_t i) {
          if (i < bounds.size()) return st.buckets[i];
          uint64_t tail = 0;  // anything past the collapsed range
          for (size_t b = bounds.size(); b < kLatencyBuckets; ++b) {
            tail += st.buckets[b];
          }
          return tail;
        },
        static_cast<double>(st.total_ns),
        WithLabel(labels, "stage", engine::StageName(static_cast<Stage>(s))),
        &latency.samples);
  }
  out->push_back(std::move(latency));
}

ScopedCollector RegisterEngineMetrics(
    MetricRegistry* registry,
    std::function<MetricsSnapshot()> snapshot,
    std::function<uint64_t()> queue_depth, Labels labels) {
  std::sort(labels.begin(), labels.end());
  const uint64_t id = registry->AddCollector(
      [snapshot = std::move(snapshot), queue_depth = std::move(queue_depth),
       labels = std::move(labels)](std::vector<FamilySnapshot>* out) {
        AppendEngineFamilies(snapshot(),
                             queue_depth != nullptr ? queue_depth() : 0,
                             labels, out);
      });
  return ScopedCollector(registry, id);
}

ScopedCollector RegisterEngineMetrics(MetricRegistry* registry,
                                      const engine::Engine* engine,
                                      Labels labels) {
  return RegisterEngineMetrics(
      registry, [engine] { return engine->Snapshot(); },
      [engine] { return engine->queue_depth(); }, std::move(labels));
}

}  // namespace rwdt::obs
