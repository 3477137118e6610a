#include "engine/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "common/table.h"
#include "obs/openmetrics.h"

namespace rwdt::engine {
namespace {

/// Geometric midpoint of bucket b (values in [2^(b-1), 2^b)).
uint64_t BucketMid(size_t b) {
  if (b == 0) return 0;
  const double lo = static_cast<double>(uint64_t{1} << (b - 1));
  return static_cast<uint64_t>(lo * 1.41421356237);
}

std::string NsHuman(double ns) {
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
  }
  return buf;
}

void AppendJsonField(std::string* out, const char* key, double v,
                     bool trailing_comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, v);
  *out += buf;
  if (trailing_comma) *out += ',';
}

obs::FamilySnapshot CounterFamily(const char* name, const char* help,
                                  const obs::Labels& labels, double value) {
  obs::FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = obs::MetricType::kCounter;
  f.samples.push_back({"_total", labels, value});
  return f;
}

obs::FamilySnapshot GaugeFamily(const char* name, const char* help,
                                const obs::Labels& labels, double value) {
  obs::FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = obs::MetricType::kGauge;
  f.samples.push_back({"", labels, value});
  return f;
}

obs::Labels WithLabel(const obs::Labels& labels, const char* key,
                      const char* value) {
  obs::Labels out = labels;
  out.emplace_back(key, value);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kGenerate:
      return "generate";
    case Stage::kParse:
      return "parse";
    case Stage::kFeatures:
      return "features";
    case Stage::kHypergraph:
      return "hypergraph";
    case Stage::kPaths:
      return "paths";
    case Stage::kAggregate:
      return "aggregate";
  }
  return "?";
}

void Metrics::Record(Stage stage, uint64_t ns) {
  const size_t s = static_cast<size_t>(stage);
  // Bucket b counts samples with bit_width(ns) == b, i.e. ns in
  // [2^(b-1), 2^b); the last bucket also takes everything above.
  const size_t b = std::bit_width(ns);
  histogram[s][b < kLatencyBuckets ? b : kLatencyBuckets - 1]++;
  stage_total_ns[s] += ns;
  stage_max_ns[s] = std::max(stage_max_ns[s], ns);
}

void Metrics::Merge(const Metrics& other) {
  entries_processed += other.entries_processed;
  queries_analyzed += other.queries_analyzed;
  parse_failures += other.parse_failures;
  for (size_t c = 0; c < kNumErrorClasses; ++c) errors[c] += other.errors[c];
  wall_ns += other.wall_ns;
  for (size_t s = 0; s < kNumStages; ++s) {
    stage_total_ns[s] += other.stage_total_ns[s];
    stage_max_ns[s] = std::max(stage_max_ns[s], other.stage_max_ns[s]);
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      histogram[s][b] += other.histogram[s][b];
    }
  }
}

uint64_t Metrics::TotalErrors() const {
  uint64_t sum = 0;
  for (const uint64_t e : errors) sum += e;
  return sum;
}

double Metrics::QueriesPerSec() const {
  return wall_ns == 0 ? 0.0 : entries_processed * 1e9 / wall_ns;
}

uint64_t Metrics::StageCount(Stage stage) const {
  uint64_t count = 0;
  for (const uint64_t n : histogram[static_cast<size_t>(stage)]) count += n;
  return count;
}

uint64_t Metrics::QuantileNs(Stage stage, double q) const {
  const uint64_t n = StageCount(stage);
  if (n == 0) return 0;
  const auto& buckets = histogram[static_cast<size_t>(stage)];
  const uint64_t rank = static_cast<uint64_t>(q * (n - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return BucketMid(b);
  }
  return BucketMid(kLatencyBuckets - 1);
}

std::string Metrics::ToText() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "engine metrics: %s entries, %s analyzed, %s parse errors, "
                "%u thread(s)\n",
                WithThousands(entries_processed).c_str(),
                WithThousands(queries_analyzed).c_str(),
                WithThousands(parse_failures).c_str(), threads);
  out += line;
  std::snprintf(line, sizeof(line),
                "  throughput: %.0f queries/sec over %s wall\n",
                QueriesPerSec(), NsHuman(static_cast<double>(wall_ns)).c_str());
  out += line;
  if (TotalErrors() > 0) {
    // Total vs Valid, the paper's Table 2 shape: every rejected entry is
    // attributed to exactly one taxonomy class.
    std::snprintf(line, sizeof(line),
                  "  rejected: %s of %s entries (%s valid) by class:\n",
                  WithThousands(TotalErrors()).c_str(),
                  WithThousands(entries_processed).c_str(),
                  WithThousands(entries_processed - TotalErrors()).c_str());
    out += line;
    for (size_t c = 0; c < kNumErrorClasses; ++c) {
      if (errors[c] == 0) continue;
      std::snprintf(line, sizeof(line), "    %-20s %s\n",
                    ErrorClassName(static_cast<ErrorClass>(c)),
                    WithThousands(errors[c]).c_str());
      out += line;
    }
  }

  AsciiTable table(
      {"Stage", "Count", "Total", "Mean", "p50", "p90", "p99", "Max"});
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    const uint64_t count = StageCount(stage);
    if (count == 0) continue;
    table.AddRow({StageName(stage), WithThousands(count),
                  NsHuman(static_cast<double>(stage_total_ns[s])),
                  NsHuman(static_cast<double>(stage_total_ns[s]) / count),
                  NsHuman(static_cast<double>(QuantileNs(stage, 0.50))),
                  NsHuman(static_cast<double>(QuantileNs(stage, 0.90))),
                  NsHuman(static_cast<double>(QuantileNs(stage, 0.99))),
                  NsHuman(static_cast<double>(stage_max_ns[s]))});
  }
  out += table.Render();
  return out;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  AppendJsonField(&out, "entries_processed",
                  static_cast<double>(entries_processed));
  AppendJsonField(&out, "queries_analyzed",
                  static_cast<double>(queries_analyzed));
  AppendJsonField(&out, "parse_failures", static_cast<double>(parse_failures));
  AppendJsonField(&out, "queries_per_sec", QueriesPerSec());
  AppendJsonField(&out, "wall_ms", wall_ns / 1e6);
  AppendJsonField(&out, "threads", static_cast<double>(threads));
  AppendJsonField(&out, "interner_bytes", static_cast<double>(interner_bytes));
  AppendJsonField(&out, "dedup_entries", static_cast<double>(dedup_entries));
  AppendJsonField(&out, "entries_valid",
                  static_cast<double>(entries_processed - TotalErrors()));
  AppendJsonField(&out, "entries_rejected",
                  static_cast<double>(TotalErrors()));
  out += "\"errors\":{";
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    AppendJsonField(&out,
                    JsonEscape(ErrorClassName(static_cast<ErrorClass>(c)))
                        .c_str(),
                    static_cast<double>(errors[c]),
                    /*trailing_comma=*/c + 1 < kNumErrorClasses);
  }
  out += "},";
  out += "\"stages\":{";
  bool first = true;
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    const uint64_t count = StageCount(stage);
    if (count == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(StageName(stage), &out);
    out += "\":{";
    AppendJsonField(&out, "count", static_cast<double>(count));
    AppendJsonField(&out, "total_ms", stage_total_ns[s] / 1e6);
    AppendJsonField(&out, "mean_us",
                    static_cast<double>(stage_total_ns[s]) / count / 1e3);
    AppendJsonField(&out, "p50_us", QuantileNs(stage, 0.50) / 1e3);
    AppendJsonField(&out, "p90_us", QuantileNs(stage, 0.90) / 1e3);
    AppendJsonField(&out, "p99_us", QuantileNs(stage, 0.99) / 1e3);
    AppendJsonField(&out, "max_us", stage_max_ns[s] / 1e3, false);
    out += '}';
  }
  out += "}}";
  return out;
}

void Metrics::AppendFamilies(const obs::Labels& labels,
                             std::vector<obs::FamilySnapshot>* out) const {
  out->push_back(CounterFamily("rwdt_engine_entries",
                               "Log entries streamed through the engine.",
                               labels, static_cast<double>(entries_processed)));
  out->push_back(CounterFamily(
      "rwdt_engine_queries_analyzed",
      "Distinct query texts parsed and classified (once per stream).",
      labels, static_cast<double>(queries_analyzed)));
  out->push_back(CounterFamily("rwdt_engine_parse_failures",
                               "Distinct query texts that failed to parse.",
                               labels, static_cast<double>(parse_failures)));
  out->push_back(CounterFamily(
      "rwdt_engine_wall_seconds",
      "Cumulative wall time inside AnalyzeEntries/Feed.", labels,
      static_cast<double>(wall_ns) / 1e9));

  obs::FamilySnapshot error_family;
  error_family.name = "rwdt_engine_errors";
  error_family.help = "Rejected entries by taxonomy class.";
  error_family.type = obs::MetricType::kCounter;
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    error_family.samples.push_back(
        {"_total",
         WithLabel(labels, "class",
                   ErrorClassName(static_cast<ErrorClass>(c))),
         static_cast<double>(errors[c])});
  }
  out->push_back(std::move(error_family));

  out->push_back(GaugeFamily("rwdt_engine_threads", "Engine worker threads.",
                             labels, static_cast<double>(threads)));
  out->push_back(GaugeFamily(
      "rwdt_engine_interner_bytes",
      "Bytes reserved by the open (else the last finished) stream's dedup "
      "interners and parse dictionaries.",
      labels, static_cast<double>(interner_bytes)));
  out->push_back(GaugeFamily(
      "rwdt_engine_dedup_entries",
      "Distinct query texts pinned by the open (else the last finished) "
      "stream's dedup state.",
      labels, static_cast<double>(dedup_entries)));
  out->push_back(GaugeFamily(
      "rwdt_engine_queue_depth",
      "Shard tasks queued or running on the engine's thread pool.", labels,
      static_cast<double>(queue_depth)));

  // Bucket b holds ns in [2^(b-1), 2^b - 1], so its inclusive `le` bound
  // is 2^b - 1 (bucket 0 holds ns == 0: le = 0). Buckets past the highest
  // non-empty one of any stage are empty and collapse into +Inf.
  size_t max_bucket = 0;
  for (size_t s = 0; s < kNumStages; ++s) {
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      if (histogram[s][b] != 0) max_bucket = std::max(max_bucket, b);
    }
  }
  std::vector<double> bounds;
  bounds.reserve(max_bucket + 1);
  for (size_t b = 0; b <= max_bucket; ++b) {
    bounds.push_back(b == 0 ? 0.0
                            : static_cast<double>((uint64_t{1} << b) - 1));
  }
  obs::FamilySnapshot latency;
  latency.name = "rwdt_engine_stage_latency_ns";
  latency.help = "Per-stage pipeline latency in nanoseconds.";
  latency.type = obs::MetricType::kHistogram;
  for (size_t s = 0; s < kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    if (StageCount(stage) == 0) continue;
    obs::AppendHistogramSamples(
        bounds,
        [&](size_t i) { return i < bounds.size() ? histogram[s][i] : 0; },
        static_cast<double>(stage_total_ns[s]),
        WithLabel(labels, "stage", StageName(stage)), &latency.samples);
  }
  out->push_back(std::move(latency));
}

}  // namespace rwdt::engine
