#include "engine/metrics.h"

#include <bit>
#include <cstdio>

#include "common/json.h"
#include "common/table.h"

namespace rwdt::engine {
namespace {

/// Geometric midpoint of bucket b (values in [2^(b-1), 2^b)).
uint64_t BucketMid(size_t b) {
  if (b == 0) return 0;
  const double lo = static_cast<double>(uint64_t{1} << (b - 1));
  return static_cast<uint64_t>(lo * 1.41421356237);
}

/// Value at quantile q in [0,1] of a bucketed histogram with n samples.
uint64_t Quantile(const std::array<uint64_t, 64>& buckets, uint64_t n,
                  double q) {
  if (n == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(q * (n - 1));
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen > rank) return BucketMid(b);
  }
  return BucketMid(buckets.size() - 1);
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

Metrics::Metrics() { Reset(); }

void LocalMetrics::Record(Stage stage, uint64_t ns) {
  const size_t s = static_cast<size_t>(stage);
  const size_t b = std::bit_width(ns);  // 0 -> bucket 0, else floor(log2)+1
  histogram[s][b < kLatencyBuckets ? b : kLatencyBuckets - 1]++;
  stage_total_ns[s] += ns;
  if (ns > stage_max_ns[s]) stage_max_ns[s] = ns;
}

void Metrics::Merge(const LocalMetrics& local) {
  if (local.analyzed != 0) analyzed_.fetch_add(local.analyzed, kRelaxed);
  if (local.parse_failures != 0) {
    parse_failures_.fetch_add(local.parse_failures, kRelaxed);
  }
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    if (local.errors[c] != 0) errors_[c].fetch_add(local.errors[c], kRelaxed);
  }
  for (size_t s = 0; s < kNumStages; ++s) {
    if (local.stage_total_ns[s] != 0) {
      stage_total_ns_[s].fetch_add(local.stage_total_ns[s], kRelaxed);
    }
    const uint64_t local_max = local.stage_max_ns[s];
    if (local_max != 0) {
      uint64_t cur = stage_max_ns_[s].load(kRelaxed);
      while (local_max > cur && !stage_max_ns_[s].compare_exchange_weak(
                                    cur, local_max, kRelaxed)) {
      }
    }
    for (size_t b = 0; b < kBuckets; ++b) {
      if (local.histogram[s][b] != 0) {
        histogram_[s][b].fetch_add(local.histogram[s][b], kRelaxed);
      }
    }
  }
}

void Metrics::Record(Stage stage, uint64_t ns) {
  const size_t s = static_cast<size_t>(stage);
  const size_t b = std::bit_width(ns);  // 0 -> bucket 0, else floor(log2)+1
  histogram_[s][b < kBuckets ? b : kBuckets - 1].fetch_add(1, kRelaxed);
  stage_total_ns_[s].fetch_add(ns, kRelaxed);
  // CAS-max: the snapshot's max_ns is the exact observed maximum, not
  // the upper edge of a histogram bucket.
  uint64_t cur = stage_max_ns_[s].load(kRelaxed);
  while (ns > cur &&
         !stage_max_ns_[s].compare_exchange_weak(cur, ns, kRelaxed)) {
  }
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snap;
  snap.entries_processed = entries_.load(kRelaxed);
  snap.queries_analyzed = analyzed_.load(kRelaxed);
  snap.parse_failures = parse_failures_.load(kRelaxed);
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    snap.errors[c] = errors_[c].load(kRelaxed);
  }
  snap.wall_ns = wall_ns_.load(kRelaxed);
  for (size_t s = 0; s < kNumStages; ++s) {
    std::array<uint64_t, kBuckets> buckets{};
    uint64_t count = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      buckets[b] = histogram_[s][b].load(kRelaxed);
      count += buckets[b];
    }
    StageStats& st = snap.stages[s];
    st.count = count;
    st.total_ns = stage_total_ns_[s].load(kRelaxed);
    st.mean_ns = count == 0 ? 0.0 : static_cast<double>(st.total_ns) / count;
    st.p50_ns = Quantile(buckets, count, 0.50);
    st.p90_ns = Quantile(buckets, count, 0.90);
    st.p99_ns = Quantile(buckets, count, 0.99);
    st.max_ns = stage_max_ns_[s].load(kRelaxed);
    st.buckets = buckets;
  }
  return snap;
}

void Metrics::Reset() {
  entries_.store(0, kRelaxed);
  analyzed_.store(0, kRelaxed);
  parse_failures_.store(0, kRelaxed);
  for (auto& e : errors_) e.store(0, kRelaxed);
  wall_ns_.store(0, kRelaxed);
  for (auto& stage : histogram_) {
    for (auto& bucket : stage) bucket.store(0, kRelaxed);
  }
  for (auto& total : stage_total_ns_) total.store(0, kRelaxed);
  for (auto& mx : stage_max_ns_) mx.store(0, kRelaxed);
}

std::string MetricsSnapshot::ToText() const {
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
    const StageStats& st = stages[s];
    if (st.count == 0) continue;
    table.AddRow({StageName(static_cast<Stage>(s)), WithThousands(st.count),
                  NsHuman(static_cast<double>(st.total_ns)),
                  NsHuman(st.mean_ns),
                  NsHuman(static_cast<double>(st.p50_ns)),
                  NsHuman(static_cast<double>(st.p90_ns)),
                  NsHuman(static_cast<double>(st.p99_ns)),
                  NsHuman(static_cast<double>(st.max_ns))});
  }
  out += table.Render();
  return out;
}

std::string MetricsSnapshot::ToJson() const {
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
    const StageStats& st = stages[s];
    if (st.count == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(StageName(static_cast<Stage>(s)), &out);
    out += "\":{";
    AppendJsonField(&out, "count", static_cast<double>(st.count));
    AppendJsonField(&out, "total_ms", st.total_ns / 1e6);
    AppendJsonField(&out, "mean_us", st.mean_ns / 1e3);
    AppendJsonField(&out, "p50_us", st.p50_ns / 1e3);
    AppendJsonField(&out, "p90_us", st.p90_ns / 1e3);
    AppendJsonField(&out, "p99_us", st.p99_ns / 1e3);
    AppendJsonField(&out, "max_us", st.max_ns / 1e3, false);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace rwdt::engine
