#ifndef RWDT_ENGINE_METRICS_H_
#define RWDT_ENGINE_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/registry.h"

namespace rwdt::engine {

/// Pipeline stages the engine instruments. `kGenerate` is the synthetic
/// log generator; the rest are the per-query analysis stages of the
/// paper's study pipeline.
enum class Stage : size_t {
  kGenerate = 0,   // loggen::GenerateLog (one sample per log)
  kParse,          // SPARQL text -> algebra
  kFeatures,       // Table 3/4/5 feature + operator-set extraction
  kHypergraph,     // Table 6/7 acyclicity, htw <= k, shape classes
  kPaths,          // Table 8 property-path classification
  kAggregate,      // folding one analysis into LogAggregates
};
inline constexpr size_t kNumStages = 6;

/// Latency histogram buckets per stage; metrics.cc maps nanoseconds to
/// buckets and buckets to percentiles and exposition bounds.
inline constexpr size_t kLatencyBuckets = 64;

const char* StageName(Stage s);

/// The engine's one metrics value: the paper's Table 2 accounting
/// (Total = Valid + rejects per taxonomy class) plus per-stage latency
/// histograms, in plain fields. The same type is
///  - the slab one shard task or one stream counts into, owned by one
///    thread, so the per-entry path touches no shared cache line;
///  - the engine's running total, guarded by one mutex, into which each
///    `EngineStream::Feed` merges its slabs, its entry count and its
///    wall time at once;
///  - what `Engine::Snapshot` returns.
/// Percentiles are computed from the buckets when the value is rendered:
/// as text (`ToText`), as JSON (`ToJson`: run reports, bench JSON,
/// /statusz) and as `rwdt_engine_*` families (`AppendFamilies`:
/// /metrics).
struct Metrics {
  uint64_t entries_processed = 0;  // log entries streamed through
  /// Each stream parses every distinct text once and counts it in one
  /// of these two, so their sum is the distinct texts fed per stream,
  /// summed over streams.
  uint64_t queries_analyzed = 0;   // distinct valid texts classified
  uint64_t parse_failures = 0;     // distinct failing texts
  /// Rejected entries per taxonomy class (duplicates and ingest-level
  /// rejects included) — the Total-vs-Valid gap of the paper's Table 2,
  /// broken down by cause.
  std::array<uint64_t, kNumErrorClasses> errors{};
  uint64_t wall_ns = 0;  // cumulative wall time inside Feed

  /// Per-stage latency: the sum, the exact observed maximum (not a
  /// bucket edge) and the bucketed counts.
  std::array<uint64_t, kNumStages> stage_total_ns{};
  std::array<uint64_t, kNumStages> stage_max_ns{};
  std::array<std::array<uint64_t, kLatencyBuckets>, kNumStages> histogram{};

  /// Gauges the engine sets on its total; `Merge` leaves them alone.
  unsigned threads = 1;
  /// Occupancy of the open stream's per-shard dedup state (interner +
  /// parse-dictionary bytes reserved, distinct texts pinned), set at
  /// each Feed; after Finish the finished stream's final values until
  /// the next stream feeds.
  uint64_t interner_bytes = 0;
  uint64_t dedup_entries = 0;
  /// Shard tasks queued or running on the engine's pool when the
  /// snapshot was taken (0 when single-threaded).
  uint64_t queue_depth = 0;

  /// Records one latency sample for a stage.
  void Record(Stage stage, uint64_t ns);
  /// Counts `n` rejected entries under their taxonomy class.
  void AddError(ErrorClass c, uint64_t n = 1) {
    errors[static_cast<size_t>(c)] += n;
  }
  /// Adds `other`'s counters and histograms into this value; each stage
  /// maximum keeps the larger.
  void Merge(const Metrics& other);

  /// Total rejected entries across all error classes.
  uint64_t TotalErrors() const;
  double QueriesPerSec() const;
  /// Samples recorded for `stage`.
  uint64_t StageCount(Stage stage) const;
  /// The stage's latency at quantile `q` in [0,1], reconstructed from
  /// the power-of-two buckets (geometric bucket midpoint), so exact to
  /// within a factor of sqrt(2). Every rendering's percentiles come from
  /// here.
  uint64_t QuantileNs(Stage stage, double q) const;

  /// Human-readable multi-line report (ASCII table).
  std::string ToText() const;
  /// Machine-readable single JSON object.
  std::string ToJson() const;
  /// Appends the `rwdt_engine_*` families, `labels` on every sample:
  ///
  ///   rwdt_engine_entries_total / queries_analyzed_total /
  ///   parse_failures_total / wall_seconds_total        counters
  ///   rwdt_engine_errors_total{class="parse_error"}    counter per class
  ///   rwdt_engine_threads / interner_bytes /
  ///   dedup_entries / queue_depth                      gauges
  ///   rwdt_engine_stage_latency_ns{stage="parse"}      histograms
  void AppendFamilies(const obs::Labels& labels,
                      std::vector<obs::FamilySnapshot>* out) const;
};

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_METRICS_H_
