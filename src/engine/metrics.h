#ifndef RWDT_ENGINE_METRICS_H_
#define RWDT_ENGINE_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

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

/// Latency histogram buckets: bucket b counts samples in [2^(b-1), 2^b) ns.
inline constexpr size_t kLatencyBuckets = 64;

const char* StageName(Stage s);

/// Per-worker metric slab for the engine's contention-free hot path.
///
/// Plain (non-atomic) counters owned by exactly one worker at a time and
/// folded into the shared `Metrics` via `Metrics::Merge` when the worker
/// finishes its shard task — i.e. before `EngineStream::Feed` returns.
/// On the per-query path workers therefore touch no shared cache line at
/// all; the ~20 shared atomic RMWs per analyzed query this replaces were
/// the single largest scaling bottleneck in the engine (parse stage
/// totals inflated 4x at 4 threads purely from counter ping-pong).
///
/// Layout constraint: alignas(64) so a slab never shares a cache line
/// with a neighbor when slabs are stored contiguously (false sharing
/// would silently reintroduce the contention this type exists to kill).
struct alignas(64) LocalMetrics {
  uint64_t analyzed = 0;
  uint64_t parse_failures = 0;
  std::array<uint64_t, kNumErrorClasses> errors{};
  std::array<uint64_t, kNumStages> stage_total_ns{};
  std::array<uint64_t, kNumStages> stage_max_ns{};
  std::array<std::array<uint64_t, kLatencyBuckets>, kNumStages> histogram{};

  /// Records one latency sample for a stage (same bucketing as Metrics).
  void Record(Stage stage, uint64_t ns);
  void AddError(ErrorClass c, uint64_t n = 1) {
    errors[static_cast<size_t>(c)] += n;
  }
};

/// Summary of one stage's latency histogram. Percentiles are
/// reconstructed from power-of-two buckets (geometric bucket midpoint),
/// so they are exact to within a factor of sqrt(2).
struct StageStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  /// Exact observed maximum (tracked by an atomic CAS-max per sample,
  /// not reconstructed from the histogram buckets).
  uint64_t max_ns = 0;
  /// Raw (non-cumulative) bucket counts: bucket b holds samples with
  /// ns in [2^(b-1), 2^b). Carried so the OpenMetrics bridge can expose
  /// real histogram series; ToText/ToJson ignore it (formats unchanged).
  std::array<uint64_t, kLatencyBuckets> buckets{};
};

/// A point-in-time copy of all engine counters, safe to read, print, and
/// serialize with no further synchronization.
struct MetricsSnapshot {
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
  uint64_t wall_ns = 0;  // cumulative wall time inside AnalyzeEntries
  unsigned threads = 1;
  /// Occupancy of the open stream's per-shard dedup state (interner +
  /// parse-dictionary bytes reserved, distinct texts pinned). Updated
  /// once per Feed chunk; after Finish it holds the finished stream's
  /// final values until the next stream feeds — a gauge, not a counter.
  uint64_t interner_bytes = 0;
  uint64_t dedup_entries = 0;

  /// Total rejected entries across all error classes.
  uint64_t TotalErrors() const {
    uint64_t sum = 0;
    for (const uint64_t e : errors) sum += e;
    return sum;
  }
  double QueriesPerSec() const {
    return wall_ns == 0 ? 0.0 : entries_processed * 1e9 / wall_ns;
  }

  std::array<StageStats, kNumStages> stages{};

  /// Human-readable multi-line report (ASCII table).
  std::string ToText() const;
  /// Machine-readable single JSON object.
  std::string ToJson() const;
};

/// Thread-safe metric registry: lock-free relaxed atomics throughout, so
/// workers on the hot path pay one uncontended cache-line RMW per event.
/// Latencies go into per-stage power-of-two bucket histograms.
class Metrics {
 public:
  Metrics();

  void AddEntries(uint64_t n) { entries_.fetch_add(n, kRelaxed); }
  void AddAnalyzed(uint64_t n) { analyzed_.fetch_add(n, kRelaxed); }
  void AddParseFailures(uint64_t n) { parse_failures_.fetch_add(n, kRelaxed); }
  /// Counts one rejected entry under its taxonomy class.
  void AddError(ErrorClass c, uint64_t n = 1) {
    errors_[static_cast<size_t>(c)].fetch_add(n, kRelaxed);
  }
  void AddWallNs(uint64_t ns) { wall_ns_.fetch_add(ns, kRelaxed); }

  /// Records one latency sample for a stage.
  void Record(Stage stage, uint64_t ns);

  /// Folds one worker's LocalMetrics slab into the shared counters.
  /// Called off the per-query path (once per shard task), so the atomic
  /// cost is amortized over the whole chunk. Zero histogram buckets are
  /// skipped — a merge is ~tens of RMWs, not kNumStages*kLatencyBuckets.
  void Merge(const LocalMetrics& local);

  /// Copies counters into a snapshot (the occupancy gauges and thread
  /// count are left for the engine to fill).
  MetricsSnapshot Snapshot() const;

  void Reset();

 private:
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;
  static constexpr size_t kBuckets = kLatencyBuckets;

  std::atomic<uint64_t> entries_;
  std::atomic<uint64_t> analyzed_;
  std::atomic<uint64_t> parse_failures_;
  std::array<std::atomic<uint64_t>, kNumErrorClasses> errors_;
  std::atomic<uint64_t> wall_ns_;
  std::array<std::array<std::atomic<uint64_t>, kBuckets>, kNumStages>
      histogram_;
  std::array<std::atomic<uint64_t>, kNumStages> stage_total_ns_;
  std::array<std::atomic<uint64_t>, kNumStages> stage_max_ns_;
};

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_METRICS_H_
