// Layer-by-layer replays for traced runs: the same inputs a workload
// times end to end, pushed single-threaded through the public functions
// the ingest and engine pipelines are built from, with a span around each
// call. Used by ingest-dup's traced run.

#ifndef RWDT_PERFBENCH_LAYERS_H_
#define RWDT_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "common/arena.h"
#include "core/log_study.h"

namespace perfbench {

/// Work counts gathered by the replays; the spans carry the times.
struct LayerCounts {
  // ingest: lines framed, payload bytes, lines rejected before the
  // engine, records stitched across a block boundary.
  uint64_t lines = 0;
  uint64_t bytes = 0;
  uint64_t rejects = 0;
  uint64_t carry_stitches = 0;
  uint64_t utf8_checked = 0;
  // engine: entries routed, distinct texts among them, and the summed
  // duration of every replayed call on the engine's per-entry path.
  uint64_t entries = 0;
  uint64_t distinct = 0;
  double replayed_ns = 0;
  // Feed + Finish wall of the same entries on 1- and 2-thread engines.
  double stream_1t_ns = 0;
  double stream_2t_ns = 0;
  // sparql / hypergraph / paths, over distinct texts.
  uint64_t parse_failures = 0;
  uint64_t pure_cq = 0;     // CQs whose hypergraph is analysed twice
  uint64_t cyclic_cqf = 0;  // CQ+F where the htw<=2 / htw<=3 searches run
  uint64_t path_triples = 0;
  std::vector<double> path_ns;  // paths stage of queries that have paths
};

/// One log's lines as ingest frames them: blank lines skipped, oversized
/// and invalid-UTF-8 lines rejected and counted.
struct IngestedLines {
  std::vector<std::string_view> accepted;
  uint64_t overflow_rejects = 0;
  uint64_t encoding_rejects = 0;
  rwdt::Arena copies;  // backs `accepted` when blocks are not stable
};

/// Scans the log at `path` twice, mapped as IngestFile reads it: once
/// timed as span ingest.scan (BlockReader::Next + LineScanner::Next,
/// nothing kept), once untimed to collect the lines. Then checks each
/// line with tree::IsValidUtf8 (span ingest.utf8). False when the file
/// cannot be mapped.
bool ReplayIngest(const std::string& path, Tracer* tracer,
                  LayerCounts* counts, IngestedLines* out);

/// Replays texts through the engine's per-entry pipeline at one shard,
/// one layer at a time: Hash64 (engine.hash), FlatInterner dedup
/// (engine.dedup), ParseSparql on first occurrences (sparql.parse),
/// core::Classify (core.classify, with core.features, hypergraph.analyze
/// and paths.classify children from its StageTimings), AddToAggregates
/// (core.aggregate; the weighted duplicate fold sits under engine.fold).
/// Returns the study those calls add up to, rejects excluded.
rwdt::core::SourceStudy ReplayEngine(const std::vector<std::string_view>& texts,
                                     Tracer* tracer, LayerCounts* counts);

/// Runs EngineStream::Feed + Finish over the accepted lines, with the
/// rejects counted, on fresh 1- and 2-thread engines (spans
/// engine.feed_1t, engine.finish_1t, engine.feed_2t, engine.finish_2t).
/// Returns the 1-thread study; `*two_thread_matches` says whether the
/// 2-thread one is identical.
rwdt::core::SourceStudy TimeEngineStream(const std::string& name,
                                         const IngestedLines& lines,
                                         Tracer* tracer, LayerCounts* counts,
                                         bool* two_thread_matches);

/// Adds an ingest layer's rejects to a replayed study.
void AddRejects(const IngestedLines& lines, rwdt::core::SourceStudy* study);

/// The per-layer metrics of ingest, engine, sparql, core, hypergraph and
/// paths, from the replays' spans and counts.
void AddLogLayerMetrics(const Tracer& tracer, const LayerCounts& counts,
                        Outcome* out);

/// total == valid + sum(errors).
bool Balanced(const rwdt::core::SourceStudy& study);

/// Known-answer check: a fixed small log, analysed on a 1-thread engine,
/// must render to the study digest recorded in the benchmark.
void CheckKnownStudy(Outcome* out);

/// Prints each layer's self time (from the spans) to stderr and writes
/// the spans to `<work_dir>/spans-<workload>.tsv`.
void FinishTrace(const Options& options, const Tracer& tracer);

}  // namespace perfbench

#endif  // RWDT_PERFBENCH_LAYERS_H_
