#ifndef RWDT_ENGINE_ENGINE_H_
#define RWDT_ENGINE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/log_study.h"
#include "engine/metrics.h"
#include "engine/progress.h"
#include "engine/thread_pool.h"
#include "loggen/sparql_gen.h"
#include "obs/registry.h"

namespace rwdt::engine {

struct EngineOptions {
  /// Worker threads, each running one work shard. 0 = one per hardware
  /// thread. 1 = run inline on the calling thread (the historical
  /// single-threaded path).
  unsigned threads = 0;

  /// Live run reporting for every stream (AnalyzeLog, AnalyzeEntries,
  /// OpenStream..Finish, and so every ingest): while the stream is open
  /// a background thread snapshots the engine every
  /// `progress.interval_ms` and logs a one-line summary labeled with the
  /// stream's source name; on Finish a JSON run report goes to
  /// `progress.report_path` if set. Disabled by default (interval 0,
  /// empty path).
  ProgressOptions progress;

  /// Per-query analysis knobs, forwarded to core::Classify.
  core::LogStudyOptions study;

  /// Rejects nonsensical configurations (a degenerate thread count, an
  /// hour-long progress interval) before any work is
  /// scheduled. The ingest layer calls this up front so
  /// misconfiguration fails fast, not mid-stream.
  Status Validate() const;
};

class Engine;

/// One log entry routed to a shard, carrying the `common::Hash64` of its
/// text. The hash is computed exactly once (in EngineStream::Feed) and
/// reused for shard routing and per-shard dedup — the hash-once
/// pipeline. The text is borrowed, never owned: it may point into a
/// caller's LogEntry, an mmapped log file, or a chunk arena, and only
/// needs to stay valid for the duration of the Feed call that routed it
/// (everything downstream copies on retention).
struct RoutedEntry {
  std::string_view text;
  uint64_t hash;
};

/// An incremental feed into the engine: per-shard dedup state persists
/// across `Feed` calls, so a log streamed in bounded-memory chunks
/// yields exactly the same SourceStudy as a single materialized vector.
///
/// Obtained from `Engine::OpenStream`. Feed/Reject/Finish must be called
/// from one thread (the engine parallelizes internally); Finish
/// invalidates the stream. Only one stream per engine may be open at a
/// time, and AnalyzeLog/AnalyzeEntries must not run while one is open.
class EngineStream {
 public:
  EngineStream(EngineStream&&) noexcept;
  EngineStream& operator=(EngineStream&&) noexcept;
  ~EngineStream();

  EngineStream(const EngineStream&) = delete;
  EngineStream& operator=(const EngineStream&) = delete;

  /// Routes one chunk of entries through the shard pipeline. Chunk
  /// boundaries never affect results.
  void Feed(const std::vector<loggen::LogEntry>& chunk);

  /// Zero-copy variant: the views are borrowed for the duration of the
  /// call only (the block ingest path feeds views straight out of an
  /// mmapped log). Produces bit-identical results to the LogEntry
  /// overload for the same texts in the same order.
  void Feed(std::span<const std::string_view> chunk);

  /// Counts `n` entries rejected before parsing (oversized lines,
  /// invalid UTF-8, ...). Rejects appear in `total` and in the per-class
  /// error counters, never in valid/unique. They reach the engine's
  /// metrics with the next Feed, or at Finish.
  void Reject(ErrorClass c, uint64_t n = 1);

  /// Reduces shard state into the final study. Invariant on the result:
  /// total == valid + sum(errors).
  core::SourceStudy Finish();

 private:
  friend class Engine;
  struct Impl;
  explicit EngineStream(std::unique_ptr<Impl> impl);
  /// Shared routing pipeline: `for_each_text` invokes its callback once
  /// per entry text, in order. Both Feed overloads funnel through here
  /// so they cannot diverge.
  template <typename ForEachText>
  void FeedImpl(size_t count, ForEachText&& for_each_text);
  std::unique_ptr<Impl> impl_;
};

/// A parallel streaming log-analysis engine.
///
/// The engine runs the paper's per-query classifier battery (Tables 3-8,
/// Figure 3) over query logs with three production-minded properties:
///
///  1. **Sharded parallelism.** Entries are partitioned by query-text
///     hash across one shard per thread, executed on a fixed thread
///     pool, so all duplicates of a text land in one shard and per-shard
///     dedup is exact. Aggregates are pure uint64 sums reduced through
///     `core::Merge` in shard order, so results are bit-identical for a
///     given seed regardless of thread count.
///  2. **Exact dedup.** Every duplicate of a text lands in one shard,
///     which parses and classifies the text once per stream and keeps
///     its analysis; later occurrences only count. The
///     Valid/Unique gap of the paper's Table 2 (duplication factors of
///     2-10x) thus costs a hash lookup per duplicate. Nothing is kept
///     across streams: a second log on the same engine parses again.
///  3. **Observability.** Counters and per-stage latency histograms in
///     one `Metrics` value: workers count into per-shard slabs, and each
///     Feed merges them into the engine's total under one lock.
///     `Snapshot` copies the total, and a scrape-time collector renders
///     it into the process-wide obs::MetricRegistry (`rwdt_engine_*`).
///     The engine only analyzes: the tools that run it host the admin
///     endpoints (serve::MaybeStartEnvAdmin) and the profiler
///     (obs::MaybeStartEnvProfile).
///
/// Thread-safe for metrics reads; `AnalyzeLog`/`AnalyzeEntries` must not
/// be called concurrently on the same engine.
class Engine {
 public:
  explicit Engine(const EngineOptions& options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Generates the log for `profile` at `seed` and streams it through
  /// the pipeline. The study is the same for any thread count.
  core::SourceStudy AnalyzeLog(const loggen::SourceProfile& profile,
                               uint64_t seed);

  /// Streams an already-materialized log through the pipeline.
  /// Implemented as OpenStream + one Feed + Finish.
  core::SourceStudy AnalyzeEntries(const std::string& name,
                                   bool wikidata_like,
                                   const std::vector<loggen::LogEntry>& entries);

  /// Opens an incremental stream for a log too large to materialize.
  /// See EngineStream for the contract.
  EngineStream OpenStream(std::string name, bool wikidata_like);

  /// The totals since construction, with the gauges: thread count,
  /// dedup occupancy and the pool's queue depth. Every Feed's counts
  /// arrive at once, so a snapshot never holds a chunk's rejects without
  /// its entries.
  Metrics Snapshot() const;

  unsigned threads() const { return threads_; }

 private:
  friend class EngineStream;
  struct ShardState;
  void ProcessShard(const std::vector<RoutedEntry>& entries,
                    ShardState* state);

  EngineOptions options_;
  unsigned threads_;                  // and shards, one per thread
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1

  /// The running total. The registry collector takes this lock under the
  /// registry's, so the engine never calls the registry while holding
  /// it.
  mutable std::mutex metrics_mu_;
  Metrics metrics_;
  /// Renders Snapshot() as rwdt_engine_*{engine="<ordinal>"} at scrape
  /// time.
  obs::ScopedCollector registry_collector_;
};

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_ENGINE_H_
