#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/interner.h"
#include "common/rng.h"
#include "core/log_study.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/progress.h"
#include "engine/thread_pool.h"
#include "obs/log.h"
#include "obs/openmetrics.h"
#include "obs/registry.h"
#include "tree/json.h"

namespace rwdt::engine {
namespace {

core::SourceStudy RunWith(unsigned threads, uint64_t seed) {
  EngineOptions opts;
  opts.threads = threads;
  Engine engine(opts);
  return engine.AnalyzeLog(loggen::ExampleProfile(1500), seed);
}

TEST(EngineTest, DeterministicAcrossThreadCounts) {
  // The headline guarantee: aggregates are bit-identical for a fixed
  // seed regardless of thread count (one shard per thread).
  const core::SourceStudy t1 = RunWith(1, 42);
  const core::SourceStudy t2 = RunWith(2, 42);
  const core::SourceStudy t8 = RunWith(8, 42);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_GT(t1.valid_agg.queries, 0u);
}

TEST(EngineTest, DeterministicAcrossOddThreadCounts) {
  // One shard per thread: odd counts route by a modulus that is not a
  // power of two.
  const core::SourceStudy s1 = RunWith(1, 7);
  const core::SourceStudy s3 = RunWith(3, 7);
  const core::SourceStudy s7 = RunWith(7, 7);
  EXPECT_EQ(s1, s3);
  EXPECT_EQ(s1, s7);
}

TEST(EngineTest, DeterministicAcrossThreadsAndChunking) {
  // The full grid the hash-once pipeline must keep bit-identical:
  // {1,2,4,7} threads (one shard each) x chunked/unchunked feeds all
  // reduce to the same SourceStudy.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(1200), 31);
  core::SourceStudy reference;
  bool have_reference = false;
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    for (bool chunked : {false, true}) {
      EngineOptions opts;
      opts.threads = threads;
      Engine engine(opts);
      core::SourceStudy study;
      if (!chunked) {
        study = engine.AnalyzeEntries("grid", false, entries);
      } else {
        EngineStream stream = engine.OpenStream("grid", false);
        constexpr size_t kChunk = 97;  // deliberately ragged boundary
        for (size_t i = 0; i < entries.size(); i += kChunk) {
          std::vector<loggen::LogEntry> chunk(
              entries.begin() + i,
              entries.begin() + std::min(entries.size(), i + kChunk));
          stream.Feed(chunk);
        }
        study = stream.Finish();
      }
      if (!have_reference) {
        reference = study;
        have_reference = true;
        EXPECT_GT(reference.valid_agg.queries, 0u);
      } else {
        ASSERT_EQ(study, reference)
            << "threads=" << threads << " chunked=" << chunked;
      }
    }
  }
}

size_t DistinctTexts(const std::vector<loggen::LogEntry>& entries) {
  std::unordered_set<std::string_view> texts;
  for (const loggen::LogEntry& e : entries) texts.insert(e.text);
  return texts.size();
}

TEST(EngineTest, ScalingSmokeSameStudy) {
  // Scaling smoke for the contention-free hot path: the same 50k-entry
  // log at 1 and 4 threads must produce an identical SourceStudy.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(50000), 46);
  core::SourceStudy studies[2];
  const unsigned thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    EngineOptions opts;
    opts.threads = thread_counts[i];
    Engine engine(opts);
    studies[i] = engine.AnalyzeEntries("smoke", false, entries);
  }
  EXPECT_EQ(studies[0], studies[1]);
}

TEST(EngineTest, EachDistinctTextParsedOncePerStream) {
  // The one dedup path: within a stream, the parser runs exactly once per
  // distinct text (valid or failing), whatever the thread count and
  // however the log is chunked; duplicates never reach it.
  loggen::SourceProfile p = loggen::ExampleProfile(2000);
  p.duplicate_factor = 4.0;  // Valid/Unique ~ 4, as in the busiest logs
  const auto entries = loggen::GenerateLog(p, 5);
  const size_t distinct = DistinctTexts(entries);
  ASSERT_LT(distinct, entries.size());
  for (unsigned threads : {1u, 2u, 4u}) {
    for (size_t chunk : {entries.size(), size_t{97}, size_t{1}}) {
      EngineOptions opts;
      opts.threads = threads;
      Engine engine(opts);
      EngineStream stream = engine.OpenStream("law", false);
      for (size_t i = 0; i < entries.size(); i += chunk) {
        stream.Feed(std::vector<loggen::LogEntry>(
            entries.begin() + i,
            entries.begin() + std::min(entries.size(), i + chunk)));
      }
      const core::SourceStudy study = stream.Finish();
      const Metrics snap = engine.Snapshot();
      EXPECT_GT(snap.parse_failures, 0u);  // the law covers failing texts
      EXPECT_EQ(snap.queries_analyzed + snap.parse_failures, distinct)
          << "threads=" << threads << " chunk=" << chunk;
      EXPECT_EQ(snap.queries_analyzed, study.unique)
          << "threads=" << threads << " chunk=" << chunk;
      EXPECT_EQ(snap.entries_processed, study.total);
    }
  }
}

TEST(EngineTest, SecondStreamOnOneEngineParsesAgain) {
  // Nothing is memoized across streams: the same log streamed twice
  // through one engine gives equal studies and parses every distinct
  // text twice.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(1000), 21);
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(opts);
  const core::SourceStudy first = engine.AnalyzeEntries("twice", false, entries);
  const Metrics after_first = engine.Snapshot();
  const core::SourceStudy second =
      engine.AnalyzeEntries("twice", false, entries);
  const Metrics after_second = engine.Snapshot();
  EXPECT_EQ(first, second);
  EXPECT_GT(after_first.queries_analyzed, 0u);
  EXPECT_GT(after_first.parse_failures, 0u);
  EXPECT_EQ(after_second.queries_analyzed, 2 * after_first.queries_analyzed);
  EXPECT_EQ(after_second.parse_failures, 2 * after_first.parse_failures);
}

TEST(EngineTest, OccupancyGaugesKeepTheFinishedStream) {
  // After Finish, the dedup gauges hold the finished stream's final
  // occupancy (bench JSON and run reports snapshot them then).
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(1500), 8);
  for (unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.threads = threads;
    Engine engine(opts);
    engine.AnalyzeEntries("gauges", false, entries);
    const Metrics snap = engine.Snapshot();
    EXPECT_EQ(snap.dedup_entries, DistinctTexts(entries))
        << "threads=" << threads;
    EXPECT_GT(snap.interner_bytes, 0u) << "threads=" << threads;
  }
}

TEST(EngineTest, SnapshotNeverSeesRejectsBeforeTheirEntries) {
  // Each Feed's counts reach the engine's total at once, so a reader
  // never sees a chunk's rejects or parse failures without its entries.
  // One-entry feeds of distinct failing texts add one entry, one parse
  // failure and one reject each, while a reader snapshots and scrapes.
  constexpr size_t kFeeds = 20000;
  std::vector<std::string> texts;
  texts.reserve(kFeeds);
  for (size_t i = 0; i < kFeeds; ++i) {
    texts.push_back("SELECT ?x WHERE { ?x ?p " + std::to_string(i));
  }
  for (unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.threads = threads;
    Engine engine(opts);
    std::atomic<bool> done{false};
    uint64_t snapshots = 0;
    uint64_t torn = 0;
    std::thread reader([&] {
      do {
        const Metrics snap = engine.Snapshot();
        if (snap.TotalErrors() > snap.entries_processed ||
            snap.queries_analyzed + snap.parse_failures >
                snap.entries_processed) {
          ++torn;
        }
        ++snapshots;
        obs::MetricRegistry::Global().RenderOpenMetrics();
      } while (!done.load(std::memory_order_acquire));
    });
    EngineStream stream = engine.OpenStream("snapshots", false);
    for (size_t i = 0; i < kFeeds; ++i) {
      const std::string_view text = texts[i];
      stream.Feed(std::span<const std::string_view>(&text, 1));
      if (i % 5000 == 0) stream.Reject(ErrorClass::kEncodingError, 2);
    }
    const core::SourceStudy study = stream.Finish();
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(torn, 0u) << "of " << snapshots
                        << " snapshots, threads=" << threads;
    const Metrics last = engine.Snapshot();
    EXPECT_EQ(last.entries_processed, study.total) << "threads=" << threads;
    EXPECT_EQ(last.errors, study.errors) << "threads=" << threads;
    EXPECT_EQ(last.parse_failures, kFeeds) << "threads=" << threads;
    EXPECT_EQ(last.queries_analyzed, study.unique) << "threads=" << threads;
    EXPECT_EQ(study.valid, 0u);
  }
}

TEST(EngineTest, SpanFeedMatchesVectorFeed) {
  // The zero-copy ingest path feeds borrowed string_views; the legacy
  // path feeds owned LogEntry vectors. Same texts => same SourceStudy,
  // bit for bit, across thread counts and ragged chunking.
  const auto entries = loggen::GenerateLog(loggen::ExampleProfile(800), 63);
  for (unsigned threads : {1u, 4u}) {
    EngineOptions opts;
    opts.threads = threads;

    Engine vec_engine(opts);
    EngineStream vec_stream = vec_engine.OpenStream("span", false);
    Engine span_engine(opts);
    EngineStream span_stream = span_engine.OpenStream("span", false);

    constexpr size_t kChunk = 113;
    for (size_t i = 0; i < entries.size(); i += kChunk) {
      const size_t end = std::min(entries.size(), i + kChunk);
      std::vector<loggen::LogEntry> chunk(entries.begin() + i,
                                          entries.begin() + end);
      vec_stream.Feed(chunk);
      std::vector<std::string_view> views;
      views.reserve(end - i);
      for (size_t j = i; j < end; ++j) views.push_back(entries[j].text);
      span_stream.Feed(std::span<const std::string_view>(views));
    }
    const core::SourceStudy from_vec = vec_stream.Finish();
    const core::SourceStudy from_span = span_stream.Finish();
    EXPECT_EQ(from_vec, from_span) << "threads=" << threads;
    EXPECT_GT(from_span.valid_agg.queries, 0u);
  }
}

TEST(EngineTest, MatchesLegacySingleThreadedPath) {
  loggen::SourceProfile p = loggen::ExampleProfile(1200);
  EngineOptions one;
  one.threads = 1;
  const core::SourceStudy legacy = Engine(one).AnalyzeLog(p, 13);
  EngineOptions opts;
  opts.threads = 4;
  Engine engine(opts);
  EXPECT_EQ(legacy, engine.AnalyzeLog(p, 13));
}

core::LogAggregates RandomAggregates(Rng* rng) {
  core::LogAggregates a;
  a.queries = rng->NextBelow(1000);
  for (auto& h : a.triple_histogram) h = rng->NextBelow(100);
  a.feature_counts[sparql::Feature::kFilter] = rng->NextBelow(50);
  if (rng->NextBool(0.5)) {
    a.feature_counts[sparql::Feature::kUnion] = rng->NextBelow(50);
  }
  a.select_ask_construct = rng->NextBelow(900);
  a.describe = rng->NextBelow(100);
  a.ops_none = rng->NextBelow(10);
  a.ops_and = rng->NextBelow(10);
  a.ops_filter = rng->NextBelow(10);
  a.ops_and_filter = rng->NextBelow(10);
  a.ops_rpq = rng->NextBelow(10);
  a.ops_and_rpq = rng->NextBelow(10);
  a.ops_filter_rpq = rng->NextBelow(10);
  a.ops_and_filter_rpq = rng->NextBelow(10);
  a.cq = rng->NextBelow(500);
  a.cq_f = rng->NextBelow(500);
  a.c2rpq_f = rng->NextBelow(500);
  a.afo_only = rng->NextBelow(500);
  a.well_designed = rng->NextBelow(500);
  a.safe_filters_only = rng->NextBelow(500);
  a.simple_filters_only = rng->NextBelow(500);
  a.cq_fca = rng->NextBelow(100);
  a.cq_htw1 = rng->NextBelow(100);
  a.cq_htw2 = rng->NextBelow(100);
  a.cq_htw3 = rng->NextBelow(100);
  a.cqf_fca = rng->NextBelow(100);
  a.cqf_htw1 = rng->NextBelow(100);
  a.cqf_htw2 = rng->NextBelow(100);
  a.cqf_htw3 = rng->NextBelow(100);
  a.graph_cqf = rng->NextBelow(100);
  a.shapes_with_constants[hypergraph::GraphShape::kStar] =
      rng->NextBelow(40);
  if (rng->NextBool(0.5)) {
    a.shapes_without_constants[hypergraph::GraphShape::kChain] =
        rng->NextBelow(40);
  }
  a.property_paths = rng->NextBelow(100);
  a.path_types[paths::Table8Type::kAStar] = rng->NextBelow(60);
  a.path_ste = rng->NextBelow(60);
  a.path_ctract = rng->NextBelow(60);
  a.path_ttract = rng->NextBelow(60);
  return a;
}

TEST(EngineTest, MergeIsCommutative) {
  Rng rng(2022);
  for (int trial = 0; trial < 20; ++trial) {
    const core::LogAggregates a = RandomAggregates(&rng);
    const core::LogAggregates b = RandomAggregates(&rng);
    core::LogAggregates ab = a;
    core::Merge(b, &ab);
    core::LogAggregates ba = b;
    core::Merge(a, &ba);
    EXPECT_EQ(ab, ba);
  }
}

TEST(EngineTest, MergeIsAssociative) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const core::LogAggregates a = RandomAggregates(&rng);
    const core::LogAggregates b = RandomAggregates(&rng);
    const core::LogAggregates c = RandomAggregates(&rng);
    // (a + b) + c
    core::LogAggregates left = a;
    core::Merge(b, &left);
    core::Merge(c, &left);
    // a + (b + c)
    core::LogAggregates bc = b;
    core::Merge(c, &bc);
    core::LogAggregates right = a;
    core::Merge(bc, &right);
    EXPECT_EQ(left, right);
  }
}

TEST(EngineTest, MergeIdentity) {
  Rng rng(11);
  const core::LogAggregates a = RandomAggregates(&rng);
  core::LogAggregates sum = a;
  core::Merge(core::LogAggregates{}, &sum);
  EXPECT_EQ(sum, a);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  // Wait() is re-usable: a second batch works too.
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 150);
}

TEST(MetricsTest, QuantilesSummarizeHistogram) {
  Metrics metrics;
  for (int i = 0; i < 1000; ++i) {
    metrics.Record(Stage::kParse, 1000);  // 1 us
  }
  metrics.Record(Stage::kParse, 1 << 20);  // one ~1 ms outlier
  const uint64_t p50 = metrics.QuantileNs(Stage::kParse, 0.50);
  const uint64_t p90 = metrics.QuantileNs(Stage::kParse, 0.90);
  const uint64_t p99 = metrics.QuantileNs(Stage::kParse, 0.99);
  EXPECT_EQ(metrics.StageCount(Stage::kParse), 1001u);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GE(metrics.stage_max_ns[static_cast<size_t>(Stage::kParse)],
            uint64_t{1} << 19);
  // p50 lands in the bucket containing 1 us, within a factor of sqrt(2).
  EXPECT_GT(p50, 500u);
  EXPECT_LT(p50, 2000u);
}

TEST(MetricsTest, MaxIsExactNotBucketEdge) {
  // The maximum is the exact observed one, not the upper edge of the
  // power-of-two histogram bucket (which would be 4096 for a 3000 ns
  // sample), nor the latest sample; a merge keeps the larger of the two.
  constexpr size_t kParse = static_cast<size_t>(Stage::kParse);
  Metrics metrics;
  metrics.Record(Stage::kParse, 1000);
  metrics.Record(Stage::kParse, 3000);
  metrics.Record(Stage::kParse, 2000);
  EXPECT_EQ(metrics.stage_max_ns[kParse], 3000u);
  EXPECT_NE(metrics.ToJson().find("\"max_us\""), std::string::npos);

  Metrics larger;
  larger.Record(Stage::kParse, 5000);
  metrics.Merge(larger);
  EXPECT_EQ(metrics.stage_max_ns[kParse], 5000u);

  Metrics smaller;
  smaller.Record(Stage::kParse, 4000);
  metrics.Merge(smaller);
  EXPECT_EQ(metrics.stage_max_ns[kParse], 5000u);
  EXPECT_EQ(metrics.StageCount(Stage::kParse), 5u);
}

TEST(MetricsTest, JsonContainsHeadlineFields) {
  EngineOptions opts;
  opts.threads = 2;
  Engine engine(opts);
  engine.AnalyzeLog(loggen::ExampleProfile(300), 3);
  const std::string json = engine.Snapshot().ToJson();
  EXPECT_NE(json.find("\"queries_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"dedup_entries\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"hypergraph\""), std::string::npos);
  const std::string text = engine.Snapshot().ToText();
  EXPECT_NE(text.find("analyzed"), std::string::npos);
}

// The three renderings of one hand-built value, byte for byte: the text
// report, the JSON object (run reports, bench JSON, /statusz) and the
// rwdt_engine_* exposition on /metrics. Every error class is non-zero,
// and the parse stage's rows run past its own last sample up to the
// hypergraph stage's, where the empty tail collapses into +Inf.
constexpr const char* kGoldenText =
    R"golden(engine metrics: 1,234 entries, 700 analyzed, 90 parse errors, 4 thread(s)
  throughput: 494 queries/sec over 2.50 s wall
  rejected: 165 of 1,234 entries (1,069 valid) by class:
    lex_error            11
    parse_error          22
    unsupported_feature  33
    resource_exhausted   44
    encoding_error       55
+------------+-------+----------+---------+---------+---------+---------+---------+
| Stage      | Count | Total    | Mean    | p50     | p90     | p99     | Max     |
+------------+-------+----------+---------+---------+---------+---------+---------+
| parse      |     5 |  1.40 us |  281 ns |    2 ns |  724 ns |  724 ns |  700 ns |
| hypergraph |     2 | 11.00 us | 5.50 us | 1.45 us | 1.45 us | 1.45 us | 9.00 us |
+------------+-------+----------+---------+---------+---------+---------+---------+
)golden";

constexpr const char* kGoldenJson =
    R"golden({"entries_processed":1234,"queries_analyzed":700,"parse_failures":90,"queries_per_sec":493.6,"wall_ms":2500,"threads":4,"interner_bytes":65536,"dedup_entries":790,"entries_valid":1069,"entries_rejected":165,"errors":{"lex_error":11,"parse_error":22,"unsupported_feature":33,"resource_exhausted":44,"encoding_error":55},"stages":{"parse":{"count":5,"total_ms":0.001404,"mean_us":0.2808,"p50_us":0.002,"p90_us":0.724,"p99_us":0.724,"max_us":0.7},"hypergraph":{"count":2,"total_ms":0.011,"mean_us":5.5,"p50_us":1.448,"p90_us":1.448,"p99_us":1.448,"max_us":9}}})golden";

constexpr const char* kGoldenOpenMetrics =
    R"golden(# HELP rwdt_engine_dedup_entries Distinct query texts pinned by the open (else the last finished) stream's dedup state.
# TYPE rwdt_engine_dedup_entries gauge
rwdt_engine_dedup_entries{engine="0"} 790
# HELP rwdt_engine_entries Log entries streamed through the engine.
# TYPE rwdt_engine_entries counter
rwdt_engine_entries_total{engine="0"} 1234
# HELP rwdt_engine_errors Rejected entries by taxonomy class.
# TYPE rwdt_engine_errors counter
rwdt_engine_errors_total{class="lex_error",engine="0"} 11
rwdt_engine_errors_total{class="parse_error",engine="0"} 22
rwdt_engine_errors_total{class="unsupported_feature",engine="0"} 33
rwdt_engine_errors_total{class="resource_exhausted",engine="0"} 44
rwdt_engine_errors_total{class="encoding_error",engine="0"} 55
# HELP rwdt_engine_interner_bytes Bytes reserved by the open (else the last finished) stream's dedup interners and parse dictionaries.
# TYPE rwdt_engine_interner_bytes gauge
rwdt_engine_interner_bytes{engine="0"} 65536
# HELP rwdt_engine_parse_failures Distinct query texts that failed to parse.
# TYPE rwdt_engine_parse_failures counter
rwdt_engine_parse_failures_total{engine="0"} 90
# HELP rwdt_engine_queries_analyzed Distinct query texts parsed and classified (once per stream).
# TYPE rwdt_engine_queries_analyzed counter
rwdt_engine_queries_analyzed_total{engine="0"} 700
# HELP rwdt_engine_queue_depth Shard tasks queued or running on the engine's thread pool.
# TYPE rwdt_engine_queue_depth gauge
rwdt_engine_queue_depth{engine="0"} 5
# HELP rwdt_engine_stage_latency_ns Per-stage pipeline latency in nanoseconds.
# TYPE rwdt_engine_stage_latency_ns histogram
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="0"} 1
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="1"} 2
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="3"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="7"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="15"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="31"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="63"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="127"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="255"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="511"} 3
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="1023"} 5
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="2047"} 5
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="4095"} 5
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="8191"} 5
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="16383"} 5
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="parse",le="+Inf"} 5
rwdt_engine_stage_latency_ns_sum{engine="0",stage="parse"} 1404
rwdt_engine_stage_latency_ns_count{engine="0",stage="parse"} 5
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="0"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="1"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="3"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="7"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="15"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="31"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="63"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="127"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="255"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="511"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="1023"} 0
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="2047"} 1
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="4095"} 1
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="8191"} 1
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="16383"} 2
rwdt_engine_stage_latency_ns_bucket{engine="0",stage="hypergraph",le="+Inf"} 2
rwdt_engine_stage_latency_ns_sum{engine="0",stage="hypergraph"} 11000
rwdt_engine_stage_latency_ns_count{engine="0",stage="hypergraph"} 2
# HELP rwdt_engine_threads Engine worker threads.
# TYPE rwdt_engine_threads gauge
rwdt_engine_threads{engine="0"} 4
# HELP rwdt_engine_wall_seconds Cumulative wall time inside AnalyzeEntries/Feed.
# TYPE rwdt_engine_wall_seconds counter
rwdt_engine_wall_seconds_total{engine="0"} 2.5
# EOF
)golden";

TEST(MetricsTest, ThreeRenderingsOfOneValueAreGolden) {
  Metrics value;
  value.entries_processed = 1234;
  value.queries_analyzed = 700;
  value.parse_failures = 90;
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    value.AddError(static_cast<ErrorClass>(c), 11 * (c + 1));
  }
  value.wall_ns = 2'500'000'000;
  for (const uint64_t ns : {0, 1, 3, 700, 700}) value.Record(Stage::kParse, ns);
  for (const uint64_t ns : {2000, 9000}) {
    value.Record(Stage::kHypergraph, ns);
  }
  value.threads = 4;
  value.interner_bytes = 65536;
  value.dedup_entries = 790;
  value.queue_depth = 5;

  EXPECT_EQ(value.ToText(), kGoldenText);
  EXPECT_EQ(value.ToJson(), kGoldenJson);
  std::vector<obs::FamilySnapshot> families;
  value.AppendFamilies({{"engine", "0"}}, &families);
  EXPECT_EQ(obs::WriteOpenMetrics(obs::MergeFamilies(std::move(families))),
            kGoldenOpenMetrics);
}

TEST(MetricsTest, FamiliesAgreeWithValue) {
  Metrics value;
  value.entries_processed = 1000;
  value.queries_analyzed = 600;
  value.parse_failures = 40;
  value.AddError(ErrorClass::kParseError, 40);
  value.wall_ns = 2'000'000'000;
  value.dedup_entries = 640;
  value.threads = 4;
  value.queue_depth = 5;
  value.Record(Stage::kParse, 1);
  value.Record(Stage::kParse, 3);
  value.Record(Stage::kParse, 9);

  std::vector<obs::FamilySnapshot> families;
  value.AppendFamilies({{"engine", "0"}}, &families);
  const std::string text =
      obs::WriteOpenMetrics(obs::MergeFamilies(std::move(families)));

  EXPECT_NE(text.find("rwdt_engine_entries_total{engine=\"0\"} 1000\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("rwdt_engine_queries_analyzed_total{engine=\"0\"} 600\n"),
      std::string::npos);
  EXPECT_NE(text.find(
                "rwdt_engine_errors_total{class=\"parse_error\",engine=\"0\"}"
                " 40\n"),
            std::string::npos);
  EXPECT_NE(text.find("rwdt_engine_dedup_entries{engine=\"0\"} 640\n"),
            std::string::npos);
  EXPECT_NE(text.find("rwdt_engine_queue_depth{engine=\"0\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("rwdt_engine_wall_seconds_total{engine=\"0\"} 2\n"),
            std::string::npos);

  // Histogram: bucket b holds samples with bit_width(ns) == b, exposed
  // with exact inclusive bounds 2^b - 1, cumulative in the exposition
  // (`le` is always the last label on a bucket sample).
  EXPECT_NE(
      text.find(
          "rwdt_engine_stage_latency_ns_bucket{engine=\"0\","
          "stage=\"parse\",le=\"1\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "rwdt_engine_stage_latency_ns_bucket{engine=\"0\","
          "stage=\"parse\",le=\"3\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "rwdt_engine_stage_latency_ns_bucket{engine=\"0\","
          "stage=\"parse\",le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("rwdt_engine_stage_latency_ns_count{engine=\"0\","
                      "stage=\"parse\"} 3\n"),
            std::string::npos);
}

TEST(MetricsTest, ScrapeRendersTheEngineSnapshot) {
  // Each engine registers its own collector on the global registry; a
  // scrape renders its Snapshot() under its engine="<ordinal>" label.
  EngineOptions opts;
  opts.threads = 2;
  Engine eng(opts);
  loggen::SourceProfile profile = loggen::ExampleProfile(2000);
  profile.name = "scrape-test";
  eng.AnalyzeLog(profile, 7);

  // The only live engine, so every rwdt_engine_* sample is its own.
  std::vector<obs::FamilySnapshot> scraped;
  for (obs::FamilySnapshot& f : obs::MetricRegistry::Global().Collect()) {
    if (f.name.rfind("rwdt_engine_", 0) == 0) scraped.push_back(std::move(f));
  }
  ASSERT_FALSE(scraped.empty());
  const obs::Labels labels = scraped.front().samples.at(0).labels;
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].first, "engine");

  std::vector<obs::FamilySnapshot> expected;
  eng.Snapshot().AppendFamilies(labels, &expected);
  const std::string text = obs::WriteOpenMetrics(scraped);
  EXPECT_EQ(text, obs::WriteOpenMetrics(obs::MergeFamilies(expected)));
  EXPECT_NE(text.find("rwdt_engine_threads{engine=\"" + labels[0].second +
                      "\"} 2\n"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------
// ProgressReporter

TEST(ProgressTest, LineRateIsEntriesSinceThePreviousTickOverTheInterval) {
  Metrics now;
  now.entries_processed = 1500;
  now.queries_analyzed = 45;
  now.AddError(ErrorClass::kParseError, 7);
  EXPECT_EQ(ProgressLine("log", now, /*prev_entries=*/500, /*interval_s=*/2.0),
            "log: 1500 entries (+500/s), 45 analyzed, 7 rejects");
}

TEST(ProgressTest, TicksAndRunReportMatchFinalSnapshot) {
  std::atomic<uint64_t> entries{123};
  auto snapshot = [&entries] {
    Metrics m;
    m.entries_processed = entries.load();
    m.queries_analyzed = 45;
    m.parse_failures = 5;
    return m;
  };

  const std::string path = "engine_test_report.json";
  ProgressOptions popts;
  popts.interval_ms = 10;
  popts.report_path = path;
  ASSERT_TRUE(popts.Validate().ok());
  ASSERT_TRUE(popts.enabled());

  // Progress lines are INFO logs: the logger's level keeps them out of
  // the test output.
  obs::Logger::Global().set_min_level(obs::LogLevel::kWarn);
  ProgressReporter reporter(snapshot, "progress-test", popts);
  // Let a few ticks elapse, then bump a counter the report must see.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  entries.fetch_add(1);
  reporter.Stop();
  obs::Logger::Global().ResetToDefault();
  EXPECT_GE(reporter.ticks(), 1u);

  // The run report's counters are exactly the final snapshot's.
  Interner dict;
  const auto parsed = tree::ParseJson(reporter.report_json(), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const tree::JsonPtr root = parsed.value();
  EXPECT_EQ(root->Get("label")->string_value(), "progress-test");
  EXPECT_GE(root->Get("elapsed_ms")->number_value(), 0.0);
  EXPECT_EQ(root->Get("ticks")->number_value(),
            static_cast<double>(reporter.ticks()));
  const tree::JsonPtr m = root->Get("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Get("entries_processed")->number_value(), 124.0);
  EXPECT_EQ(m->Get("queries_analyzed")->number_value(), 45.0);
  EXPECT_EQ(m->Get("parse_failures")->number_value(), 5.0);

  // The report file holds the same JSON document.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(file_contents.str(), reporter.report_json() + "\n");
}

TEST(ProgressTest, DisabledByDefault) {
  ProgressOptions popts;
  EXPECT_FALSE(popts.enabled());
  EXPECT_TRUE(popts.Validate().ok());
  popts.interval_ms = 3600 * 1000 + 1;
  EXPECT_FALSE(popts.Validate().ok());
}

TEST(ProgressTest, StopIsIdempotentWithoutThread) {
  ProgressOptions popts;  // interval 0: no background thread
  ProgressReporter reporter([] { return Metrics{}; }, "progress-test",
                            popts);
  reporter.Stop();
  reporter.Stop();
  EXPECT_EQ(reporter.ticks(), 0u);
  EXPECT_FALSE(reporter.report_json().empty());  // still rendered
}

}  // namespace
}  // namespace rwdt::engine
