#include <algorithm>
#include <atomic>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/log_study.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "engine/thread_pool.h"

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
      const MetricsSnapshot snap = engine.Snapshot();
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
  const MetricsSnapshot after_first = engine.Snapshot();
  const core::SourceStudy second =
      engine.AnalyzeEntries("twice", false, entries);
  const MetricsSnapshot after_second = engine.Snapshot();
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
    const MetricsSnapshot snap = engine.Snapshot();
    EXPECT_EQ(snap.dedup_entries, DistinctTexts(entries))
        << "threads=" << threads;
    EXPECT_GT(snap.interner_bytes, 0u) << "threads=" << threads;
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
  const core::SourceStudy legacy = core::AnalyzeLog(p, 13);
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

TEST(MetricsTest, SnapshotSummarizesHistogram) {
  Metrics metrics;
  for (int i = 0; i < 1000; ++i) {
    metrics.Record(Stage::kParse, 1000);  // 1 us
  }
  metrics.Record(Stage::kParse, 1 << 20);  // one ~1 ms outlier
  const MetricsSnapshot snap = metrics.Snapshot();
  const StageStats& parse =
      snap.stages[static_cast<size_t>(Stage::kParse)];
  EXPECT_EQ(parse.count, 1001u);
  EXPECT_LE(parse.p50_ns, parse.p90_ns);
  EXPECT_LE(parse.p90_ns, parse.p99_ns);
  EXPECT_GE(parse.max_ns, uint64_t{1} << 19);
  // p50 lands in the bucket containing 1 us, within a factor of sqrt(2).
  EXPECT_GT(parse.p50_ns, 500u);
  EXPECT_LT(parse.p50_ns, 2000u);
}

TEST(MetricsTest, MaxIsExactNotBucketEdge) {
  // max_ns must be the exact observed maximum (CAS-max), not the upper
  // edge of the power-of-two histogram bucket (which would be 4096 for
  // a 3000 ns sample).
  Metrics metrics;
  metrics.Record(Stage::kParse, 1000);
  metrics.Record(Stage::kParse, 3000);
  metrics.Record(Stage::kParse, 2000);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.stages[static_cast<size_t>(Stage::kParse)].max_ns, 3000u);
  EXPECT_NE(snap.ToJson().find("\"max_us\""), std::string::npos);
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

}  // namespace
}  // namespace rwdt::engine
