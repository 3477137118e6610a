// Tests for the obs metric registry and the OpenMetrics exposition
// writer.

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "obs/openmetrics.h"
#include "obs/registry.h"

namespace rwdt::obs {
namespace {

/// Silences the expected-misuse ERROR logs for one test body.
class QuietLogs {
 public:
  QuietLogs() { Logger::Global().set_min_level(LogLevel::kOff); }
  ~QuietLogs() { Logger::Global().ResetToDefault(); }
};

TEST(RegistryTest, CounterConcurrencyIsExact) {
  MetricRegistry registry;
  Counter* shared = registry.GetCounter("test_shared", "shared counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  std::vector<Counter*> mine(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    mine[t] = registry.GetCounter("test_labeled", "per-thread counter",
                                  {{"thread", std::to_string(t)}});
  }
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        shared->Increment();
        mine[t]->Increment(2);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(shared->value(), kThreads * kPerThread);
  uint64_t labeled_total = 0;
  for (int t = 0; t < kThreads; ++t) labeled_total += mine[t]->value();
  EXPECT_EQ(labeled_total, kThreads * kPerThread * 2);
}

TEST(RegistryTest, GetOrCreateReturnsSameInstrument) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("test_c", "help", {{"k", "v"}});
  Counter* b = registry.GetCounter("test_c", "other help", {{"k", "v"}});
  EXPECT_EQ(a, b);
  // Label order must not matter.
  Gauge* g1 = registry.GetGauge("test_g", "h", {{"a", "1"}, {"b", "2"}});
  Gauge* g2 = registry.GetGauge("test_g", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(g1, g2);
  // Different label values are different children.
  EXPECT_NE(a, registry.GetCounter("test_c", "help", {{"k", "w"}}));
}

TEST(RegistryTest, MisuseReturnsDummyNotCrash) {
  QuietLogs quiet;
  MetricRegistry registry;
  Counter* c = registry.GetCounter("test_dup", "first");
  // Same name, different type -> dummy, original untouched.
  Gauge* g = registry.GetGauge("test_dup", "second");
  g->Set(99);
  c->Increment(5);
  EXPECT_EQ(c->value(), 5u);
  // Invalid names and labels also yield usable dummies.
  registry.GetCounter("0bad", "starts with digit")->Increment();
  registry.GetCounter("test_badlabel", "h", {{"le", "1"}})->Increment();
  registry.GetCounter("", "empty")->Increment();

  const std::string text = WriteOpenMetrics(registry.Collect());
  EXPECT_NE(text.find("test_dup_total 5\n"), std::string::npos);
  EXPECT_EQ(text.find("0bad"), std::string::npos);
  EXPECT_EQ(text.find("test_badlabel"), std::string::npos);
}

TEST(RegistryTest, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("test_gauge", "h");
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
  g->Add(2.25);
  EXPECT_DOUBLE_EQ(g->value(), 3.75);
  g->Add(-4.0);
  EXPECT_DOUBLE_EQ(g->value(), -0.25);
}

TEST(RegistryTest, HistogramBucketsAndSum) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("test_hist", "h", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // le=1
  h->Observe(1.0);    // le=1 (inclusive)
  h->Observe(7.0);    // le=10
  h->Observe(100.0);  // le=100 (inclusive)
  h->Observe(5000.0); // +Inf
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 1u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(3), 1u);  // +Inf overflow bucket
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 7.0 + 100.0 + 5000.0);
}

TEST(RegistryTest, ExponentialBounds) {
  const std::vector<double> bounds = Histogram::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(OpenMetricsTest, GoldenExposition) {
  MetricRegistry registry;
  registry.GetCounter("zz_requests", "Requests served.", {{"route", "/metrics"}})
      ->Increment(3);
  registry.GetGauge("aa_temp", "Temperature.")->Set(21.5);
  Histogram* h = registry.GetHistogram("mm_lat", "Latency.", {1.0, 2.0});
  h->Observe(1.0);
  h->Observe(1.5);
  h->Observe(9.0);

  // Families sorted by name; histogram buckets cumulative; # EOF last.
  const std::string expected =
      "# HELP aa_temp Temperature.\n"
      "# TYPE aa_temp gauge\n"
      "aa_temp 21.5\n"
      "# HELP mm_lat Latency.\n"
      "# TYPE mm_lat histogram\n"
      "mm_lat_bucket{le=\"1\"} 1\n"
      "mm_lat_bucket{le=\"2\"} 2\n"
      "mm_lat_bucket{le=\"+Inf\"} 3\n"
      "mm_lat_sum 11.5\n"
      "mm_lat_count 3\n"
      "# HELP zz_requests Requests served.\n"
      "# TYPE zz_requests counter\n"
      "zz_requests_total{route=\"/metrics\"} 3\n"
      "# EOF\n";
  EXPECT_EQ(WriteOpenMetrics(registry.Collect()), expected);
}

TEST(OpenMetricsTest, LabelValueEscaping) {
  MetricRegistry registry;
  registry
      .GetCounter("test_esc", "h",
                  {{"path", "a\\b\"c\nd"}})
      ->Increment();
  const std::string text = WriteOpenMetrics(registry.Collect());
  EXPECT_NE(text.find("test_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
}

TEST(OpenMetricsTest, ValueFormatting) {
  EXPECT_EQ(FormatOpenMetricsValue(0), "0");
  EXPECT_EQ(FormatOpenMetricsValue(200000), "200000");
  EXPECT_EQ(FormatOpenMetricsValue(-3), "-3");
  EXPECT_EQ(FormatOpenMetricsValue(0.25), "0.25");
  EXPECT_EQ(FormatOpenMetricsValue(
                std::numeric_limits<double>::infinity()),
            "+Inf");
}

TEST(RegistryTest, HistogramExemplarsStoredPerBucket) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("test_ex", "h", {1.0, 10.0});
  EXPECT_FALSE(h->exemplar(0).set);  // nothing recorded yet
  h->ObserveWithExemplar(0.5, {{"trace_id", "aaaa"}});
  h->ObserveWithExemplar(7.0, {{"trace_id", "bbbb"}});
  h->ObserveWithExemplar(99.0, {{"trace_id", "cccc"}});  // +Inf bucket
  ASSERT_TRUE(h->exemplar(0).set);
  EXPECT_DOUBLE_EQ(h->exemplar(0).value, 0.5);
  EXPECT_EQ(h->exemplar(0).labels[0].second, "aaaa");
  EXPECT_DOUBLE_EQ(h->exemplar(1).value, 7.0);
  EXPECT_DOUBLE_EQ(h->exemplar(2).value, 99.0);
  // A later observation in the same bucket replaces the exemplar (most
  // recent wins — that is what a debugger wants to click on).
  h->ObserveWithExemplar(0.25, {{"trace_id", "dddd"}});
  EXPECT_EQ(h->exemplar(0).labels[0].second, "dddd");
  // Counts and sum are identical to plain Observe.
  EXPECT_EQ(h->count(), 4u);
  // Out-of-range index is a harmless empty exemplar.
  EXPECT_FALSE(h->exemplar(99).set);
}

TEST(OpenMetricsTest, ExemplarsRenderOnBucketSamplesOnly) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("test_exm", "h", {1.0});
  h->ObserveWithExemplar(0.5, {{"trace_id", "0123456789abcdef"}});
  h->Observe(3.0);  // +Inf bucket: no exemplar
  const std::string text = WriteOpenMetrics(registry.Collect());
  // The exemplar rides the matching bucket line after ` # `.
  EXPECT_NE(
      text.find("test_exm_bucket{le=\"1\"} 1 "
                "# {trace_id=\"0123456789abcdef\"} 0.5\n"),
      std::string::npos)
      << text;
  // Bucket without an exemplar, and _sum/_count, stay bare.
  EXPECT_NE(text.find("test_exm_bucket{le=\"+Inf\"} 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_exm_sum 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("test_exm_count 2\n"), std::string::npos);
}

TEST(OpenMetricsTest, MergeFamiliesConcatenatesSameName) {
  std::vector<FamilySnapshot> families;
  FamilySnapshot a;
  a.name = "test_m";
  a.type = MetricType::kCounter;
  a.help = "h";
  a.samples.push_back({"_total", {{"src", "a"}}, 1});
  FamilySnapshot b = a;
  b.samples = {{"_total", {{"src", "b"}}, 2}};
  families.push_back(a);
  families.push_back(b);
  const auto merged = MergeFamilies(std::move(families));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].samples.size(), 2u);
}

TEST(OpenMetricsTest, CollectorRunsAtScrapeAndScopedRemoval) {
  MetricRegistry registry;
  int calls = 0;
  {
    ScopedCollector handle(
        &registry, registry.AddCollector([&](std::vector<FamilySnapshot>* out) {
          ++calls;
          FamilySnapshot f;
          f.name = "test_from_collector";
          f.type = MetricType::kGauge;
          f.samples.push_back({"", {}, 7});
          out->push_back(std::move(f));
        }));
    EXPECT_EQ(calls, 0);  // pull-model: nothing until a scrape
    const std::string text = registry.RenderOpenMetrics();
    EXPECT_EQ(calls, 1);
    EXPECT_NE(text.find("test_from_collector 7\n"), std::string::npos);
  }
  registry.RenderOpenMetrics();
  EXPECT_EQ(calls, 1);  // removed with the handle
}

}  // namespace
}  // namespace rwdt::obs
