// Tests for the sampling profiler (obs/profiler.h) and the process
// footprint collector (obs/proc_stats.h): collapsed-format golden
// output, deterministic symbolization of a known local frame,
// ring-overwrite loss accounting surfaced on /metrics, a multi-thread
// capture smoke (TSan-clean by construction: the handler writes relaxed
// atomics into pre-allocated rings), the process-global capture lock,
// the off-CPU dimension, and the /profilez handler contract
// (serve::HandleProfilez, which wraps a capture in HTTP).

#include "obs/profiler.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/proc_stats.h"
#include "obs/registry.h"
#include "serve/admin_server.h"

namespace rwdt::obs {

// ThreadSanitizer defers async signal delivery to its next interceptor
// call, so under TSan every SIGPROF stack collapses onto the interceptor
// frame and frame-NAME assertions are meaningless. The capture/ring/stop
// machinery is still fully exercised — which is what a TSan run is for —
// so only the symbolization expectations are gated on this.
#if defined(__SANITIZE_THREAD__)
#define RWDT_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RWDT_TEST_UNDER_TSAN 1
#endif
#endif
#ifndef RWDT_TEST_UNDER_TSAN
#define RWDT_TEST_UNDER_TSAN 0
#endif
constexpr bool kStacksAreUnbiased = !RWDT_TEST_UNDER_TSAN;

/// A CPU anchor the symbolization tests look for by name. NOINLINE so
/// the frame exists; the volatile sink keeps the loop from folding.
/// External linkage on purpose: -rdynamic exports only global symbols
/// to .dynsym, and dladdr cannot name anonymous-namespace statics.
__attribute__((noinline)) uint64_t ProfilerTestBurnAnchor(uint64_t iters) {
  volatile uint64_t acc = 1;
  for (uint64_t i = 0; i < iters; ++i) acc = acc * 2862933555777941757ULL + i;
  return acc;
}

namespace {

/// Burns process CPU until `deadline` (steady clock), in anchor-sized
/// bites so SIGPROF always lands with the anchor on the stack.
void BurnUntil(std::chrono::steady_clock::time_point deadline) {
  while (std::chrono::steady_clock::now() < deadline) {
    ProfilerTestBurnAnchor(200000);
  }
}

bool HasFrame(const Profile& profile, const std::string& needle) {
  for (const ProfileStack& stack : profile.stacks) {
    for (const std::string& frame : stack.frames) {
      if (frame.find(needle) != std::string::npos) return true;
    }
  }
  return false;
}

TEST(ProfileFormatTest, CollapsedGolden) {
  // Hand-built profile: format must be exact — flamegraph.pl parses it.
  Profile profile;
  profile.hz = 100;
  profile.stacks.push_back({{"main", "Outer()", "Inner()"}, 40});
  profile.stacks.push_back({{"main", "Other()"}, 2});
  profile.off_cpu.push_back({"serve.queue_wait", 0.5, 50});
  EXPECT_EQ(profile.ToCollapsed(),
            "main;Outer();Inner() 40\n"
            "main;Other() 2\n"
            "[offcpu];serve.queue_wait 50\n");
}

TEST(ProfileFormatTest, CollapsedSanitizesSeparators) {
  // ';' inside a symbol would split the frame for flamegraph.pl; the
  // exporter must have replaced it before ToCollapsed is called — but a
  // hand-built stack goes out verbatim, so this documents the contract
  // at the formatting layer: no extra escaping, one line per stack.
  Profile profile;
  profile.stacks.push_back({{"a", "b"}, 1});
  EXPECT_EQ(profile.ToCollapsed(), "a;b 1\n");
}

TEST(ProfileFormatTest, JsonIsSelfDescribing) {
  Profile profile;
  profile.hz = 99;
  profile.duration_s = 1.5;
  profile.samples = 7;
  profile.samples_dropped = 2;
  profile.stacks.push_back({{"main", "Work()"}, 7});
  profile.off_cpu.push_back({"q", 0.25, 25});
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"hz\":99"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples_dropped\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("Work()"), std::string::npos) << json;
  EXPECT_NE(json.find("\"off_cpu\""), std::string::npos) << json;
}

// Runs FIRST among the capturing tests: ring-pool geometry is fixed by
// the first Start of the process, so the tiny ring that makes overwrite
// certain must be requested before any other capture. Later tests run
// with this 64-slot ring — harmless, since each only needs the most
// recent samples.
TEST(ProfilerTest, RingOverwriteSurfacesAsDroppedSamples) {
  if (!ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  ProfileOptions options;
  options.hz = 997;  // kernel-tick rounding still yields >100 samples/s
  options.ring_capacity = 64;
  ASSERT_TRUE(StartProfiling(options).ok());
  BurnUntil(std::chrono::steady_clock::now() +
            std::chrono::milliseconds(900));
  auto result = StopProfiling();
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_GT(result.value().samples, 64u);
  EXPECT_GT(result.value().samples_dropped, 0u)
      << "samples=" << result.value().samples;
  // Loss accounting must be visible to a scrape, not just the caller.
  const std::string metrics = MetricRegistry::Global().RenderOpenMetrics();
  EXPECT_NE(metrics.find("rwdt_profile_samples_dropped_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("rwdt_profile_captures_total"), std::string::npos);
}

TEST(ProfilerTest, CaptureSymbolizesKnownFrame) {
  if (!ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  ProfileOptions options;
  options.hz = 500;  // plenty of samples from a short window
  ASSERT_TRUE(StartProfiling(options).ok());
  BurnUntil(std::chrono::steady_clock::now() +
            std::chrono::milliseconds(200));
  auto result = StopProfiling();
  ASSERT_TRUE(result.ok()) << result.status().message();
  const Profile& profile = result.value();
  EXPECT_GT(profile.samples, 10u);
  // The anchor must appear by name: dladdr + demangling worked, and the
  // handler frames were stripped (the anchor is a leaf, not the
  // handler). Root-first order puts main-ish frames at index 0.
  if (kStacksAreUnbiased) {
    EXPECT_TRUE(HasFrame(profile, "ProfilerTestBurnAnchor"))
        << profile.ToCollapsed();
  }
  ASSERT_FALSE(profile.stacks.empty());
  EXPECT_FALSE(HasFrame(profile, "RwdtProfileSignalHandler"))
      << profile.ToCollapsed();
}

TEST(ProfilerTest, FourThreadCaptureSmoke) {
  if (!ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  ProfileOptions options;
  options.hz = 250;
  ASSERT_TRUE(StartProfiling(options).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) workers.emplace_back(BurnUntil, deadline);
  for (auto& worker : workers) worker.join();
  auto result = StopProfiling();
  ASSERT_TRUE(result.ok()) << result.status().message();
  // ITIMER_PROF accrues across all four burners, so the sample count
  // reflects ~4 busy cores; all we assert is that multi-thread delivery
  // captured into the rings without loss of the whole run.
  EXPECT_GT(result.value().samples, 20u);
  if (kStacksAreUnbiased) {
    EXPECT_TRUE(HasFrame(result.value(), "ProfilerTestBurnAnchor"));
  }
}

TEST(ProfilerTest, SecondCaptureIsRefused) {
  if (!ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  ASSERT_TRUE(StartProfiling().ok());
  EXPECT_TRUE(ProfilingActive());
  const Status second = StartProfiling();
  EXPECT_EQ(second.code(), Code::kResourceExhausted)
      << second.message();
  EXPECT_TRUE(StopProfiling().ok());
  EXPECT_FALSE(ProfilingActive());
  // And stopping again is an error, not a crash.
  EXPECT_FALSE(StopProfiling().ok());
}

TEST(ProfilerTest, OffCpuSourceDeltaIsReported) {
  if (!ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  std::atomic<double> total{10.0};
  const uint64_t id = AddProfileOffCpuSource(
      "test.wait", [&total] { return total.load(); });
  ProfileOptions options;
  options.hz = 100;
  ASSERT_TRUE(StartProfiling(options).ok());
  total.store(12.5);  // 2.5 s of simulated waiting during the window
  BurnUntil(std::chrono::steady_clock::now() +
            std::chrono::milliseconds(60));
  auto result = StopProfiling();
  RemoveProfileOffCpuSource(id);
  ASSERT_TRUE(result.ok()) << result.status().message();
  bool found = false;
  for (const OffCpuEntry& entry : result.value().off_cpu) {
    if (entry.name != "test.wait") continue;
    found = true;
    EXPECT_NEAR(entry.seconds, 2.5, 1e-9);
    EXPECT_EQ(entry.samples, static_cast<uint64_t>(2.5 * 100));
  }
  EXPECT_TRUE(found);
  EXPECT_NE(result.value().ToCollapsed().find("[offcpu];test.wait 250"),
            std::string::npos)
      << result.value().ToCollapsed();
}

serve::HttpRequest ProfilezRequest(const std::string& query) {
  serve::HttpRequest request;
  request.method = "GET";
  request.path = "/profilez";
  request.query = query;
  return request;
}

bool HasHeader(const serve::HttpResponse& response, const std::string& key,
               const std::string& value) {
  for (const auto& [k, v] : response.extra_headers) {
    if (k == key && v == value) return true;
  }
  return false;
}

TEST(ProfilezTest, RejectsBadParameters) {
  EXPECT_EQ(serve::HandleProfilez(ProfilezRequest("format=xml")).status, 400);
  EXPECT_EQ(serve::HandleProfilez(ProfilezRequest("seconds=abc")).status, 400);
  EXPECT_EQ(serve::HandleProfilez(ProfilezRequest("hz=0")).status, 400);
}

TEST(ProfilezTest, CapturesAndSetsNoStore) {
  if (!ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  // Keep some CPU burning so the short window has samples to report.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    while (!stop.load()) ProfilerTestBurnAnchor(100000);
  });
  const serve::HttpResponse collapsed =
      serve::HandleProfilez(ProfilezRequest("seconds=0.2&hz=400"));
  EXPECT_EQ(collapsed.status, 200) << collapsed.body;
  EXPECT_NE(collapsed.content_type.find("charset=utf-8"), std::string::npos);
  EXPECT_TRUE(HasHeader(collapsed, "Cache-Control", "no-store"));
  if (kStacksAreUnbiased) {
    EXPECT_NE(collapsed.body.find("ProfilerTestBurnAnchor"), std::string::npos)
        << collapsed.body;
  }

  const serve::HttpResponse json =
      serve::HandleProfilez(ProfilezRequest("seconds=0.1&hz=200&format=json"));
  stop.store(true);
  burner.join();
  EXPECT_EQ(json.status, 200) << json.body;
  EXPECT_NE(json.content_type.find("application/json"), std::string::npos);
  EXPECT_TRUE(HasHeader(json, "Cache-Control", "no-store"));
  EXPECT_NE(json.body.find("\"stacks\""), std::string::npos) << json.body;
}

TEST(ProcStatsTest, SampleReportsLiveProcess) {
  const ProcStatsSample sample = SampleProcStats();
  EXPECT_TRUE(sample.has_rusage);
  EXPECT_GT(sample.max_resident_bytes, 0);
#if defined(__linux__)
  EXPECT_TRUE(sample.has_statm);
  EXPECT_TRUE(sample.has_stat);
  EXPECT_GT(sample.resident_bytes, 0);
  EXPECT_GE(sample.virtual_bytes, sample.resident_bytes);
  EXPECT_GE(sample.threads, 1);
#endif
}

TEST(ProcStatsTest, FamiliesCarryExpectedNames) {
  ProcStatsSample sample;
  sample.has_statm = sample.has_stat = sample.has_rusage = sample.has_io =
      true;
  sample.resident_bytes = 1;
  std::vector<FamilySnapshot> families;
  AppendProcStatsFamilies(sample, &families);
  std::vector<std::string> names;
  for (const FamilySnapshot& family : families) names.push_back(family.name);
  auto has = [&](const char* name) {
    for (const std::string& n : names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("rwdt_proc_resident_bytes"));
  EXPECT_TRUE(has("rwdt_proc_virtual_bytes"));
  EXPECT_TRUE(has("rwdt_proc_max_resident_bytes"));
  EXPECT_TRUE(has("rwdt_proc_threads"));
  EXPECT_TRUE(has("rwdt_proc_cpu_seconds"));
  EXPECT_TRUE(has("rwdt_proc_page_faults"));
  EXPECT_TRUE(has("rwdt_proc_context_switches"));
  EXPECT_TRUE(has("rwdt_proc_io_bytes"));
}

TEST(ProcStatsTest, InstallIsProcessUnique) {
  ProcStatsCollector first;
  ProcStatsCollector second;
  // Exactly one instance may register: a scrape must never see
  // duplicate rwdt_proc_* series. (The engine may have installed one
  // already in this process, in which case neither of these wins —
  // the invariant is "at most one", which `second` can never be.)
  EXPECT_FALSE(second.installed() && first.installed());
  // Count only sample lines ("\nrwdt_proc_..."), not # HELP / # TYPE.
  const std::string metrics = MetricRegistry::Global().RenderOpenMetrics();
  const std::string sample_line = "\nrwdt_proc_resident_bytes ";
  size_t count = 0;
  for (size_t at = metrics.find(sample_line); at != std::string::npos;
       at = metrics.find(sample_line, at + 1)) {
    ++count;
  }
  EXPECT_LE(count, 1u) << "duplicate rwdt_proc_resident_bytes series";
}

}  // namespace
}  // namespace rwdt::obs
