#include "obs/proc_stats.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define RWDT_HAS_RUSAGE 1
#else
#define RWDT_HAS_RUSAGE 0
#endif

namespace rwdt::obs {
namespace {

/// Reads a small /proc file into `*out`. Returns false when the file is
/// absent (non-Linux) or unreadable (/proc/self/io under some
/// containers).
bool ReadProcFile(const char* path, std::string* out) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  char buf[4096];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return false;
  buf[n] = '\0';
  out->assign(buf, n);
  return true;
}

#if RWDT_HAS_RUSAGE
double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}
#endif

FamilySnapshot MakeGauge(const char* name, const char* help, double value) {
  FamilySnapshot f;
  f.name = name;
  f.help = help;
  f.type = MetricType::kGauge;
  f.samples.push_back({"", {}, value});
  return f;
}

/// Process-unique install guard: a tool's admin server and a serve
/// front end may both construct a collector, but a scrape must never
/// render the rwdt_proc_* families twice.
std::atomic<bool> g_proc_stats_installed{false};

}  // namespace

ProcStatsSample SampleProcStats() {
  ProcStatsSample sample;

#if RWDT_HAS_RUSAGE
  const long page = sysconf(_SC_PAGESIZE);
  std::string text;
  if (ReadProcFile("/proc/self/statm", &text)) {
    // statm: size resident shared text lib data dt (pages).
    unsigned long long size_pages = 0, resident_pages = 0;
    if (std::sscanf(text.c_str(), "%llu %llu", &size_pages,
                    &resident_pages) == 2) {
      sample.virtual_bytes =
          static_cast<double>(size_pages) * static_cast<double>(page);
      sample.resident_bytes =
          static_cast<double>(resident_pages) * static_cast<double>(page);
      sample.has_statm = true;
    }
  }
  if (ReadProcFile("/proc/self/stat", &text)) {
    // comm (field 2) may contain spaces; fields resume after the last
    // ')'. num_threads is field 20, i.e. the 18th token after comm.
    const size_t close = text.rfind(')');
    if (close != std::string::npos) {
      const char* p = text.c_str() + close + 1;
      int field = 2;  // the token after ')' is field 3 (state)
      long long threads = 0;
      char token[64];
      int consumed = 0;
      while (std::sscanf(p, " %63s%n", token, &consumed) == 1) {
        ++field;
        if (field == 20) {
          threads = std::strtoll(token, nullptr, 10);
          break;
        }
        p += consumed;
      }
      if (threads > 0) {
        sample.threads = static_cast<double>(threads);
        sample.has_stat = true;
      }
    }
  }
  if (ReadProcFile("/proc/self/io", &text)) {
    unsigned long long read_bytes = 0, write_bytes = 0;
    const char* r = std::strstr(text.c_str(), "read_bytes:");
    const char* w = std::strstr(text.c_str(), "write_bytes:");
    if (r != nullptr && w != nullptr &&
        std::sscanf(r, "read_bytes: %llu", &read_bytes) == 1 &&
        std::sscanf(w, "write_bytes: %llu", &write_bytes) == 1) {
      sample.io_read_bytes = static_cast<double>(read_bytes);
      sample.io_write_bytes = static_cast<double>(write_bytes);
      sample.has_io = true;
    }
  }
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    sample.utime_s = TimevalSeconds(usage.ru_utime);
    sample.stime_s = TimevalSeconds(usage.ru_stime);
    // ru_maxrss is KiB on Linux (bytes on macOS; this path is
    // Linux-first and macOS would overreport by 1024x — acceptable for
    // an observability gauge on a non-target platform).
    sample.max_resident_bytes =
        static_cast<double>(usage.ru_maxrss) * 1024.0;
    sample.minor_faults = static_cast<double>(usage.ru_minflt);
    sample.major_faults = static_cast<double>(usage.ru_majflt);
    sample.voluntary_ctx_switches = static_cast<double>(usage.ru_nvcsw);
    sample.involuntary_ctx_switches = static_cast<double>(usage.ru_nivcsw);
    sample.has_rusage = true;
  }
#endif

  return sample;
}

void AppendProcStatsFamilies(const ProcStatsSample& sample,
                             std::vector<FamilySnapshot>* out) {
  if (sample.has_statm) {
    out->push_back(MakeGauge("rwdt_proc_resident_bytes",
                         "Resident set size of the process.",
                         sample.resident_bytes));
    out->push_back(MakeGauge("rwdt_proc_virtual_bytes",
                         "Virtual memory size of the process.",
                         sample.virtual_bytes));
  }
  if (sample.has_stat) {
    out->push_back(MakeGauge("rwdt_proc_threads",
                         "OS threads in the process.", sample.threads));
  }
  if (sample.has_rusage) {
    out->push_back(MakeGauge("rwdt_proc_max_resident_bytes",
                         "Peak resident set size of the process.",
                         sample.max_resident_bytes));
    {
      FamilySnapshot f;
      f.name = "rwdt_proc_cpu_seconds";
      f.help = "Cumulative process CPU time by mode.";
      f.type = MetricType::kCounter;
      f.samples.push_back({"_total", {{"mode", "user"}}, sample.utime_s});
      f.samples.push_back({"_total", {{"mode", "system"}}, sample.stime_s});
      out->push_back(std::move(f));
    }
    {
      FamilySnapshot f;
      f.name = "rwdt_proc_page_faults";
      f.help = "Cumulative page faults by kind.";
      f.type = MetricType::kCounter;
      f.samples.push_back({"_total", {{"kind", "minor"}}, sample.minor_faults});
      f.samples.push_back({"_total", {{"kind", "major"}}, sample.major_faults});
      out->push_back(std::move(f));
    }
    {
      FamilySnapshot f;
      f.name = "rwdt_proc_context_switches";
      f.help = "Cumulative context switches by kind.";
      f.type = MetricType::kCounter;
      f.samples.push_back({"_total",
                           {{"kind", "voluntary"}},
                           sample.voluntary_ctx_switches});
      f.samples.push_back({"_total",
                           {{"kind", "involuntary"}},
                           sample.involuntary_ctx_switches});
      out->push_back(std::move(f));
    }
  }
  if (sample.has_io) {
    FamilySnapshot f;
    f.name = "rwdt_proc_io_bytes";
    f.help = "Cumulative storage-layer I/O bytes by direction.";
    f.type = MetricType::kCounter;
    f.samples.push_back({"_total", {{"dir", "read"}}, sample.io_read_bytes});
    f.samples.push_back({"_total", {{"dir", "write"}}, sample.io_write_bytes});
    out->push_back(std::move(f));
  }
}

ProcStatsCollector::ProcStatsCollector(MetricRegistry* registry) {
  bool expected = false;
  if (!g_proc_stats_installed.compare_exchange_strong(expected, true)) {
    return;  // another collector already exposes the families
  }
  installed_ = true;
  collector_ = ScopedCollector(
      registry, registry->AddCollector([](std::vector<FamilySnapshot>* out) {
        AppendProcStatsFamilies(SampleProcStats(), out);
      }));
}

ProcStatsCollector::~ProcStatsCollector() {
  if (installed_) {
    collector_.Reset();
    g_proc_stats_installed.store(false);
  }
}

}  // namespace rwdt::obs
