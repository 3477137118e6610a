#ifndef RWDT_OBS_PROC_STATS_H_
#define RWDT_OBS_PROC_STATS_H_

#include <cstdint>
#include <vector>

#include "obs/registry.h"

namespace rwdt::obs {

/// One point-in-time reading of the process's resource footprint,
/// assembled from /proc/self/{statm,stat,io} and getrusage(2). All
/// values are in base units (bytes, seconds, counts); fields whose
/// source is unavailable (non-Linux, /proc/self/io unreadable) are left
/// at their defaults and flagged by the has_* booleans.
struct ProcStatsSample {
  double resident_bytes = 0;      // statm: RSS
  double virtual_bytes = 0;       // statm: VmSize
  double max_resident_bytes = 0;  // getrusage: peak RSS
  double threads = 0;             // stat: num_threads
  double utime_s = 0;             // getrusage: user CPU
  double stime_s = 0;             // getrusage: system CPU
  double minor_faults = 0;        // getrusage
  double major_faults = 0;        // getrusage
  double voluntary_ctx_switches = 0;    // getrusage
  double involuntary_ctx_switches = 0;  // getrusage
  double io_read_bytes = 0;   // /proc/self/io: storage-layer reads
  double io_write_bytes = 0;  // /proc/self/io: storage-layer writes

  bool has_statm = false;
  bool has_stat = false;
  bool has_rusage = false;
  bool has_io = false;
};

/// Reads the current process footprint. Cheap (three small /proc reads
/// plus one syscall); intended to run at scrape time, never on a hot
/// path.
ProcStatsSample SampleProcStats();

/// Registers a scrape-time collector on `registry` exposing the process
/// footprint as rwdt_proc_* families: resident/virtual/peak-RSS and
/// thread-count gauges, plus cumulative CPU seconds (mode=user|system),
/// page faults (kind=minor|major), context switches
/// (kind=voluntary|involuntary), and storage I/O bytes (dir=read|write)
/// counters. Values are sampled fresh on every scrape.
///
/// At most one collector is active per process: a tool's admin server
/// and a serve front end may both construct one, but only the
/// first registers (`installed()` tells); a scrape must not expose
/// duplicate series.
class ProcStatsCollector {
 public:
  explicit ProcStatsCollector(
      MetricRegistry* registry = &MetricRegistry::Global());
  ~ProcStatsCollector();

  ProcStatsCollector(const ProcStatsCollector&) = delete;
  ProcStatsCollector& operator=(const ProcStatsCollector&) = delete;

  /// Whether this instance won the process-unique install race.
  bool installed() const { return installed_; }

 private:
  bool installed_ = false;
  ScopedCollector collector_;
};

/// Appends the rwdt_proc_* families for `sample` (the collector's
/// rendering, exposed for tests).
void AppendProcStatsFamilies(const ProcStatsSample& sample,
                             std::vector<FamilySnapshot>* out);

}  // namespace rwdt::obs

#endif  // RWDT_OBS_PROC_STATS_H_
