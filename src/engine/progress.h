#ifndef RWDT_ENGINE_PROGRESS_H_
#define RWDT_ENGINE_PROGRESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"
#include "engine/metrics.h"

namespace rwdt::engine {

/// Live run reporting. Carried inside EngineOptions / IngestOptions so
/// a long run can be watched without touching the calling code.
struct ProgressOptions {
  /// Snapshot-and-report period in milliseconds. 0 disables the
  /// background thread (a final report can still be written). Each tick
  /// logs one RWDT_LOG(INFO) line (ProgressLine).
  uint32_t interval_ms = 0;

  /// Non-empty: on Stop, write a JSON run report here — elapsed wall
  /// time, tick count, and the final Metrics snapshot (its counters are
  /// exactly the engine's totals at stop time).
  std::string report_path;

  /// True when either periodic reporting or a final report is wanted.
  bool enabled() const { return interval_ms > 0 || !report_path.empty(); }

  Status Validate() const;
};

/// The line one tick logs: entries so far and their rate since the
/// previous tick (`prev_entries`, `interval_s` > 0 ago; entry counts
/// never decrease), analyzed count and reject count, prefixed with
/// `label`.
std::string ProgressLine(std::string_view label, const Metrics& now,
                         uint64_t prev_entries, double interval_s);

/// Snapshots engine metrics on a background thread every `interval_ms`,
/// logging one progress line per tick, and renders a final JSON run
/// report on Stop. `label` prefixes the log lines and fills the report's
/// "label" field; the engine passes the stream's source name. The
/// snapshot callback must be safe to call from another thread for the
/// reporter's whole lifetime (Engine::Snapshot is).
class ProgressReporter {
 public:
  using SnapshotFn = std::function<Metrics()>;

  ProgressReporter(SnapshotFn snapshot, std::string label,
                   ProgressOptions options);
  ~ProgressReporter();  // implies Stop()

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Joins the background thread, takes the final snapshot, renders the
  /// run report, and writes it to `options.report_path` if set.
  /// Idempotent.
  void Stop();

  /// Periodic progress lines emitted so far (final snapshot excluded).
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// The final run report; empty until Stop() has run.
  const std::string& report_json() const { return report_json_; }

 private:
  void Loop();

  SnapshotFn snapshot_;
  std::string label_;
  ProgressOptions options_;
  uint64_t start_ns_;

  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;

  std::atomic<uint64_t> ticks_{0};
  std::string report_json_;
};

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_PROGRESS_H_
