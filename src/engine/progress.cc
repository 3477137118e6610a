#include "engine/progress.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json.h"
#include "common/table.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace rwdt::engine {

Status ProgressOptions::Validate() const {
  constexpr uint32_t kMaxIntervalMs = 3600 * 1000;
  if (interval_ms > kMaxIntervalMs) {
    return Status::InvalidArgument("progress interval_ms must be <= 1 hour");
  }
  return Status::Ok();
}

std::string ProgressLine(std::string_view label, const Metrics& now,
                         uint64_t prev_entries, double interval_s) {
  const auto rate = static_cast<uint64_t>(
      static_cast<double>(now.entries_processed - prev_entries) / interval_s);
  std::string line(label);
  line += ": " + std::to_string(now.entries_processed) + " entries (+" +
          std::to_string(rate) + "/s), " +
          std::to_string(now.queries_analyzed) + " analyzed, " +
          std::to_string(now.TotalErrors()) + " rejects";
  return line;
}

ProgressReporter::ProgressReporter(SnapshotFn snapshot, std::string label,
                                   ProgressOptions options)
    : snapshot_(std::move(snapshot)),
      label_(std::move(label)),
      options_(std::move(options)),
      start_ns_(obs::TraceNowNs()) {
  if (options_.interval_ms > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

ProgressReporter::~ProgressReporter() { Stop(); }

void ProgressReporter::Loop() {
  const double interval_s = options_.interval_ms / 1000.0;
  uint64_t prev_entries = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_requested_; });
    if (stop_requested_) return;
    lock.unlock();
    const Metrics now = snapshot_();
    ticks_.fetch_add(1, std::memory_order_relaxed);
    RWDT_LOG(INFO) << ProgressLine(label_, now, prev_entries, interval_s);
    prev_entries = now.entries_processed;
    lock.lock();
  }
}

void ProgressReporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();

  const Metrics snap = snapshot_();
  const double elapsed_ms = (obs::TraceNowNs() - start_ns_) / 1e6;
  std::string report = "{";
  AppendJsonStringField("label", label_, &report);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"elapsed_ms\":%.3f,\"ticks\":%llu,",
                elapsed_ms,
                static_cast<unsigned long long>(
                    ticks_.load(std::memory_order_relaxed)));
  report += buf;
  report += "\"metrics\":";
  report += snap.ToJson();
  report += "}";
  report_json_ = std::move(report);

  RWDT_LOG(INFO) << label_ << ": done — " << snap.entries_processed
                 << " entries in " << Fixed(elapsed_ms, 1) << " ms ("
                 << static_cast<uint64_t>(snap.QueriesPerSec())
                 << " entries/s inside the engine)";

  if (!options_.report_path.empty()) {
    FILE* f = std::fopen(options_.report_path.c_str(), "w");
    if (f == nullptr) {
      RWDT_LOG(ERROR) << "cannot write run report: " << options_.report_path;
      return;
    }
    std::fwrite(report_json_.data(), 1, report_json_.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    RWDT_LOG(INFO) << label_ << ": run report written to "
                   << options_.report_path;
  }
}

}  // namespace rwdt::engine
