#ifndef RWDT_OBS_PROFILER_H_
#define RWDT_OBS_PROFILER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace rwdt::obs {

/// Sampling CPU profiler: a process-wide SIGPROF timer fires on CPU
/// time at a configurable frequency; the signal handler captures the
/// interrupted thread's call stack (backtrace(3), async-signal-safe
/// after a warm-up call) into a lock-free per-thread sample ring — the
/// TraceRing design with flat pc storage. Symbolization (dladdr +
/// __cxa_demangle) happens off the signal path, at Stop.
///
/// Cost model: when no capture is running nothing is installed — no
/// timer, no handler, no per-sample work — so profiling-off overhead is
/// zero by construction, matching the rest of rwdt::obs.
struct ProfileOptions {
  /// Sampling frequency in Hz of process CPU time (ITIMER_PROF), so an
  /// idle process takes ~0 samples and a saturated one ~hz per busy
  /// core-second. Clamped to [1, 1000].
  double hz = 99;

  /// Frames captured per sample (stack depth). Clamped to the pool's
  /// frame stride (first Start wins, max 64).
  uint32_t max_frames = 32;

  /// Samples retained per thread ring; older samples are overwritten
  /// and surface as `samples_dropped`. Rounded up to a power of two.
  /// Pool geometry is fixed by the first Start of the process.
  size_t ring_capacity = 2048;

  /// Pre-allocated sample rings. A thread claims one on its first
  /// sample and keeps it for the process lifetime; signals landing on
  /// threads beyond this count as `threads_missed` samples. Fixed by
  /// the first Start of the process.
  uint32_t max_threads = 16;
};

/// One aggregated call stack, frames root-first (main at index 0, the
/// sampled leaf last) — the flamegraph orientation.
struct ProfileStack {
  std::vector<std::string> frames;
  uint64_t count = 0;
};

/// One off-CPU dimension entry: the delta of a registered wall-time
/// source over the capture window, rendered alongside the CPU stacks so
/// a profile distinguishes "burning CPU in ParseSparql" from "parked on
/// the serve queue".
struct OffCpuEntry {
  std::string name;
  double seconds = 0;
  /// `seconds * hz`, i.e. the sample count this wait would have drawn
  /// had it been CPU time — directly comparable to stack counts.
  uint64_t samples = 0;
};

/// A completed capture.
struct Profile {
  double hz = 0;
  double duration_s = 0;
  uint64_t samples = 0;          // captured into rings (pre-overwrite)
  uint64_t samples_dropped = 0;  // lost to ring overwrite
  uint64_t threads_missed = 0;   // samples on threads with no free ring
  std::vector<ProfileStack> stacks;  // sorted by count, descending
  std::vector<OffCpuEntry> off_cpu;

  /// flamegraph.pl collapsed-stack format: one
  /// `frame;frame;frame count\n` line per stack (root-first, ';' in
  /// symbols replaced by ':'), followed by `[offcpu];<name> N` lines
  /// for each off-CPU source with a nonzero window delta.
  std::string ToCollapsed() const;

  /// Self-describing JSON object (hz, duration, loss accounting, the
  /// stack table, and the off-CPU entries).
  std::string ToJson() const;
};

/// True when this build can profile: Linux/glibc with <execinfo.h>.
/// When false, StartProfiling returns kUnsupported and everything else
/// degrades gracefully.
bool ProfilerSupported();

/// True while a capture is running.
bool ProfilingActive();

/// Installs the SIGPROF handler and arms the timer. Fails with
/// kUnsupported on builds without backtrace(3) and kResourceExhausted
/// when a capture is already running (captures are process-global —
/// there is one profiling timer per process).
Status StartProfiling(const ProfileOptions& options = {});

/// Disarms the timer, waits for in-flight handlers to retire, drains
/// and symbolizes the sample rings, and returns the capture. Fails with
/// kInvalidArgument when no capture is running.
Result<Profile> StopProfiling();

/// StartProfiling + sleep(seconds) + StopProfiling. The calling thread
/// sleeps (no CPU), so it draws no samples itself; worker threads keep
/// earning SIGPROF deliveries. `seconds` clamped to [0.05, 300].
Result<Profile> CaptureProfile(double seconds,
                               const ProfileOptions& options = {});

/// Registers a wall-time source for the profile's off-CPU dimension:
/// `seconds_total` returns a monotone cumulative total (e.g. a queue
/// wait histogram's sum); captures snapshot it at Start and Stop and
/// report the delta. Returns an id for RemoveProfileOffCpuSource.
/// The callback must stay valid until removed.
uint64_t AddProfileOffCpuSource(std::string name,
                                std::function<double()> seconds_total);
void RemoveProfileOffCpuSource(uint64_t id);

/// RAII handle for AddProfileOffCpuSource.
class ScopedOffCpuSource {
 public:
  ScopedOffCpuSource() = default;
  ScopedOffCpuSource(std::string name, std::function<double()> seconds_total)
      : id_(AddProfileOffCpuSource(std::move(name), std::move(seconds_total))) {}
  ~ScopedOffCpuSource() { Reset(); }

  ScopedOffCpuSource(ScopedOffCpuSource&& other) noexcept : id_(other.id_) {
    other.id_ = 0;
  }
  ScopedOffCpuSource& operator=(ScopedOffCpuSource&& other) noexcept {
    if (this != &other) {
      Reset();
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }
  ScopedOffCpuSource(const ScopedOffCpuSource&) = delete;
  ScopedOffCpuSource& operator=(const ScopedOffCpuSource&) = delete;

  void Reset() {
    if (id_ != 0) RemoveProfileOffCpuSource(id_);
    id_ = 0;
  }

 private:
  uint64_t id_ = 0;
};

/// Self-profiling for a whole run: starts a capture on construction and
/// writes the collapsed-stack output to `path` on Finish (or
/// destruction). Start failures are logged, never fatal — a bench must
/// not die because another capture is running.
class ScopedSelfProfile {
 public:
  explicit ScopedSelfProfile(std::string path, ProfileOptions options = {});
  ~ScopedSelfProfile();

  ScopedSelfProfile(const ScopedSelfProfile&) = delete;
  ScopedSelfProfile& operator=(const ScopedSelfProfile&) = delete;

  /// Whether the capture actually started.
  bool active() const { return active_; }

  /// Stops the capture and writes `path`. Idempotent.
  Status Finish();

 private:
  std::string path_;
  bool active_ = false;
};

/// The env-driven self-profile hook every tool shares: when RWDT_PROFILE
/// names a file (the value "1" selects `default_path`), returns a
/// started ScopedSelfProfile writing there; null otherwise.
/// RWDT_PROFILE_HZ overrides the sampling frequency (default 99).
std::unique_ptr<ScopedSelfProfile> MaybeStartEnvProfile(
    const char* default_path = "profile.collapsed");

}  // namespace rwdt::obs

#endif  // RWDT_OBS_PROFILER_H_
