#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/json.h"
#include "obs/log.h"
#include "obs/registry.h"

#if defined(__linux__) && __has_include(<execinfo.h>)
#define RWDT_PROFILER_SUPPORTED 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#else
#define RWDT_PROFILER_SUPPORTED 0
#endif

namespace rwdt::obs {
namespace {

/// Compile-time ceiling on frames per sample (the handler's stack
/// buffer); ProfileOptions::max_frames clamps below this.
constexpr uint32_t kMaxFrames = 64;

double ClampHz(double hz) { return std::min(std::max(hz, 1.0), 1000.0); }

size_t RoundUpPow2(size_t v) {
  size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

/// Replaces ';' (the collapsed-stack frame separator) and control bytes
/// in a symbol name so frames round-trip through flamegraph.pl.
std::string SanitizeFrame(std::string s) {
  for (char& c : s) {
    if (c == ';') c = ':';
    if (static_cast<unsigned char>(c) < 0x20) c = '_';
  }
  return s;
}

/// Off-CPU source registry: process-global, mutex-guarded (never touched
/// from the signal path).
struct OffCpuSourceEntry {
  std::string name;
  std::function<double()> seconds_total;
};

std::mutex& OffCpuMu() {
  static std::mutex mu;
  return mu;
}
std::map<uint64_t, OffCpuSourceEntry>& OffCpuSources() {
  static std::map<uint64_t, OffCpuSourceEntry> sources;
  return sources;
}
uint64_t g_next_off_cpu_id = 1;

#if RWDT_PROFILER_SUPPORTED

/// One per-thread sample ring: single-writer (the SIGPROF handler
/// running on the owning thread), drained only after the timer is
/// disarmed and in-flight handlers have retired. Frame storage is a
/// flat atomic array (slot i's pcs at [i * stride]) so geometry is a
/// runtime choice without per-slot allocation.
struct SampleRing {
  std::atomic<uint64_t> head{0};
  size_t mask = 0;
  size_t stride = 0;
  std::atomic<uintptr_t>* pcs = nullptr;   // (mask + 1) * stride
  std::atomic<uint32_t>* counts = nullptr;  // mask + 1
};

/// Process-lifetime profiler state. Allocated once at the first Start
/// and never freed: the thread_local ring pointers below must stay
/// valid for threads that outlive a capture.
struct ProfilerState {
  std::atomic<bool> active{false};
  std::atomic<uint32_t> rings_claimed{0};
  std::atomic<uint64_t> threads_missed{0};
  std::atomic<int32_t> in_handler{0};
  std::atomic<uint32_t> depth{32};  // frames per sample, this capture

  uint32_t num_rings = 0;
  size_t capacity = 0;  // power of two
  size_t stride = 0;
  std::unique_ptr<SampleRing[]> rings;
  std::unique_ptr<std::atomic<uintptr_t>[]> pc_storage;
  std::unique_ptr<std::atomic<uint32_t>[]> count_storage;
};

std::atomic<ProfilerState*> g_state{nullptr};
thread_local SampleRing* t_ring = nullptr;

/// Serializes Start/Stop bookkeeping (never held on the signal path).
std::mutex& ProfilerMu() {
  static std::mutex mu;
  return mu;
}

/// Non-ring bookkeeping of the capture in flight, owned by Start/Stop
/// under ProfilerMu.
struct CaptureState {
  bool running = false;
  double hz = 0;
  std::chrono::steady_clock::time_point start;
  std::vector<std::pair<std::string, double>> off_cpu_start;  // name, total
  struct sigaction old_action;
};
CaptureState g_capture;

extern "C" void RwdtProfileSignalHandler(int, siginfo_t*, void*) {
  ProfilerState* st = g_state.load(std::memory_order_acquire);
  if (st == nullptr) return;
  // The in_handler count lets Stop wait for handlers that raced past
  // the active check; re-check active after publishing the increment.
  st->in_handler.fetch_add(1, std::memory_order_acquire);
  if (!st->active.load(std::memory_order_relaxed)) {
    st->in_handler.fetch_sub(1, std::memory_order_release);
    return;
  }
  const int saved_errno = errno;
  SampleRing* ring = t_ring;
  if (ring == nullptr) {
    // First sample on this thread: claim a ring for the rest of the
    // process lifetime (a CAS loop is async-signal-safe; fetch_add
    // would overflow the claim counter on ringless threads).
    uint32_t idx = st->rings_claimed.load(std::memory_order_relaxed);
    while (idx < st->num_rings &&
           !st->rings_claimed.compare_exchange_weak(
               idx, idx + 1, std::memory_order_relaxed)) {
    }
    if (idx < st->num_rings) {
      ring = &st->rings[idx];
      t_ring = ring;
    } else {
      st->threads_missed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (ring != nullptr) {
    // backtrace(3) into a handler-stack buffer, then relaxed atomic
    // stores into the claimed slot. glibc's backtrace is signal-safe
    // after the warm-up call Start performed (the first call dlopens
    // libgcc, which must not happen here).
    void* frames[kMaxFrames];
    int want = static_cast<int>(st->depth.load(std::memory_order_relaxed));
    const int n = backtrace(frames, want);
    if (n > 0) {
      const uint64_t h = ring->head.load(std::memory_order_relaxed);
      const size_t slot = static_cast<size_t>(h) & ring->mask;
      std::atomic<uintptr_t>* pcs = ring->pcs + slot * ring->stride;
      for (int i = 0; i < n; ++i) {
        pcs[i].store(reinterpret_cast<uintptr_t>(frames[i]),
                     std::memory_order_relaxed);
      }
      ring->counts[slot].store(static_cast<uint32_t>(n),
                               std::memory_order_relaxed);
      ring->head.store(h + 1, std::memory_order_release);
    }
  }
  errno = saved_errno;
  st->in_handler.fetch_sub(1, std::memory_order_release);
}

/// Creates the process-lifetime ring pool (first Start only).
ProfilerState* EnsureState(const ProfileOptions& options) {
  ProfilerState* st = g_state.load(std::memory_order_acquire);
  if (st != nullptr) return st;
  auto state = std::make_unique<ProfilerState>();
  state->num_rings = std::max<uint32_t>(1, options.max_threads);
  state->capacity = RoundUpPow2(std::max<size_t>(64, options.ring_capacity));
  state->stride = std::min<uint32_t>(kMaxFrames,
                                     std::max<uint32_t>(4, options.max_frames));
  const size_t slots = state->num_rings * state->capacity;
  state->pc_storage =
      std::make_unique<std::atomic<uintptr_t>[]>(slots * state->stride);
  state->count_storage = std::make_unique<std::atomic<uint32_t>[]>(slots);
  state->rings = std::make_unique<SampleRing[]>(state->num_rings);
  for (uint32_t r = 0; r < state->num_rings; ++r) {
    SampleRing& ring = state->rings[r];
    ring.mask = state->capacity - 1;
    ring.stride = state->stride;
    ring.pcs = state->pc_storage.get() + r * state->capacity * state->stride;
    ring.counts = state->count_storage.get() + r * state->capacity;
  }
  st = state.release();  // process-lifetime: thread rings point into it
  g_state.store(st, std::memory_order_release);
  return st;
}

/// Resolves one sampled pc to a display frame. `pc - 1` lands inside
/// the call instruction for return addresses; for the interrupted pc
/// itself it stays within the same function in practice.
std::string SymbolizePc(uintptr_t pc) {
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string out = (status == 0 && demangled != nullptr) ? demangled
                                                            : info.dli_sname;
    std::free(demangled);
    return SanitizeFrame(std::move(out));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
  return buf;
}

/// Index of the handler's own frame in a leaf-first pc vector, or -1.
int FindHandlerFrame(const std::vector<uintptr_t>& pcs) {
  for (size_t i = 0; i < pcs.size(); ++i) {
    Dl_info info;
    if (dladdr(reinterpret_cast<void*>(pcs[i] - 1), &info) != 0 &&
        info.dli_saddr ==
            reinterpret_cast<void*>(&RwdtProfileSignalHandler)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Capture-loss counters on /metrics, so dropped samples are visible
/// without reading the profile itself. Registered on first use; the
/// instruments live for the process.
void RecordCaptureMetrics(const Profile& profile) {
  auto& registry = MetricRegistry::Global();
  static Counter* captures = registry.GetCounter(
      "rwdt_profile_captures", "Completed profiler captures");
  static Counter* samples = registry.GetCounter(
      "rwdt_profile_samples", "CPU samples captured into profiler rings");
  static Counter* dropped = registry.GetCounter(
      "rwdt_profile_samples_dropped",
      "CPU samples lost to ring overwrite or ring-pool exhaustion");
  captures->Increment();
  samples->Increment(profile.samples);
  dropped->Increment(profile.samples_dropped + profile.threads_missed);
}

#endif  // RWDT_PROFILER_SUPPORTED

std::vector<std::pair<std::string, double>> SnapshotOffCpuSources() {
  std::vector<std::pair<std::string, double>> out;
  std::lock_guard<std::mutex> lock(OffCpuMu());
  for (const auto& [id, src] : OffCpuSources()) {
    (void)id;
    out.emplace_back(src.name, src.seconds_total());
  }
  return out;
}

}  // namespace

bool ProfilerSupported() { return RWDT_PROFILER_SUPPORTED != 0; }

bool ProfilingActive() {
#if RWDT_PROFILER_SUPPORTED
  ProfilerState* st = g_state.load(std::memory_order_acquire);
  return st != nullptr && st->active.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

uint64_t AddProfileOffCpuSource(std::string name,
                                std::function<double()> seconds_total) {
  std::lock_guard<std::mutex> lock(OffCpuMu());
  const uint64_t id = g_next_off_cpu_id++;
  OffCpuSources()[id] = {std::move(name), std::move(seconds_total)};
  return id;
}

void RemoveProfileOffCpuSource(uint64_t id) {
  std::lock_guard<std::mutex> lock(OffCpuMu());
  OffCpuSources().erase(id);
}

#if RWDT_PROFILER_SUPPORTED

Status StartProfiling(const ProfileOptions& options) {
  std::lock_guard<std::mutex> lock(ProfilerMu());
  if (g_capture.running) {
    return Status::ResourceExhausted("a profile capture is already running");
  }
  ProfilerState* st = EnsureState(options);

  // Warm up backtrace outside the signal path: glibc's first call
  // dlopens libgcc_s (malloc + loader locks), which must never happen
  // inside the handler.
  {
    void* warm[4];
    (void)backtrace(warm, 4);
  }

  // Reset per-capture ring state. The timer is off and no capture is
  // running, so no handler writes concurrently.
  for (uint32_t r = 0; r < st->num_rings; ++r) {
    st->rings[r].head.store(0, std::memory_order_relaxed);
  }
  st->threads_missed.store(0, std::memory_order_relaxed);
  st->depth.store(std::min(kMaxFrames, std::max(4u, options.max_frames)),
                  std::memory_order_relaxed);

  g_capture.hz = ClampHz(options.hz);
  g_capture.start = std::chrono::steady_clock::now();
  g_capture.off_cpu_start = SnapshotOffCpuSources();

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &RwdtProfileSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  if (sigaction(SIGPROF, &action, &g_capture.old_action) != 0) {
    return Status::Internal("sigaction(SIGPROF) failed");
  }

  st->active.store(true, std::memory_order_release);

  itimerval timer;
  const auto interval_us =
      static_cast<suseconds_t>(1e6 / g_capture.hz);
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    st->active.store(false, std::memory_order_release);
    sigaction(SIGPROF, &g_capture.old_action, nullptr);
    return Status::Internal("setitimer(ITIMER_PROF) failed");
  }
  g_capture.running = true;
  return Status::Ok();
}

Result<Profile> StopProfiling() {
  std::lock_guard<std::mutex> lock(ProfilerMu());
  if (!g_capture.running) {
    return Status::InvalidArgument("no profile capture is running");
  }
  ProfilerState* st = g_state.load(std::memory_order_acquire);

  // Disarm, then deactivate, then wait for handlers that were already
  // past the active check — after the loop no thread touches a ring.
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  st->active.store(false, std::memory_order_release);
  for (int spin = 0;
       st->in_handler.load(std::memory_order_acquire) != 0 && spin < 10000;
       ++spin) {
    timespec ts{0, 100000};  // 0.1 ms
    nanosleep(&ts, nullptr);
  }
  sigaction(SIGPROF, &g_capture.old_action, nullptr);
  g_capture.running = false;

  Profile profile;
  profile.hz = g_capture.hz;
  profile.duration_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - g_capture.start)
                           .count();
  profile.threads_missed = st->threads_missed.load(std::memory_order_relaxed);

  // Drain: aggregate retained samples by raw pc vector (leaf-first)
  // before paying for any symbolization.
  std::map<std::vector<uintptr_t>, uint64_t> by_pcs;
  const uint32_t claimed =
      std::min(st->rings_claimed.load(std::memory_order_acquire),
               st->num_rings);
  for (uint32_t r = 0; r < claimed; ++r) {
    SampleRing& ring = st->rings[r];
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    const uint64_t retained =
        std::min<uint64_t>(head, ring.mask + 1);
    profile.samples += head;
    profile.samples_dropped += head - retained;
    std::vector<uintptr_t> pcs;
    for (uint64_t seq = head - retained; seq < head; ++seq) {
      const size_t slot = static_cast<size_t>(seq) & ring.mask;
      const uint32_t n = std::min<uint32_t>(
          ring.counts[slot].load(std::memory_order_relaxed),
          static_cast<uint32_t>(ring.stride));
      pcs.clear();
      pcs.reserve(n);
      const std::atomic<uintptr_t>* base = ring.pcs + slot * ring.stride;
      for (uint32_t i = 0; i < n; ++i) {
        pcs.push_back(base[i].load(std::memory_order_relaxed));
      }
      if (!pcs.empty()) by_pcs[pcs]++;
    }
  }

  // Symbolize each distinct stack once, caching per-pc resolutions.
  std::unordered_map<uintptr_t, std::string> symbols;
  auto symbol_of = [&symbols](uintptr_t pc) -> const std::string& {
    auto it = symbols.find(pc);
    if (it == symbols.end()) {
      it = symbols.emplace(pc, SymbolizePc(pc)).first;
    }
    return it->second;
  };
  std::map<std::vector<std::string>, uint64_t> by_frames;
  for (const auto& [pcs, count] : by_pcs) {
    // Strip the handler and the signal trampoline: frames are
    // leaf-first, so everything up to and including handler + 1 is
    // capture machinery, not the interrupted stack. Fall back to
    // skipping the top two frames when the handler is not resolvable.
    const int handler = FindHandlerFrame(pcs);
    size_t begin = handler >= 0 ? static_cast<size_t>(handler) + 2 : 2;
    if (begin >= pcs.size()) begin = pcs.size() > 1 ? pcs.size() - 1 : 0;
    std::vector<std::string> frames;
    frames.reserve(pcs.size() - begin);
    for (size_t i = pcs.size(); i > begin; --i) {  // reverse: root-first
      frames.push_back(symbol_of(pcs[i - 1]));
    }
    if (frames.empty()) frames.push_back("[unknown]");
    by_frames[std::move(frames)] += count;
  }
  profile.stacks.reserve(by_frames.size());
  for (auto& [frames, count] : by_frames) {
    profile.stacks.push_back({frames, count});
  }
  std::stable_sort(profile.stacks.begin(), profile.stacks.end(),
                   [](const ProfileStack& a, const ProfileStack& b) {
                     return a.count > b.count;
                   });

  // Off-CPU dimension: window delta of each source still registered,
  // scaled by hz into synthetic sample counts.
  const auto off_cpu_end = SnapshotOffCpuSources();
  for (const auto& [name, end_total] : off_cpu_end) {
    double start_total = 0;
    for (const auto& [start_name, value] : g_capture.off_cpu_start) {
      if (start_name == name) {
        start_total = value;
        break;
      }
    }
    OffCpuEntry entry;
    entry.name = SanitizeFrame(name);
    entry.seconds = std::max(0.0, end_total - start_total);
    entry.samples =
        static_cast<uint64_t>(entry.seconds * profile.hz + 0.5);
    profile.off_cpu.push_back(std::move(entry));
  }

  RecordCaptureMetrics(profile);
  return profile;
}

#else  // !RWDT_PROFILER_SUPPORTED

Status StartProfiling(const ProfileOptions&) {
  return Status::Unsupported(
      "sampling profiler requires Linux with <execinfo.h>");
}

Result<Profile> StopProfiling() {
  return Status::Unsupported(
      "sampling profiler requires Linux with <execinfo.h>");
}

#endif  // RWDT_PROFILER_SUPPORTED

Result<Profile> CaptureProfile(double seconds, const ProfileOptions& options) {
  seconds = std::min(std::max(seconds, 0.05), 300.0);
  RWDT_RETURN_IF_ERROR(StartProfiling(options));
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  return StopProfiling();
}

std::string Profile::ToCollapsed() const {
  std::string out;
  for (const ProfileStack& stack : stacks) {
    for (size_t i = 0; i < stack.frames.size(); ++i) {
      if (i > 0) out += ';';
      out += stack.frames[i];
    }
    out += ' ';
    out += std::to_string(stack.count);
    out += '\n';
  }
  for (const OffCpuEntry& entry : off_cpu) {
    if (entry.samples == 0) continue;
    out += "[offcpu];";
    out += entry.name;
    out += ' ';
    out += std::to_string(entry.samples);
    out += '\n';
  }
  return out;
}

std::string Profile::ToJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.DoubleField("hz", hz);
  w.DoubleField("duration_s", duration_s);
  w.UIntField("samples", samples);
  w.UIntField("samples_dropped", samples_dropped);
  w.UIntField("threads_missed", threads_missed);
  w.Key("stacks").BeginArray();
  for (const ProfileStack& stack : stacks) {
    w.BeginObject();
    w.Key("frames").BeginArray();
    for (const std::string& frame : stack.frames) w.String(frame);
    w.EndArray();
    w.UIntField("count", stack.count);
    w.EndObject();
  }
  w.EndArray();
  w.Key("off_cpu").BeginArray();
  for (const OffCpuEntry& entry : off_cpu) {
    w.BeginObject();
    w.StringField("name", entry.name);
    w.DoubleField("seconds", entry.seconds);
    w.UIntField("samples", entry.samples);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out;
}

ScopedSelfProfile::ScopedSelfProfile(std::string path, ProfileOptions options)
    : path_(std::move(path)) {
  const Status status = StartProfiling(options);
  if (!status.ok()) {
    RWDT_LOG(WARN) << "self-profile disabled: " << status.message();
    return;
  }
  active_ = true;
  RWDT_LOG(INFO) << "self-profile: sampling at " << ClampHz(options.hz)
                 << " Hz, will write " << path_;
}

ScopedSelfProfile::~ScopedSelfProfile() {
  const Status status = Finish();
  if (!status.ok()) {
    RWDT_LOG(ERROR) << "self-profile write failed: " << status.message();
  }
}

Status ScopedSelfProfile::Finish() {
  if (!active_) return Status::Ok();
  active_ = false;
  auto profile = StopProfiling();
  RWDT_RETURN_IF_ERROR(profile.status());
  FILE* out = std::fopen(path_.c_str(), "w");
  if (out == nullptr) {
    return Status::Internal("cannot write " + path_);
  }
  const std::string collapsed = profile.value().ToCollapsed();
  std::fwrite(collapsed.data(), 1, collapsed.size(), out);
  std::fclose(out);
  RWDT_LOG(INFO) << "self-profile: " << profile.value().samples
                 << " samples over " << profile.value().duration_s
                 << " s (" << profile.value().samples_dropped
                 << " dropped) written to " << path_;
  return Status::Ok();
}

std::unique_ptr<ScopedSelfProfile> MaybeStartEnvProfile(
    const char* default_path) {
  const char* env = std::getenv("RWDT_PROFILE");
  if (env == nullptr || env[0] == '\0') return nullptr;
  std::string path = env;
  if (path == "1" && default_path != nullptr) path = default_path;
  ProfileOptions options;
  const char* hz_env = std::getenv("RWDT_PROFILE_HZ");
  if (hz_env != nullptr) {
    const double hz = std::strtod(hz_env, nullptr);
    if (hz > 0) options.hz = hz;
  }
  return std::make_unique<ScopedSelfProfile>(std::move(path), options);
}

}  // namespace rwdt::obs
