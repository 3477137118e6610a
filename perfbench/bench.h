// Shared pieces of the rwdt benchmark driver: run options, the result
// every workload returns, timing and memory helpers, and the in-memory
// span recorder used by traced runs.
//
// The driver reaches the library only through its public headers. Spans
// are recorded here, around the driver's own calls into each layer, so
// tracing needs no change to the library.

#ifndef RWDT_PERFBENCH_BENCH_H_
#define RWDT_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"

namespace perfbench {

/// The symbol dictionary exec::Executor and serve's per-request parse
/// use; the one place the benchmark names that type.
using Dict = rwdt::Interner;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// The rwdt_serve binary ingest-dup's traced run drives.
  std::string serve_bin;
  /// Directory for files a run writes: the ingest log, span dumps.
  std::string work_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one run reports. An operation is one source study, one request
/// or one query execution; a mismatch against the reference answer
/// counts it as failed.
///
/// On a shared VM, interference from other tenants only ever adds time,
/// and it comes and goes in phases of seconds: the same ingest ran 1.5
/// times slower in some phases than in others. So throughput comes from the
/// fastest repetition, the figure that repeats from run to run, and the
/// latency metric is a p99 over every timed repetition of a unit of work
/// of 20 to 60 ms (a study, a pass over the query mix), which lies in the
/// slow phases every run has. The median moves with the share of slow
/// phases in a run (its spread between runs reached 32%); runs print it,
/// with the sample count, to stderr but do not report it.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when a check outside the counted operations failed (input
  /// determinism, a known-answer digest, a layer replay's study).
  bool checks_passed = true;
  std::vector<Metric> metrics;

  void Add(std::string name, std::string unit, double value);
  /// Counts one operation; returns `ok`.
  bool Op(bool ok, const char* what);
  /// Records a failed non-operation check.
  void Check(bool ok, const char* what);
};

uint64_t NowNs();
double Seconds(uint64_t ns);

/// Linear-interpolated percentile (p in [0, 1]) of unsorted samples;
/// 0 for an empty set.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Prints a sample set's count, quartiles and p99 to stderr, so a run
/// shows how much its own samples spread.
void PrintSpread(const char* what, const std::vector<double>& samples);

/// Runs `setup` `times` times and returns the median wall time in
/// seconds. Between runs, `between` (untimed) checks or releases what the
/// previous run built; the last run's state is the one the timed phase
/// uses.
double MedianSetupSeconds(int times, const std::function<void()>& between,
                          const std::function<void()>& setup);

/// Peak resident memory of a process over a window: ResetPeakRss sets
/// the kernel's high-water mark to the current RSS (/proc/PID/clear_refs)
/// and PeakRssMiB reads it back (VmHWM). Both return a negative value on
/// failure.
bool ResetPeakRss(pid_t pid);
double PeakRssMiB(pid_t pid);

/// Hands freed heap back to the kernel so set-up garbage does not count
/// toward the timed phase's peak.
void TrimHeap();

/// FNV-1a over bytes: a seed-stable fingerprint for the input checks.
uint64_t Fingerprint(std::string_view bytes, uint64_t h = 1469598103934665603ull);

/// In-memory span recorder. A span has a name, start and end
/// (steady-clock ns), the span that caused it, and the run id; spans are
/// written out once, at the end of the run. Names are "<layer>.<call>",
/// where the layer is a src/ module.
class Tracer {
 public:
  explicit Tracer(uint64_t run_id) : run_id_(run_id) {}

  /// Opens a span as a child of the innermost open one; returns its id.
  int Open(const char* name);
  void Close(int id);
  /// Adds an already-finished span under the innermost open one.
  int Record(const char* name, uint64_t start_ns, uint64_t end_ns);
  /// Adds an already-finished span under span `parent`.
  int RecordUnder(int parent, const char* name, uint64_t start_ns,
                  uint64_t end_ns);

  /// Durations (ns) of every span called `name`.
  std::vector<double> DurationsNs(std::string_view name) const;
  double TotalNs(std::string_view name) const;
  double DurationNs(int id) const;

  /// Self time per layer (ns): each span's duration minus the part its
  /// children cover, summed by the layer prefix of its name.
  std::vector<std::pair<std::string, double>> SelfNsByLayer() const;

  /// One line per span: run_id id parent name start_ns end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int parent;
  };
  uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null (untimed runs pass null).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// The workloads. Each fills `out` with its metrics: the end-to-end set
// when options.trace is false, the per-layer set otherwise.
void RunIngestDup(const Options& options, Outcome* out);
void RunExecMix(const Options& options, Outcome* out);

/// The serve layer's per-layer metrics: drives rwdt_serve
/// (options.serve_bin) in an open loop and replays its calls. Part of
/// ingest-dup's traced run.
void MeasureServeLayer(const Options& options, Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // RWDT_PERFBENCH_BENCH_H_
