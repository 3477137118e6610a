#ifndef RWDT_OBS_REGISTRY_H_
#define RWDT_OBS_REGISTRY_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rwdt::obs {

/// The three OpenMetrics instrument kinds the registry supports.
enum class MetricType { kCounter, kGauge, kHistogram };

/// Stable lower-case name as it appears in `# TYPE` lines.
const char* MetricTypeName(MetricType t);

/// A label set: key/value pairs, sorted by key at registration so that
/// `{a="1",b="2"}` and `{b="2",a="1"}` name the same child series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// An OpenMetrics exemplar: one concrete observation attached to a
/// histogram bucket, carrying correlation labels (here: the trace id of
/// the request that produced it). Rendered as
/// `... # {trace_id="4f2a..."} 0.0042` after the bucket sample.
struct Exemplar {
  Labels labels;
  double value = 0;
  bool set = false;
};

/// Monotone counter. `Increment` is one relaxed atomic RMW on a
/// registry-owned cache line, no mutex anywhere near the hot path.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous value. Stored as the bit pattern of a double so `Set`
/// is a single relaxed store (no CAS) and `Add` a CAS loop.
class Gauge {
 public:
  void Set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  void Add(double d);
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-boundary histogram. `Observe` increments exactly one bucket
/// counter (relaxed) and CAS-adds the sum; bucket cumulativity is
/// computed at exposition time, so the hot path never touches more than
/// two cache lines.
class Histogram {
 public:
  /// `bounds` are the inclusive upper bounds of the finite buckets
  /// (OpenMetrics `le` values), strictly increasing. A final +Inf bucket
  /// is implicit.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// Observe(v) plus: remember `(exemplar_labels, v)` as the landing
  /// bucket's exemplar (latest write wins). The exemplar store is
  /// mutex-guarded and lazily allocated — callers only pay for it on
  /// sampled requests, and plain Observe stays lock-free.
  void ObserveWithExemplar(double v, Labels exemplar_labels);

  /// Copy of bucket `i`'s exemplar (`set == false` when none recorded).
  /// `i == bounds().size()` is the +Inf bucket.
  Exemplar exemplar(size_t i) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  uint64_t bucket_count(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const;
  double sum() const {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

  /// Geometric bounds {start, start*factor, start*factor^2, ...}, `n`
  /// buckets — the serve and planner latency histograms use them.
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t n);

 private:
  size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<uint64_t> sum_bits_{0};
  // Exemplar storage: written rarely (sampled requests only), read at
  // scrape time. Allocated on first ObserveWithExemplar.
  mutable std::mutex exemplar_mu_;
  std::unique_ptr<Exemplar[]> exemplars_;  // bounds_.size() + 1, or null
};

/// One exposition sample: `<family name><suffix>{<labels>} <value>`,
/// optionally followed by an exemplar (histogram `_bucket` rows only).
struct Sample {
  Sample() = default;
  Sample(std::string suffix_in, Labels labels_in, double value_in,
         Exemplar exemplar_in = {})
      : suffix(std::move(suffix_in)),
        labels(std::move(labels_in)),
        value(value_in),
        exemplar(std::move(exemplar_in)) {}

  std::string suffix;  // "", "_total", "_bucket", "_sum", "_count"
  Labels labels;
  double value = 0;
  Exemplar exemplar;
};

/// A point-in-time copy of one metric family, ready for the OpenMetrics
/// writer. Produced by `MetricRegistry::Collect` and by scrape-time
/// collector callbacks (e.g. each engine's rwdt_engine_* collector).
struct FamilySnapshot {
  std::string name;  // base name without the _total/_bucket suffixes
  std::string help;
  MetricType type = MetricType::kGauge;
  std::vector<Sample> samples;
};

/// A process-wide registry of named instruments with optional label
/// sets, plus scrape-time collector callbacks for subsystems that keep
/// their own counters (an engine renders its own metrics value into
/// families on demand, so registration costs its hot path nothing).
///
/// Registration (`GetCounter`/...) takes a mutex and is expected to
/// happen once per call site, with the returned pointer cached by the
/// caller; the instruments themselves are lock-free. Returned pointers
/// stay valid for the registry's lifetime.
class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();  // out of line: Family is an incomplete type here
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry `/metrics` serves.
  static MetricRegistry& Global();

  /// Get-or-create. `name` must match [a-zA-Z_:][a-zA-Z0-9_:]* and not
  /// collide with a family of a different type; violations are logged
  /// and a process-lifetime dummy instrument is returned so callers
  /// never need a null check.
  Counter* GetCounter(std::string_view name, std::string_view help,
                      Labels labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  Labels labels = {});
  /// All children of one histogram family share the family's bounds
  /// (the bounds of the first registration win).
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> bounds, Labels labels = {});

  /// Scrape-time callback appending zero or more FamilySnapshots.
  /// Called under the registry mutex — do not re-enter the registry.
  using Collector = std::function<void(std::vector<FamilySnapshot>*)>;

  /// Registers `fn` to run on every Collect. Returns an id for
  /// RemoveCollector (mandatory before anything `fn` captures dies).
  uint64_t AddCollector(Collector fn);
  void RemoveCollector(uint64_t id);

  /// Snapshots every instrument and runs every collector, merging
  /// families with the same name (samples concatenated; the first
  /// registration's type/help win). Families are sorted by name so the
  /// exposition is deterministic.
  std::vector<FamilySnapshot> Collect() const;

  /// `Collect()` rendered as OpenMetrics text (see openmetrics.h).
  std::string RenderOpenMetrics() const;

 private:
  struct Family;
  Family* GetFamily(std::string_view name, std::string_view help,
                    MetricType type);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Family>, std::less<>> families_;
  std::map<uint64_t, Collector> collectors_;
  uint64_t next_collector_id_ = 1;
};

/// RAII handle for AddCollector: removes the collector on destruction,
/// so a subsystem that registers a scrape callback capturing `this` can
/// never dangle past its own lifetime.
class ScopedCollector {
 public:
  ScopedCollector() = default;
  ScopedCollector(MetricRegistry* registry, uint64_t id)
      : registry_(registry), id_(id) {}
  ~ScopedCollector() { Reset(); }

  ScopedCollector(ScopedCollector&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
  }
  ScopedCollector& operator=(ScopedCollector&& other) noexcept {
    if (this != &other) {
      Reset();
      registry_ = other.registry_;
      id_ = other.id_;
      other.registry_ = nullptr;
    }
    return *this;
  }
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

  void Reset() {
    if (registry_ != nullptr) registry_->RemoveCollector(id_);
    registry_ = nullptr;
  }

 private:
  MetricRegistry* registry_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace rwdt::obs

#endif  // RWDT_OBS_REGISTRY_H_
