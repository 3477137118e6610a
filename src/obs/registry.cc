#include "obs/registry.h"

#include <algorithm>
#include <cctype>

#include "obs/log.h"
#include "obs/openmetrics.h"

namespace rwdt::obs {
namespace {

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!tail(c)) return false;
  }
  return true;
}

bool ValidLabelName(std::string_view name) {
  // Like a metric name but without ':' (reserved for recording rules),
  // and never the histogram's own "le".
  if (!ValidMetricName(name)) return false;
  return name.find(':') == std::string_view::npos && name != "le";
}

Labels Normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Process-lifetime sinks handed out on misuse (type collision, bad
/// name) so call sites never crash; the error is logged instead.
Counter* DummyCounter() {
  static Counter* c = new Counter();
  return c;
}
Gauge* DummyGauge() {
  static Gauge* g = new Gauge();
  return g;
}
Histogram* DummyHistogram() {
  static Histogram* h = new Histogram({1.0});
  return h;
}

}  // namespace

const char* MetricTypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

void Gauge::Add(double d) {
  uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + d),
      std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

size_t Histogram::BucketIndex(double v) const {
  // Linear scan: bucket lists are short (the engine's 64-bucket latency
  // families are rendered by its collector, not fed through Observe) and
  // the scan is branch-predictable; a binary search would cost more in
  // practice.
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  return i;
}

void Histogram::Observe(double v) {
  counts_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed)) {
  }
}

void Histogram::ObserveWithExemplar(double v, Labels exemplar_labels) {
  Observe(v);
  const size_t i = BucketIndex(v);
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (exemplars_ == nullptr) {
    exemplars_ = std::make_unique<Exemplar[]>(bounds_.size() + 1);
  }
  exemplars_[i].labels = std::move(exemplar_labels);
  exemplars_[i].value = v;
  exemplars_[i].set = true;
}

Exemplar Histogram::exemplar(size_t i) const {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (exemplars_ == nullptr || i > bounds_.size()) return {};
  return exemplars_[i];
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) total += bucket_count(i);
  return total;
}

std::vector<double> Histogram::ExponentialBounds(double start, double factor,
                                                 size_t n) {
  std::vector<double> bounds;
  bounds.reserve(n);
  double v = start;
  for (size_t i = 0; i < n; ++i) {
    bounds.push_back(v);
    v *= factor;
  }
  return bounds;
}

/// One named family: its metadata plus one instrument per label set.
/// Children are deque-like via unique_ptr so handed-out pointers are
/// stable across later registrations.
struct MetricRegistry::Family {
  std::string name;
  std::string help;
  MetricType type = MetricType::kGauge;
  std::vector<double> bounds;  // histograms only
  std::map<Labels, std::unique_ptr<Counter>> counters;
  std::map<Labels, std::unique_ptr<Gauge>> gauges;
  std::map<Labels, std::unique_ptr<Histogram>> histograms;
};

MetricRegistry::MetricRegistry() = default;
MetricRegistry::~MetricRegistry() = default;

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // leaked
  return *registry;
}

MetricRegistry::Family* MetricRegistry::GetFamily(std::string_view name,
                                                  std::string_view help,
                                                  MetricType type) {
  // Caller holds mu_.
  if (!ValidMetricName(name)) {
    RWDT_LOG(ERROR) << "invalid metric name '" << name
                    << "': returning dummy instrument";
    return nullptr;
  }
  auto it = families_.find(name);
  if (it != families_.end()) {
    if (it->second->type != type) {
      RWDT_LOG(ERROR) << "metric '" << name << "' re-registered as "
                      << MetricTypeName(type) << " but is a "
                      << MetricTypeName(it->second->type)
                      << ": returning dummy instrument";
      return nullptr;
    }
    return it->second.get();
  }
  auto family = std::make_unique<Family>();
  family->name = std::string(name);
  family->help = std::string(help);
  family->type = type;
  Family* raw = family.get();
  families_.emplace(std::string(name), std::move(family));
  return raw;
}

namespace {
bool CheckLabels(const Labels& labels, std::string_view family) {
  for (const auto& [key, value] : labels) {
    (void)value;
    if (!ValidLabelName(key)) {
      RWDT_LOG(ERROR) << "invalid label name '" << key << "' on metric '"
                      << family << "': returning dummy instrument";
      return false;
    }
  }
  return true;
}
}  // namespace

Counter* MetricRegistry::GetCounter(std::string_view name,
                                    std::string_view help, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!CheckLabels(labels, name)) return DummyCounter();  // before creation
  Family* family = GetFamily(name, help, MetricType::kCounter);
  if (family == nullptr) return DummyCounter();
  auto& slot = family->counters[Normalize(std::move(labels))];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name, std::string_view help,
                                Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!CheckLabels(labels, name)) return DummyGauge();
  Family* family = GetFamily(name, help, MetricType::kGauge);
  if (family == nullptr) return DummyGauge();
  auto& slot = family->gauges[Normalize(std::move(labels))];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        std::string_view help,
                                        std::vector<double> bounds,
                                        Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!CheckLabels(labels, name)) return DummyHistogram();
  Family* family = GetFamily(name, help, MetricType::kHistogram);
  if (family == nullptr) return DummyHistogram();
  if (family->bounds.empty()) family->bounds = std::move(bounds);
  auto& slot = family->histograms[Normalize(std::move(labels))];
  if (slot == nullptr) slot = std::make_unique<Histogram>(family->bounds);
  return slot.get();
}

uint64_t MetricRegistry::AddCollector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(fn));
  return id;
}

void MetricRegistry::RemoveCollector(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.erase(id);
}

std::vector<FamilySnapshot> MetricRegistry::Collect() const {
  std::vector<FamilySnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, family] : families_) {
      FamilySnapshot snap;
      snap.name = family->name;
      snap.help = family->help;
      snap.type = family->type;
      for (const auto& [labels, counter] : family->counters) {
        snap.samples.push_back(
            {"_total", labels, static_cast<double>(counter->value())});
      }
      for (const auto& [labels, gauge] : family->gauges) {
        snap.samples.push_back({"", labels, gauge->value()});
      }
      for (const auto& [labels, histogram] : family->histograms) {
        AppendHistogramSamples(
            family->bounds,
            [&](size_t i) { return histogram->bucket_count(i); },
            histogram->sum(), labels, &snap.samples,
            [&](size_t i) { return histogram->exemplar(i); });
      }
      out.push_back(std::move(snap));
    }
    for (const auto& [id, collector] : collectors_) {
      (void)id;
      collector(&out);
    }
  }
  return MergeFamilies(std::move(out));
}

std::string MetricRegistry::RenderOpenMetrics() const {
  return WriteOpenMetrics(Collect());
}

}  // namespace rwdt::obs
