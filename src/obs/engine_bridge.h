#ifndef RWDT_OBS_ENGINE_BRIDGE_H_
#define RWDT_OBS_ENGINE_BRIDGE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/metrics.h"
#include "obs/registry.h"

namespace rwdt::engine {
class Engine;
}  // namespace rwdt::engine

namespace rwdt::obs {

/// The derived numbers every consumer of engine metrics shows: the
/// progress reporter's live log lines and the registry's gauges both
/// come from `ComputeEngineTick`, so `/metrics` and the tick log can
/// never disagree on what "entries/sec" means.
struct EngineTick {
  uint64_t entries = 0;
  uint64_t analyzed = 0;
  uint64_t rejects = 0;
  double entries_per_sec = 0;  // delta vs prev_entries over interval_s
};

EngineTick ComputeEngineTick(const engine::MetricsSnapshot& snap,
                             uint64_t prev_entries, double interval_s);

/// Registers a scrape-time collector that converts the engine's
/// MetricsSnapshot (and thread-pool queue depth) into registry families
/// under the `rwdt_engine_*` namespace:
///
///   rwdt_engine_entries_total / queries_analyzed_total /
///   parse_failures_total / wall_seconds_total        counters
///   rwdt_engine_errors_total{class="parse_error"}    counter per class
///   rwdt_engine_threads / interner_bytes /
///   dedup_entries / queue_depth                      gauges
///   rwdt_engine_stage_latency_ns{stage="parse"}      histograms
///
/// Pull-model: nothing happens until a scrape, so the engine's hot path
/// is untouched and an idle registry costs zero. `labels` (typically
/// {{"engine","<id>"}}) are stamped on every sample so several live
/// engines expose disjoint series. The returned handle must not outlive
/// `engine` — the engine owns it and resets it in its destructor.
ScopedCollector RegisterEngineMetrics(MetricRegistry* registry,
                                      const engine::Engine* engine,
                                      Labels labels = {});

/// As above but snapshot-function based (tests, replayed snapshots).
/// `queue_depth` may be null.
ScopedCollector RegisterEngineMetrics(
    MetricRegistry* registry,
    std::function<engine::MetricsSnapshot()> snapshot,
    std::function<uint64_t()> queue_depth, Labels labels = {});

/// The conversion itself, usable without a registry: appends the
/// families described above for one snapshot. Exposed for tests and for
/// one-shot exposition of a saved snapshot.
void AppendEngineFamilies(const engine::MetricsSnapshot& snap,
                          uint64_t queue_depth, const Labels& labels,
                          std::vector<FamilySnapshot>* out);

}  // namespace rwdt::obs

#endif  // RWDT_OBS_ENGINE_BRIDGE_H_
