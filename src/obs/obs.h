// Umbrella header for rwdt::obs — the observability subsystem:
//
//   * trace.h    — RAII spans over per-thread lock-free ring buffers,
//                  exported as Chrome trace-event JSON (Perfetto).
//   * log.h      — RWDT_LOG leveled structured logging with pluggable
//                  sinks (stderr text, JSON-lines file).
//   * registry.h — process-wide MetricRegistry of named counters,
//                  gauges, and histograms (relaxed-atomic hot path).
//   * openmetrics.h — OpenMetrics/Prometheus text exposition of
//                  registry family snapshots.
//   * admin_server.h — the admin routes, each implemented once
//                  (/metrics, /healthz, /readyz, /statusz, /tracez,
//                  /profilez; AdminRoutes), and the blocking HTTP/1.1
//                  AdminServer a tool hosts them on (MaybeStartEnvAdmin,
//                  keyed off RWDT_ADMIN_PORT). rwdt_serve mounts the
//                  same routes on its own front end.
//   * profiler.h — SIGPROF sampling CPU profiler (per-thread lock-free
//                  sample rings, off-signal-path symbolization) with
//                  collapsed-stack / JSON export and an off-CPU
//                  dimension from registered wall-time sources.
//   * proc_stats.h — scrape-time process footprint (RSS, CPU seconds,
//                  page faults, context switches, I/O bytes) from
//                  /proc/self and getrusage as rwdt_proc_* families.
//
// Everything here is zero-cost when idle: spans gate on one relaxed
// atomic load, log statements on one relaxed load before the message is
// composed, and the registry is pull-only — nothing runs until a scrape.
// Nothing here includes the engine: it registers its own rwdt_engine_*
// collector, and its live run reporting is engine/progress.h.
#ifndef RWDT_OBS_OBS_H_
#define RWDT_OBS_OBS_H_

#include "obs/admin_server.h"
#include "obs/log.h"
#include "obs/openmetrics.h"
#include "obs/proc_stats.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

#endif  // RWDT_OBS_OBS_H_
