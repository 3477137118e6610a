#ifndef RWDT_SERVE_SERVE_H_
#define RWDT_SERVE_SERVE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "obs/proc_stats.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/slow_log.h"
#include "serve/verdict.h"

namespace rwdt::serve {

struct ServeOptions {
  /// Front-end HTTP options (bind address, port, handler pool, body
  /// caps). handler_threads (at most 4096) bounds concurrent in-flight
  /// requests; each one parks on its queued job until a worker
  /// completes it.
  HttpServer::Options http;

  /// Bounded request queue between the HTTP handler pool and the batch
  /// workers. A full queue sheds with 429 + Retry-After — backpressure
  /// is explicit, never a silent drop or an unbounded buffer.
  size_t queue_capacity = 256;

  /// Batch workers draining the queue. Each owns a private
  /// single-threaded engine::Engine with default options (it dedups
  /// within a request, not across requests; EngineStream's
  /// one-stream-per-engine rule holds because a worker processes jobs
  /// serially). Classification uses the default core::LogStudyOptions
  /// and sparql::ParseLimits. At most 4096.
  unsigned workers = 2;

  /// Micro-batch: a worker pops up to this many queued jobs per wakeup,
  /// amortizing queue synchronization under load while keeping
  /// time-to-first-verdict low when idle.
  size_t max_batch = 32;

  /// Value of the Retry-After header on 429/503 shed responses.
  uint32_t retry_after_s = 1;

  /// Per-tenant token bucket, keyed by the X-Tenant request header
  /// (missing header -> "anonymous"). quota_qps is the sustained refill
  /// rate, quota_burst the bucket capacity. quota_qps <= 0 disables
  /// quota enforcement entirely.
  double quota_qps = 0;
  double quota_burst = 20;

  /// Head sampling rate for request traces, in [0, 1]. A request that
  /// arrives with a valid W3C `traceparent` keeps the caller's sampled
  /// flag (distributed tracing honors the upstream decision); requests
  /// without one get a fresh trace id whose sampling is decided
  /// deterministically by (trace id, trace_sample_seed) — the same seed
  /// always samples the same subset of trace ids. Trace *ids* are
  /// always assigned; the rate only gates span recording.
  double trace_sample_rate = 0;
  uint64_t trace_sample_seed = 0;

  /// Tail sampler: the slow-query log behind GET /slowz. Regardless of
  /// head sampling, the slowest requests of the recent window are
  /// retained with their verdict, timing breakdown, and explained plan.
  /// Disabling removes the per-job WouldAdmit check entirely.
  bool enable_slow_log = true;
  SlowLogOptions slow_log;

  /// Test-only: artificial delay per processed job, to make overload
  /// (429) and drain tests deterministic. Keep 0 in production.
  uint32_t debug_worker_delay_ms = 0;

  /// Rejects nonsensical configurations before any thread is spawned.
  Status Validate() const;
};

/// The network-facing classification service: the paper's per-query
/// classifier battery and the streaming log-study engine behind an
/// HTTP/1.1 API.
///
/// Routes:
///   POST /v1/classify?lang=sparql|path|xpath   body: one query text
///        -> 200 JSON verdict, 422 JSON error when it does not parse.
///   POST /v1/classify_batch?format=plain|tsv   body: raw query log
///        -> 200 SourceStudy JSON (valid/unique aggregates + error
///           taxonomy), byte-identical to a direct EngineStream run.
///   POST /v1/log?format=plain|tsv              body: raw query log
///        -> 200 full IngestReport JSON (study + reader counters +
///           per-source counts + engine metrics).
///   GET  /slowz     the tail sampler's slow-query log as JSON: the
///                   slowest requests of the recent window with trace
///                   id, timing breakdown, verdict, explained plan.
///   GET  /quitquitquit   requests shutdown (releases WaitForQuit).
///   The shared admin routes (AdminRoutes), each counted in
///   rwdt_serve_requests_total like the routes above:
///   GET  /healthz   liveness: 200 while the process serves at all.
///   GET  /readyz    readiness: 200 while accepting new work; 503
///                   "draining" once draining (load balancers stop
///                   routing here first).
///   GET  /metrics   obs::MetricRegistry::Global() as OpenMetrics text.
///   GET  /statusz   JSON snapshot: queue depth, worker count, shed
///                   counts, per-tenant bucket levels.
///   GET  /tracez?limit=N   the active TraceCollector as Chrome trace
///                   JSON (503 when none); N caps the events rendered.
///   GET  /profilez  a timed sampling CPU profile of the process.
///
/// Request flow: handler threads validate + check the tenant quota,
/// enqueue a job into the bounded queue (full -> 429 + Retry-After),
/// and block until a batch worker completes it. Every request gets a
/// response — shedding is a fast 429/503, never a dropped connection.
///
/// Tracing: every /v1/* request gets a TraceContext (from the caller's
/// `traceparent` header, or freshly minted) that rides the job across
/// the queue into the worker, so worker-side spans (queue_wait, the
/// classify/ingest work, engine stages) nest under one per-request root
/// span. The response always carries a `traceparent` header, and every
/// shed response (429/503) carries the trace id in its JSON body and
/// its log line — a rejected request is still unambiguously reportable.
///
/// Shutdown is a drain, not an abort: BeginDrain() flips /readyz to 503
/// and makes new submissions fail with 503, while everything already
/// queued still runs to completion; Stop() then waits for the queue to
/// empty, joins the workers, and tears down the HTTP front end. SIGTERM
/// handling in tools/rwdt_serve and GET /quitquitquit both route here.
class ClassifyServer {
 public:
  explicit ClassifyServer(ServeOptions options);
  ~ClassifyServer();  // implies Stop()

  ClassifyServer(const ClassifyServer&) = delete;
  ClassifyServer& operator=(const ClassifyServer&) = delete;

  /// Validates options, spawns the worker pool, starts the HTTP server.
  Status Start();

  /// Stops accepting new work (submissions 503, /readyz 503) while
  /// queued and in-flight jobs keep running. Idempotent.
  void BeginDrain();

  /// Graceful shutdown: BeginDrain, wait for the queue to empty and all
  /// in-flight jobs to complete, join workers, stop the HTTP server.
  /// Idempotent; called by the destructor.
  void Stop();

  uint16_t port() const;
  bool running() const;
  bool draining() const;

  /// Blocks until GET /quitquitquit, RequestQuit, or Stop. Returns true
  /// if quit/stop arrived within `timeout_ms`.
  bool WaitForQuit(uint32_t timeout_ms);
  void RequestQuit();

  const ServeOptions& options() const { return options_; }

  /// The tail sampler, for the final run report (null when disabled).
  const SlowQueryLog* slow_log() const { return slow_log_.get(); }

 private:
  struct Job;
  struct Worker;
  struct TenantBucket {
    double tokens = 0;
    std::chrono::steady_clock::time_point last_refill;
  };

  HttpResponse HandleClassify(const HttpRequest& request);
  HttpResponse HandleIngest(const HttpRequest& request, bool full_report);
  /// The /statusz body.
  std::string StatuszJson() const;
  HttpResponse HandleSlowz(const HttpRequest& request);

  /// The request's trace context: parsed from `traceparent` (keeping
  /// the caller's trace id and sampled flag, with the caller's span id
  /// returned in `*parent_span`), or freshly minted + head-sampled when
  /// absent/malformed. In both cases ctx.span_id is a new span id — the
  /// server-side root span of this request.
  obs::TraceContext MakeRequestContext(const HttpRequest& request,
                                       uint64_t* parent_span) const;

  /// Quota check + bounded enqueue + wait for completion. `route` is
  /// the metrics label; the job's ctx/tenant/route must be set.
  HttpResponse Submit(std::shared_ptr<Job> job, const std::string& tenant,
                      const char* route);
  /// Token-bucket admission for `tenant`; true = admit.
  bool AdmitTenant(const std::string& tenant);

  void WorkerLoop(Worker* worker);
  void ProcessJob(Worker* worker, Job* job);

  /// Tail sampling, run by the worker after a job completes, in two
  /// halves around waking its client. SlowEntry, before: when (queue
  /// wait + process time) beats the slow log's bar, an entry with the
  /// timing and what it takes from the response (status, verdict body),
  /// which the client moves out once woken; nullopt otherwise.
  std::optional<SlowQueryEntry> SlowEntry(const Job& job, double queue_wait_s,
                                          double process_s) const;
  /// RecordSlow, after: the rest of the entry from the job — paying for
  /// the explained plan only here, off the client's latency — and its
  /// admission.
  void RecordSlow(const Job& job, SlowQueryEntry entry);
  /// The executor's Plan::ToJson for one SPARQL query text, planned
  /// against an empty store from the `verdict` the worker rendered for
  /// it ("" on parse/plan failure). Plan dispatch depends only on that
  /// verdict, so the fragment/strategy match what /v1/classify said
  /// about the same text, and the text is not classified a second time.
  std::string ExplainPlanJson(const std::string& text,
                              const core::QueryVerdict& verdict) const;

  HttpResponse ShedResponse(int status, const char* reason,
                            const std::string& tenant, const char* route,
                            const obs::TraceContext& ctx);
  void CountRequest(const char* route, int status);

  ServeOptions options_;
  obs::TraceSampler sampler_;
  std::unique_ptr<SlowQueryLog> slow_log_;
  std::unique_ptr<HttpServer> http_;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  bool draining_ = false;
  bool stop_workers_ = false;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantBucket> tenants_;

  // Cached instruments (registration is mutexed; lookups here are not).
  std::mutex metrics_mu_;
  std::map<std::pair<std::string, int>, obs::Counter*> request_counters_;
  std::map<std::pair<std::string, std::string>, obs::Counter*>
      shed_counters_;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* queue_wait_s_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Histogram* job_s_ = nullptr;
  obs::ScopedCollector http_collector_;
  /// Queue-wait time as a /profilez off-CPU source, so a profile of
  /// this server shows "parked on the serve queue" next to CPU stacks.
  obs::ScopedOffCpuSource queue_wait_offcpu_;
  /// rwdt_proc_* footprint gauges on /metrics (inert if something else
  /// in the process installed them first).
  std::unique_ptr<obs::ProcStatsCollector> proc_stats_;
};

}  // namespace rwdt::serve

#endif  // RWDT_SERVE_SERVE_H_
