#include "serve/serve.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "exec/planner.h"
#include "graph/rdf.h"
#include "ingest/ingest.h"
#include "obs/log.h"
#include "serve/admin_server.h"
#include "sparql/parser.h"

namespace rwdt::serve {
namespace {

constexpr const char* kJsonType = "application/json; charset=utf-8";

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// {"error": <message>, "error_class": <taxonomy class>} — every
/// non-200 from the classification routes carries a machine-readable
/// body, so clients never have to parse free text.
std::string ErrorBody(const Status& status) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject()
      .BoolField("valid", false)
      .StringField("error_class", ErrorClassName(ClassifyStatus(status)))
      .StringField("error", status.message())
      .EndObject();
  return out;
}

std::string ReasonBody(const char* reason, uint64_t trace_id = 0) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().StringField("error", reason);
  if (trace_id != 0) w.StringField("trace_id", obs::TraceIdHex(trace_id));
  w.EndObject();
  return out;
}

std::string TenantOf(const HttpRequest& request) {
  const std::string_view header = request.Header("x-tenant");
  return header.empty() ? "anonymous" : std::string(header);
}

uint64_t SteadyNs(std::chrono::steady_clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

}  // namespace

/// One queued unit of work. The submitting handler thread parks on
/// `cv`; the worker that pops it fills `response` and flips `done`.
struct ClassifyServer::Job {
  enum class Kind { kClassify, kIngest };
  Kind kind = Kind::kClassify;
  std::string body;
  QueryLang lang = QueryLang::kSparql;          // kClassify
  ingest::LogFormat format = ingest::LogFormat::kPlain;  // kIngest
  std::string source_name;                      // kIngest
  bool full_report = false;                     // kIngest: /v1/log
  /// kClassify: the verdict a 200 SPARQL response renders.
  std::optional<core::QueryVerdict> verdict;
  std::chrono::steady_clock::time_point enqueued;

  /// Request trace identity, carried across the handler -> queue ->
  /// worker handoff. ctx.span_id is the request's root span (emitted by
  /// the handler once the job completes); the worker installs ctx so
  /// its spans become the root's children. parent_span is the caller's
  /// span from `traceparent` (0 when the trace started here).
  obs::TraceContext ctx;
  uint64_t parent_span = 0;
  std::string tenant;          // for the slow-query log
  const char* route = "";      // static route literal

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  HttpResponse response;
};

/// A batch worker and its private engine. The engine runs
/// single-threaded and dedups within one request body, like duplicate
/// lines within one log; nothing is memoized across requests, so a text
/// repeated in later requests is parsed again each time.
struct ClassifyServer::Worker {
  std::unique_ptr<engine::Engine> engine;
  std::thread thread;
  /// Held while the worker explains and adds a slow-log entry whose
  /// client it has already answered.
  std::mutex slow_mu;
};

Status ServeOptions::Validate() const {
  // The same cap as EngineOptions::threads: each worker and each
  // handler is a thread.
  constexpr unsigned kMaxThreads = 4096;
  if (queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be > 0");
  }
  if (workers == 0) return Status::InvalidArgument("workers must be > 0");
  if (workers > kMaxThreads) {
    return Status::InvalidArgument("workers must be <= 4096");
  }
  if (max_batch == 0) return Status::InvalidArgument("max_batch must be > 0");
  if (quota_qps > 0 && !(quota_burst >= 1)) {
    return Status::InvalidArgument("quota_burst must be >= 1 when quotas on");
  }
  if (http.handler_threads == 0) {
    return Status::InvalidArgument("http.handler_threads must be > 0");
  }
  if (http.handler_threads > kMaxThreads) {
    return Status::InvalidArgument("http.handler_threads must be <= 4096");
  }
  if (!(trace_sample_rate >= 0) || trace_sample_rate > 1) {
    return Status::InvalidArgument("trace_sample_rate must be in [0, 1]");
  }
  if (enable_slow_log && slow_log.capacity == 0) {
    return Status::InvalidArgument("slow_log.capacity must be > 0");
  }
  return Status::Ok();
}

ClassifyServer::ClassifyServer(ServeOptions options)
    : options_(std::move(options)) {}

ClassifyServer::~ClassifyServer() { Stop(); }

Status ClassifyServer::Start() {
  RWDT_RETURN_IF_ERROR(options_.Validate());
  if (started_) return Status::Internal("ClassifyServer started twice");

  auto& registry = obs::MetricRegistry::Global();
  queue_depth_ = registry.GetGauge("rwdt_serve_queue_depth",
                                   "Jobs waiting in the request queue");
  queue_wait_s_ = registry.GetHistogram(
      "rwdt_serve_queue_wait_seconds",
      "Time a job spends queued before a worker pops it",
      obs::Histogram::ExponentialBounds(1e-4, 4.0, 10));
  batch_size_ = registry.GetHistogram(
      "rwdt_serve_batch_size", "Jobs popped per worker wakeup",
      {1, 2, 4, 8, 16, 32, 64, 128});
  job_s_ = registry.GetHistogram(
      "rwdt_serve_job_seconds",
      "Worker time per job (classify or ingest), excluding queueing; "
      "buckets carry trace-id exemplars for sampled requests",
      obs::Histogram::ExponentialBounds(1e-5, 4.0, 12));

  sampler_ = {options_.trace_sample_rate, options_.trace_sample_seed};
  slow_log_ = options_.enable_slow_log
                  ? std::make_unique<SlowQueryLog>(options_.slow_log)
                  : nullptr;

  // Per-worker engines: single-threaded, default options.
  engine::EngineOptions eopts;
  eopts.threads = 1;
  for (unsigned i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->engine = std::make_unique<engine::Engine>(eopts);
    workers_.push_back(std::move(worker));
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining_ = false;
    stop_workers_ = false;
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { WorkerLoop(w); });
  }

  http_ = std::make_unique<HttpServer>(options_.http);
  http_->Handle("POST", "/v1/classify", [this](const HttpRequest& r) {
    return HandleClassify(r);
  });
  http_->Handle("POST", "/v1/classify_batch", [this](const HttpRequest& r) {
    return HandleIngest(r, /*full_report=*/false);
  });
  http_->Handle("POST", "/v1/log", [this](const HttpRequest& r) {
    return HandleIngest(r, /*full_report=*/true);
  });
  http_->Handle("GET", "/slowz", [this](const HttpRequest& r) {
    return HandleSlowz(r);
  });
  AdminHooks hooks;
  hooks.ready = [this] { return !draining(); };
  hooks.statusz = [this] { return StatuszJson(); };
  for (AdminRoute& route : AdminRoutes(std::move(hooks))) {
    http_->Handle("GET", route.path,
                  [this, path = route.path,
                   handler = std::move(route.handler)](const HttpRequest& r) {
                    HttpResponse resp = handler(r);
                    CountRequest(path.c_str(), resp.status);
                    return resp;
                  });
  }

  const Status status = http_->Start();
  if (!status.ok()) {
    Stop();
    return status;
  }

  // The HTTP front end's own counters, bridged at scrape time.
  http_collector_ = obs::ScopedCollector(
      &registry,
      registry.AddCollector([this](std::vector<obs::FamilySnapshot>* out) {
        if (http_ == nullptr) return;
        obs::FamilySnapshot fam;
        fam.name = "rwdt_serve_connections";
        fam.help = "HTTP front-end connections by outcome";
        fam.type = obs::MetricType::kCounter;
        fam.samples.push_back(
            {"_total",
             {{"outcome", "accepted"}},
             static_cast<double>(http_->connections_accepted())});
        fam.samples.push_back(
            {"_total",
             {{"outcome", "shed"}},
             static_cast<double>(http_->connections_shed())});
        out->push_back(std::move(fam));
      }));

  // Off-CPU profile dimension: the queue-wait histogram's cumulative
  // sum is exactly the wall time jobs spent parked, and the registry
  // owns the histogram for the process lifetime, so capturing the
  // pointer (not `this`) keeps the source valid until removal.
  queue_wait_offcpu_ = obs::ScopedOffCpuSource(
      "serve.queue_wait", [h = queue_wait_s_] { return h->sum(); });
  proc_stats_ = std::make_unique<obs::ProcStatsCollector>();

  started_ = true;
  stopped_ = false;
  return Status::Ok();
}

void ClassifyServer::BeginDrain() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  draining_ = true;
}

void ClassifyServer::Stop() {
  BeginDrain();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  // Workers drain everything already queued before exiting, so every
  // handler thread parked on a job is released with a real response.
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  http_collector_.Reset();
  if (http_ != nullptr) http_->Stop();
  started_ = false;
}

uint16_t ClassifyServer::port() const {
  return http_ != nullptr ? http_->port() : 0;
}

bool ClassifyServer::running() const {
  return http_ != nullptr && http_->running();
}

bool ClassifyServer::draining() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return draining_;
}

bool ClassifyServer::WaitForQuit(uint32_t timeout_ms) {
  return http_ != nullptr ? http_->WaitForQuit(timeout_ms) : true;
}

void ClassifyServer::RequestQuit() {
  if (http_ != nullptr) http_->RequestQuit();
}

obs::TraceContext ClassifyServer::MakeRequestContext(
    const HttpRequest& request, uint64_t* parent_span) const {
  obs::TraceContext ctx;
  *parent_span = 0;
  if (!obs::ParseTraceparent(request.Header("traceparent"), &ctx)) {
    // Absent or malformed header: a fresh trace, head-sampled here.
    ctx.trace_id = obs::NewTraceId();
    ctx.sampled = sampler_.Sample(ctx.trace_id);
  } else {
    *parent_span = ctx.span_id;  // the caller's span becomes our parent
  }
  ctx.span_id = obs::NewSpanId();  // this request's root span
  return ctx;
}

HttpResponse ClassifyServer::HandleClassify(const HttpRequest& request) {
  const std::string tenant = TenantOf(request);
  auto job = std::make_shared<Job>();
  job->ctx = MakeRequestContext(request, &job->parent_span);
  const Result<QueryLang> lang =
      ParseQueryLang(QueryParam(request.query, "lang"));
  if (!lang.ok()) {
    HttpResponse resp;
    resp.status = 400;
    resp.content_type = kJsonType;
    resp.body = ErrorBody(lang.status());
    resp.extra_headers.push_back(
        {"traceparent", obs::FormatTraceparent(job->ctx)});
    CountRequest("/v1/classify", resp.status);
    return resp;
  }
  if (request.body.empty()) {
    HttpResponse resp;
    resp.status = 400;
    resp.content_type = kJsonType;
    resp.body = ReasonBody("empty body: expected one query text");
    resp.extra_headers.push_back(
        {"traceparent", obs::FormatTraceparent(job->ctx)});
    CountRequest("/v1/classify", resp.status);
    return resp;
  }
  job->kind = Job::Kind::kClassify;
  job->body = request.body;  // request outlives the wait, but keep it simple
  job->lang = lang.value();
  return Submit(std::move(job), tenant, "/v1/classify");
}

HttpResponse ClassifyServer::HandleIngest(const HttpRequest& request,
                                          bool full_report) {
  const char* route = full_report ? "/v1/log" : "/v1/classify_batch";
  const std::string tenant = TenantOf(request);
  const std::string format = QueryParam(request.query, "format", "plain");
  auto job = std::make_shared<Job>();
  job->ctx = MakeRequestContext(request, &job->parent_span);
  if (format == "plain") {
    job->format = ingest::LogFormat::kPlain;
  } else if (format == "tsv") {
    job->format = ingest::LogFormat::kTsv;
  } else {
    HttpResponse resp;
    resp.status = 400;
    resp.content_type = kJsonType;
    resp.body = ReasonBody("unknown format (want plain|tsv)");
    resp.extra_headers.push_back(
        {"traceparent", obs::FormatTraceparent(job->ctx)});
    CountRequest(route, resp.status);
    return resp;
  }
  job->kind = Job::Kind::kIngest;
  job->body = request.body;
  job->source_name = QueryParam(request.query, "source", "http");
  job->full_report = full_report;
  return Submit(std::move(job), tenant, route);
}

std::string ClassifyServer::StatuszJson() const {
  size_t depth = 0;
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
    drain = draining_;
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.StringField("service", "rwdt_serve");
  w.BoolField("draining", drain);
  w.UIntField("queue_depth", depth);
  w.UIntField("queue_capacity", options_.queue_capacity);
  w.UIntField("workers", options_.workers);
  w.UIntField("max_batch", options_.max_batch);
  w.BoolField("quotas_enabled", options_.quota_qps > 0);
  w.DoubleField("trace_sample_rate", options_.trace_sample_rate);
  if (slow_log_ != nullptr) {
    w.Key("slow_log").BeginObject();
    w.UIntField("capacity", options_.slow_log.capacity);
    w.UIntField("admitted", slow_log_->admitted());
    w.UIntField("evicted", slow_log_->evicted());
    w.EndObject();
  }
  if (http_ != nullptr) {
    w.Key("http").BeginObject();
    w.UIntField("requests_served", http_->requests_served());
    w.UIntField("connections_accepted", http_->connections_accepted());
    w.UIntField("connections_shed", http_->connections_shed());
    w.EndObject();
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    w.Key("tenants").BeginObject();
    for (const auto& [name, bucket] : tenants_) {
      w.DoubleField(name, bucket.tokens);
    }
    w.EndObject();
  }
  w.EndObject();
  return out;
}

HttpResponse ClassifyServer::HandleSlowz(const HttpRequest&) {
  HttpResponse resp;
  resp.content_type = kJsonType;
  // Point-in-time ranking of worst requests; a cached copy would mask
  // every later scrape.
  resp.extra_headers.push_back({"Cache-Control", "no-store"});
  if (slow_log_ == nullptr) {
    resp.status = 404;
    resp.body = ReasonBody("slow-query log disabled");
  } else {
    // A worker adds an entry after it answers the request, under its
    // slow_mu: taking each in turn waits out the entries of requests
    // already answered.
    for (const auto& worker : workers_) {
      const std::lock_guard<std::mutex> recorded(worker->slow_mu);
    }
    resp.body = slow_log_->ToJson();
  }
  CountRequest("/slowz", resp.status);
  return resp;
}

bool ClassifyServer::AdmitTenant(const std::string& tenant) {
  if (!(options_.quota_qps > 0)) return true;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto [it, inserted] = tenants_.try_emplace(tenant);
  TenantBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = options_.quota_burst;
    bucket.last_refill = now;
  } else {
    const double dt =
        std::chrono::duration<double>(now - bucket.last_refill).count();
    bucket.tokens += dt * options_.quota_qps;
    if (bucket.tokens > options_.quota_burst) {
      bucket.tokens = options_.quota_burst;
    }
    bucket.last_refill = now;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

HttpResponse ClassifyServer::ShedResponse(int status, const char* reason,
                                          const std::string& tenant,
                                          const char* route,
                                          const obs::TraceContext& ctx) {
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    auto key = std::make_pair(std::string(reason), tenant);
    auto it = shed_counters_.find(key);
    if (it == shed_counters_.end()) {
      obs::Counter* counter = obs::MetricRegistry::Global().GetCounter(
          "rwdt_serve_shed", "Requests shed, by reason and tenant",
          {{"reason", reason}, {"tenant", tenant}});
      it = shed_counters_.emplace(std::move(key), counter).first;
    }
    it->second->Increment();
  }
  // The trace id rides both the JSON body and the log line, so a client
  // reporting "my request was rejected" and this log line name the same
  // request — even though no worker ever saw it.
  RWDT_LOG(WARN) << "shed " << route << " " << status << " reason=" << reason
                 << " tenant=" << tenant
                 << " trace_id=" << obs::TraceIdHex(ctx.trace_id);
  HttpResponse resp;
  resp.status = status;
  resp.content_type = kJsonType;
  resp.body = ReasonBody(reason, ctx.trace_id);
  resp.extra_headers.push_back(
      {"Retry-After", std::to_string(options_.retry_after_s)});
  resp.extra_headers.push_back({"traceparent", obs::FormatTraceparent(ctx)});
  CountRequest(route, status);
  return resp;
}

void ClassifyServer::CountRequest(const char* route, int status) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  auto key = std::make_pair(std::string(route), status);
  auto it = request_counters_.find(key);
  if (it == request_counters_.end()) {
    obs::Counter* counter = obs::MetricRegistry::Global().GetCounter(
        "rwdt_serve_requests", "Requests handled, by route and status code",
        {{"route", route}, {"code", std::to_string(status)}});
    it = request_counters_.emplace(std::move(key), counter).first;
  }
  it->second->Increment();
}

HttpResponse ClassifyServer::Submit(std::shared_ptr<Job> job,
                                    const std::string& tenant,
                                    const char* route) {
  job->tenant = tenant;
  job->route = route;
  const uint64_t start_ns = obs::TraceNowNs();
  if (!AdmitTenant(tenant)) {
    return ShedResponse(429, "quota_exhausted", tenant, route, job->ctx);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_) {
      return ShedResponse(503, "draining", tenant, route, job->ctx);
    }
    if (queue_.size() >= options_.queue_capacity) {
      return ShedResponse(429, "queue_full", tenant, route, job->ctx);
    }
    job->enqueued = std::chrono::steady_clock::now();
    queue_.push_back(job);
    queue_depth_->Set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();

  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&] { return job->done; });
  // The request's root span: admission + queue + worker, named after
  // the route. Worker-side spans already recorded under job->ctx are
  // its children; the caller's span (if any) is its parent.
  obs::EmitSpanAs(job->ctx, job->parent_span, route, start_ns,
                  obs::TraceNowNs() - start_ns);
  job->response.extra_headers.push_back(
      {"traceparent", obs::FormatTraceparent(job->ctx)});
  CountRequest(route, job->response.status);
  return std::move(job->response);
}

void ClassifyServer::WorkerLoop(Worker* worker) {
  for (;;) {
    std::vector<std::shared_ptr<Job>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and fully drained
      while (!queue_.empty() && batch.size() < options_.max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    batch_size_->Observe(static_cast<double>(batch.size()));
    for (auto& job : batch) {
      const double wait_s = SecondsSince(job->enqueued);
      queue_wait_s_->Observe(wait_s);
      if (options_.debug_worker_delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.debug_worker_delay_ms));
      }
      const auto start = std::chrono::steady_clock::now();
      {
        // Adopt the request's trace context for the duration of the
        // job: spans recorded here (and inside ingest/engine) nest
        // under the request's root span. queue_wait is backdated to
        // the enqueue instant so the root span shows the full gap.
        obs::ScopedTraceContext scoped(job->ctx);
        obs::EmitSpan("queue_wait", SteadyNs(job->enqueued),
                      SteadyNs(start) - SteadyNs(job->enqueued));
        obs::Span span(job->kind == Job::Kind::kClassify ? "classify"
                                                         : "ingest");
        ProcessJob(worker, job.get());
      }
      const double proc_s = SecondsSince(start);
      if (job->ctx.sampled && job->ctx.trace_id != 0) {
        job_s_->ObserveWithExemplar(
            proc_s, {{"trace_id", obs::TraceIdHex(job->ctx.trace_id)}});
      } else {
        job_s_->Observe(proc_s);
      }
      std::optional<SlowQueryEntry> slow = SlowEntry(*job, wait_s, proc_s);
      // Held from before the client is woken until its entry is added,
      // so that /slowz waits for the entries of answered requests.
      std::unique_lock<std::mutex> recording(worker->slow_mu,
                                             std::defer_lock);
      if (slow.has_value()) recording.lock();
      {
        std::lock_guard<std::mutex> job_lock(job->mu);
        job->done = true;
      }
      job->cv.notify_one();
      if (slow.has_value()) RecordSlow(*job, std::move(*slow));
    }
  }
}

std::optional<SlowQueryEntry> ClassifyServer::SlowEntry(
    const Job& job, double queue_wait_s, double process_s) const {
  if (slow_log_ == nullptr) return std::nullopt;
  const double total_s = queue_wait_s + process_s;
  // WouldAdmit first: the explained plan is only generated for requests
  // that will actually be retained, so the common (fast) request pays
  // one mutexed scan of a <= capacity-sized vector and nothing else.
  if (!slow_log_->WouldAdmit(total_s)) return std::nullopt;
  SlowQueryEntry entry;
  entry.status = job.response.status;
  if (job.kind == Job::Kind::kClassify) entry.verdict_json = job.response.body;
  entry.queue_wait_s = queue_wait_s;
  entry.process_s = process_s;
  entry.total_s = total_s;
  return entry;
}

void ClassifyServer::RecordSlow(const Job& job, SlowQueryEntry entry) {
  entry.trace_id = job.ctx.trace_id;
  entry.route = job.route;
  entry.tenant = job.tenant;
  if (job.kind == Job::Kind::kClassify) {
    entry.lang = QueryLangName(job.lang);
    entry.query = job.body;
    if (job.verdict.has_value()) {
      entry.plan_json = ExplainPlanJson(job.body, *job.verdict);
    }
  } else {
    // Ingest jobs stream their body into the engine (it is gone by
    // now); the source name is the only per-request identity left.
    entry.query = job.source_name;
  }
  slow_log_->Add(std::move(entry));
}

std::string ClassifyServer::ExplainPlanJson(
    const std::string& text, const core::QueryVerdict& verdict) const {
  Interner dict;
  const Result<sparql::Query> query = sparql::ParseSparql(text, &dict);
  if (!query.ok()) return "";
  // Planned against an empty store: strategy dispatch depends only on
  // the classifier verdict (fragment, acyclicity, htw, shape), so the
  // explained plan names the same fragment /v1/classify certifies for
  // this text; only the cardinality-based join order would differ on
  // real data.
  const graph::TripleStore store;
  const exec::Executor executor(store, &dict);
  const Result<exec::Plan> plan = executor.MakePlan(query.value(), verdict);
  if (!plan.ok()) return "";
  return plan.value().ToJson();
}

void ClassifyServer::ProcessJob(Worker* worker, Job* job) {
  switch (job->kind) {
    case Job::Kind::kClassify: {
      core::QueryVerdict sparql_verdict;
      Result<std::string> verdict =
          ClassifyToJson(job->body, job->lang, core::LogStudyOptions{},
                         sparql::ParseLimits{}, &sparql_verdict);
      job->response.content_type = kJsonType;
      if (verdict.ok()) {
        job->response.body = std::move(verdict).value();
        if (job->lang == QueryLang::kSparql) {
          job->verdict = std::move(sparql_verdict);
        }
      } else {
        job->response.status = 422;  // well-formed HTTP, unparseable query
        job->response.body = ErrorBody(verdict.status());
      }
      return;
    }
    case Job::Kind::kIngest: {
      ingest::IngestOptions iopts;
      iopts.format = job->format;
      iopts.source_name = job->source_name;
      std::istringstream in(std::move(job->body));
      const Result<ingest::IngestReport> report =
          ingest::IngestStream(in, worker->engine.get(), iopts);
      job->response.content_type = kJsonType;
      if (report.ok()) {
        job->response.body = job->full_report
                                 ? report.value().ToJson()
                                 : StudyToJson(report.value().study);
      } else {
        job->response.status = 400;
        job->response.body = ErrorBody(report.status());
      }
      return;
    }
  }
}

}  // namespace rwdt::serve
