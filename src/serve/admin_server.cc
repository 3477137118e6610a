#include "serve/admin_server.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <utility>

#include "common/build_info.h"
#include "common/json.h"
#include "obs/log.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace rwdt::serve {
namespace {

/// The admin host's fixed HTTP settings (see AdminServer::Options).
constexpr unsigned kHandlerThreads = 2;
constexpr size_t kMaxPending = 64;
constexpr uint32_t kIoTimeoutMs = 5000;

constexpr const char* kJsonType = "application/json; charset=utf-8";

/// The /tracez cap on rendered events when ?limit= is absent: an
/// 8192-event ring per thread times a worker pool renders megabytes
/// otherwise.
constexpr size_t kDefaultTraceLimit = 5000;

/// ?limit= of /tracez: absent keeps `*limit`; otherwise the whole value
/// must be a decimal count ("0" = all). False for anything else ("abc",
/// "-1", "5x"), which /tracez answers with 400 rather than reading it as
/// "no cap".
bool ParseTraceLimit(const std::string& param, size_t* limit) {
  if (param.empty()) return true;
  const char* end = param.data() + param.size();
  const auto [ptr, ec] = std::from_chars(param.data(), end, *limit);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::vector<AdminRoute> AdminRoutes(AdminHooks hooks) {
  std::vector<AdminRoute> routes;
  routes.push_back(
      {"/metrics", "OpenMetrics exposition of every registry family",
       [](const HttpRequest&) {
         HttpResponse resp;
         resp.content_type =
             "application/openmetrics-text; version=1.0.0; charset=utf-8";
         resp.body = obs::MetricRegistry::Global().RenderOpenMetrics();
         return resp;
       }});
  routes.push_back({"/healthz", "liveness: 200 while the process runs",
                    [](const HttpRequest&) {
                      HttpResponse resp;
                      resp.body = "ok\n";
                      return resp;
                    }});
  routes.push_back(
      {"/readyz", "readiness: 200 while accepting work, 503 once draining",
       [ready = std::move(hooks.ready)](const HttpRequest&) {
         HttpResponse resp;
         if (ready == nullptr || ready()) {
           resp.body = "ready\n";
         } else {
           resp.status = 503;
           resp.body = "draining\n";
         }
         return resp;
       }});
  routes.push_back({"/statusz", "JSON status snapshot",
                    [statusz = std::move(hooks.statusz)](const HttpRequest&) {
                      HttpResponse resp;
                      resp.content_type = kJsonType;
                      resp.body = statusz != nullptr ? statusz() : "{}";
                      return resp;
                    }});
  routes.push_back(
      {"/tracez",
       "drains the active TraceCollector as Chrome trace JSON; ?limit=N "
       "caps rendered events (default 5000, 0 = all)",
       [](const HttpRequest& request) {
         HttpResponse resp;
         // A trace drain is a point-in-time snapshot; caching one would
         // hide every later scrape.
         resp.extra_headers.push_back({"Cache-Control", "no-store"});
         size_t limit = kDefaultTraceLimit;
         if (!ParseTraceLimit(QueryParam(request.query, "limit"), &limit)) {
           resp.status = 400;
           resp.body = "bad limit parameter (want a decimal count)\n";
           return resp;
         }
         std::string json;
         if (obs::DrainActiveTraceJson(&json, limit)) {
           resp.content_type = kJsonType;
           resp.body = std::move(json);
         } else {
           resp.status = 503;
           resp.body =
               "no active trace collector (set RWDT_TRACE or install one)\n";
         }
         return resp;
       }});
  routes.push_back({"/profilez",
                    "timed sampling CPU profile; ?seconds=N&hz=F"
                    "&format=collapsed|json (blocks for the capture)",
                    HandleProfilez});
  return routes;
}

AdminServer::AdminServer(Options options) : options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(std::string path, std::string help, Handler handler) {
  routes_[std::move(path)] = {std::move(help), std::move(handler)};
}

Status AdminServer::Start() {
  if (http_ != nullptr) {
    return Status::InvalidArgument("admin server already started");
  }
  HttpServer::Options hopts;
  hopts.bind_address = options_.bind_address;
  hopts.port = options_.port;
  hopts.handler_threads = kHandlerThreads;
  hopts.max_pending = kMaxPending;
  hopts.io_timeout_ms = kIoTimeoutMs;
  // Admin scrapes are one-shot ("read until EOF" clients like the CI
  // curl loop); keep the historical Connection: close contract.
  hopts.keep_alive = false;

  auto http = std::make_unique<HttpServer>(hopts);
  for (const auto& [path, route] : routes_) {
    http->Handle("GET", path, route.second);
  }
  const Handler index = [this](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", IndexBody(), {}};
  };
  http->Handle("GET", "/", index);
  http->Handle("GET", "/index", index);

  RWDT_RETURN_IF_ERROR(http->Start());
  http_ = std::move(http);
  proc_stats_ = std::make_unique<obs::ProcStatsCollector>();
  return Status::Ok();
}

void AdminServer::Stop() {
  if (http_ != nullptr) http_->Stop();
  proc_stats_.reset();
}

uint16_t AdminServer::port() const {
  return http_ == nullptr ? 0 : http_->port();
}

bool AdminServer::running() const {
  return http_ != nullptr && http_->running();
}

uint64_t AdminServer::requests_served() const {
  return http_ == nullptr ? 0 : http_->requests_served();
}

bool AdminServer::WaitForQuit(uint32_t timeout_ms) {
  if (http_ == nullptr) return false;
  return http_->WaitForQuit(timeout_ms);
}

std::string AdminServer::IndexBody() const {
  std::string out = "rwdt admin server — routes:\n";
  for (const auto& [path, route] : routes_) {
    out += "  " + path + "  —  " + route.first + "\n";
  }
  out += "  /quitquitquit  —  release WaitForQuit (linger) and return\n";
  return out;
}

uint32_t AdminPortFromEnv(uint32_t fallback) {
  const char* env = std::getenv("RWDT_ADMIN_PORT");
  if (env == nullptr || env[0] == '\0') return fallback;
  const unsigned long v = std::strtoul(env, nullptr, 10);
  if (v == 0) return fallback;  // "0" = explicit off, same as unset
  if (v > 65535) {
    RWDT_LOG(WARN) << "RWDT_ADMIN_PORT=" << env
                   << " is not a valid port; admin server stays off";
    return 0;
  }
  return static_cast<uint32_t>(v);
}

std::unique_ptr<AdminServer> StartEngineAdmin(
    uint16_t port, std::function<std::string()> metrics_json) {
  AdminServer::Options options;
  options.port = port;
  auto server = std::make_unique<AdminServer>(options);
  AdminHooks hooks;
  hooks.statusz = [metrics_json = std::move(metrics_json),
                   start_ns = obs::TraceNowNs()] {
    std::string out;
    JsonWriter w(&out);
    w.BeginObject();
    w.RawField("build", common::BuildInfo::Get().ToJson());
    w.DoubleField("uptime_seconds", (obs::TraceNowNs() - start_ns) / 1e9);
    w.RawField("metrics", metrics_json());
    w.EndObject();
    return out;
  };
  for (AdminRoute& route : AdminRoutes(std::move(hooks))) {
    server->Handle(std::move(route.path), std::move(route.help),
                   std::move(route.handler));
  }
  const Status started = server->Start();
  if (!started.ok()) {
    RWDT_LOG(ERROR) << "admin server disabled: " << started.ToString();
    return nullptr;
  }
  RWDT_LOG(INFO) << "admin server listening on " << options.bind_address
                 << ":" << server->port();
  return server;
}

std::unique_ptr<AdminServer> MaybeStartEnvAdmin(
    std::function<std::string()> metrics_json) {
  const uint32_t port = AdminPortFromEnv();
  if (port == 0) return nullptr;
  return StartEngineAdmin(static_cast<uint16_t>(port),
                          std::move(metrics_json));
}

HttpResponse HandleProfilez(const HttpRequest& request) {
  HttpResponse resp;
  resp.extra_headers.push_back({"Cache-Control", "no-store"});

  double seconds = 1.0;
  const std::string seconds_param = QueryParam(request.query, "seconds");
  if (!seconds_param.empty()) {
    seconds = std::strtod(seconds_param.c_str(), nullptr);
    if (!(seconds > 0)) {
      resp.status = 400;
      resp.body = "bad seconds parameter\n";
      return resp;
    }
  }
  seconds = std::min(std::max(seconds, 0.05), 60.0);

  obs::ProfileOptions options;
  const std::string hz_param = QueryParam(request.query, "hz");
  if (!hz_param.empty()) {
    options.hz = std::strtod(hz_param.c_str(), nullptr);
    if (!(options.hz > 0)) {
      resp.status = 400;
      resp.body = "bad hz parameter\n";
      return resp;
    }
  }

  const std::string format =
      QueryParam(request.query, "format", "collapsed");
  if (format != "collapsed" && format != "json") {
    resp.status = 400;
    resp.body = "format must be collapsed or json\n";
    return resp;
  }

  auto profile = obs::CaptureProfile(seconds, options);
  if (!profile.ok()) {
    resp.status = 503;
    resp.extra_headers.push_back({"Retry-After", "1"});
    resp.body = profile.error_message() + "\n";
    return resp;
  }
  if (format == "json") {
    resp.content_type = "application/json; charset=utf-8";
    resp.body = profile.value().ToJson();
  } else {
    resp.content_type = "text/plain; charset=utf-8";
    resp.body = profile.value().ToCollapsed();
  }
  return resp;
}

}  // namespace rwdt::serve
