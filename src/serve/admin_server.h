#ifndef RWDT_SERVE_ADMIN_SERVER_H_
#define RWDT_SERVE_ADMIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/proc_stats.h"
#include "serve/http_server.h"

namespace rwdt::serve {

/// What the shared admin routes read from the process that hosts them.
struct AdminHooks {
  /// /readyz: 200 "ready" while this returns true, 503 "draining" once
  /// it returns false. Null = always ready.
  std::function<bool()> ready;
  /// /statusz: the JSON body.
  std::function<std::string()> statusz;
};

/// One GET route: its path, its line on the "/" index page, its handler.
struct AdminRoute {
  std::string path;
  std::string help;
  HttpServer::Handler handler;
};

/// The admin routes, each implemented once, here: /metrics (every
/// registry family as OpenMetrics), /healthz, /readyz and /statusz (from
/// `hooks`), /tracez (the active TraceCollector as Chrome trace JSON;
/// ?limit=N caps the events rendered, default 5000, 0 = all, 400 when N
/// is not a decimal number) and /profilez (HandleProfilez). rwdt_serve
/// registers them on its front end; tools that run engines host them on
/// an AdminServer (StartEngineAdmin).
std::vector<AdminRoute> AdminRoutes(AdminHooks hooks);

/// In-process admin endpoints (/metrics, /healthz, ...) on top of
/// HttpServer. GET-only, one response per connection
/// (Connection: close), bound to loopback by default — admin endpoints
/// expose internals and must not face the open network. While it runs,
/// /metrics also carries the process footprint (rwdt_proc_*).
///
/// Lifecycle: construct, register routes with Handle(), Start(), and
/// eventually Stop() (or destroy). Stop is graceful: queued and
/// in-flight requests finish before the handler threads join, so
/// handlers must stay callable until Stop returns — owners stop the
/// server before tearing down anything a handler touches.
class AdminServer {
 public:
  /// Where to listen. The handler pool (2 threads), the pending-
  /// connection bound (64, shed with a 503 beyond it) and the socket
  /// timeout (5 s, which bounds how long a silent client pins a handler
  /// and so how long Stop() can block) are fixed.
  struct Options {
    std::string bind_address = "127.0.0.1";
    /// 0 = kernel-assigned ephemeral port (tests); read back via port().
    uint16_t port = 0;
  };

  using Handler = HttpServer::Handler;

  explicit AdminServer(Options options);
  ~AdminServer();  // implies Stop()

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers an exact-path GET route (before Start). `help` is shown
  /// on the generated "/" index page.
  void Handle(std::string path, std::string help, Handler handler);

  /// Binds, listens (SO_REUSEADDR), and spawns the accept thread and
  /// handler pool. Fails with kResourceExhausted if the address is
  /// taken.
  Status Start();

  /// Graceful shutdown: stops accepting, drains queued + in-flight
  /// requests, joins all threads. Idempotent; called by the destructor.
  void Stop();

  /// The bound port (resolves Options::port == 0), 0 before Start.
  uint16_t port() const;
  bool running() const;

  uint64_t requests_served() const;

  /// Blocks until GET /quitquitquit is served (a built-in route), Stop()
  /// runs, or `timeout_ms` elapses. Lets a CLI keep its admin endpoints
  /// alive after the workload finishes ("linger") with a remote,
  /// deterministic way to release it. Returns true if quit/stop arrived.
  bool WaitForQuit(uint32_t timeout_ms);

 private:
  std::string IndexBody() const;

  Options options_;
  std::map<std::string, std::pair<std::string, Handler>> routes_;
  std::unique_ptr<HttpServer> http_;
  /// rwdt_proc_* gauges while the server runs (inert if another
  /// subsystem, e.g. a serve front end, installed them first).
  std::unique_ptr<obs::ProcStatsCollector> proc_stats_;
};

/// Parses the RWDT_ADMIN_PORT environment variable: unset, empty, or
/// "0" yield `fallback` (admin off). Values above 65535 are clamped to
/// 0 with a warning.
uint32_t AdminPortFromEnv(uint32_t fallback = 0);

/// The admin host of a tool that runs engines: an AdminServer on
/// loopback `port` (0 = kernel-assigned) serving AdminRoutes, always
/// ready, whose /statusz renders build info, uptime and, under
/// "metrics", the JSON object `metrics_json()` returns (an engine's
/// `Snapshot().ToJson()`). Returns null when the bind fails — logged,
/// never fatal: a tool must not die because a port was taken.
/// `metrics_json` must stay callable until the server is destroyed, so
/// the server is destroyed before the engine it reads.
std::unique_ptr<AdminServer> StartEngineAdmin(
    uint16_t port, std::function<std::string()> metrics_json);

/// The env-driven admin hook every engine tool shares, next to
/// MaybeStartEnvProfile: StartEngineAdmin on RWDT_ADMIN_PORT when it
/// names a port; null (no thread, no socket) otherwise.
std::unique_ptr<AdminServer> MaybeStartEnvAdmin(
    std::function<std::string()> metrics_json);

/// The GET /profilez handler: parses `seconds` (default 1, clamped to
/// [0.05, 60]), `hz` (default 99), and `format` ("collapsed" | "json")
/// from the query string, runs a blocking timed capture
/// (obs::CaptureProfile), and renders it. Responses carry
/// Cache-Control: no-store — a profile is a point-in-time capture.
HttpResponse HandleProfilez(const HttpRequest& request);

}  // namespace rwdt::serve

#endif  // RWDT_SERVE_ADMIN_SERVER_H_
