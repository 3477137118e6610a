// Loopback tests for the admin HTTP server and the shared admin routes
// a tool hosts next to its engine: every route, error handling, and
// graceful shutdown with a request in flight.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/interner.h"
#include "engine/engine.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/admin_server.h"
#include "tree/json.h"

namespace rwdt::serve {
namespace {

struct HttpResult {
  int status = 0;
  std::string body;
  std::string raw;
};

/// Minimal blocking HTTP/1.1 GET over a raw loopback socket — the tests
/// deliberately avoid any client library so they exercise exactly the
/// bytes a curl or Prometheus scrape would send.
HttpResult HttpGet(uint16_t port, const std::string& path,
                   const std::string& method = "GET") {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  char buf[4096];
  for (;;) {  // Connection: close — read until EOF
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    result.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (result.raw.compare(0, 9, "HTTP/1.1 ") == 0) {
    result.status = std::atoi(result.raw.c_str() + 9);
  }
  const size_t split = result.raw.find("\r\n\r\n");
  if (split != std::string::npos) result.body = result.raw.substr(split + 4);
  return result;
}

TEST(AdminServerTest, RoutesAndErrors) {
  AdminServer::Options opts;  // port 0 = ephemeral
  AdminServer server(opts);
  server.Handle("/hello", "greeting", [](const HttpRequest& req) {
    HttpResponse resp;
    resp.body = "hi " + req.query;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  EXPECT_EQ(HttpGet(server.port(), "/hello?who=tests").body, "hi who=tests");
  EXPECT_EQ(HttpGet(server.port(), "/nope").status, 404);
  EXPECT_EQ(HttpGet(server.port(), "/hello", "POST").status, 405);
  // The index page lists registered routes with their help strings.
  const HttpResult index = HttpGet(server.port(), "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/hello"), std::string::npos);
  EXPECT_NE(index.body.find("greeting"), std::string::npos);
  // Stop() joins the handler pool, so the served count is final here;
  // asserting before Stop() races the post-response counter increment.
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.requests_served(), 4u);
}

TEST(AdminServerTest, GracefulStopDrainsInFlightRequest) {
  std::atomic<bool> entered{false};
  AdminServer::Options opts;
  AdminServer server(opts);
  server.Handle("/slow", "sleeps", [&](const HttpRequest&) {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    HttpResponse resp;
    resp.body = "slow done";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  HttpResult result;
  std::thread client(
      [&] { result = HttpGet(server.port(), "/slow"); });
  while (!entered.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.Stop();  // must wait for the in-flight handler, not kill it
  client.join();
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "slow done");
}

TEST(AdminServerTest, QuitQuitQuitReleasesWaiter) {
  AdminServer server(AdminServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.WaitForQuit(/*timeout_ms=*/10));  // times out quietly
  std::thread quitter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    HttpGet(server.port(), "/quitquitquit");
  });
  EXPECT_TRUE(server.WaitForQuit(/*timeout_ms=*/5000));
  quitter.join();
}

TEST(AdminServerTest, PortFromEnv) {
  ::unsetenv("RWDT_ADMIN_PORT");
  EXPECT_EQ(AdminPortFromEnv(), 0u);
  EXPECT_EQ(AdminPortFromEnv(1234), 1234u);
  ::setenv("RWDT_ADMIN_PORT", "9464", 1);
  EXPECT_EQ(AdminPortFromEnv(), 9464u);
  ::setenv("RWDT_ADMIN_PORT", "0", 1);
  EXPECT_EQ(AdminPortFromEnv(7), 7u);
  ::setenv("RWDT_ADMIN_PORT", "123456", 1);  // out of range -> off
  EXPECT_EQ(AdminPortFromEnv(), 0u);
  ::unsetenv("RWDT_ADMIN_PORT");
}

/// The /statusz hook a tool hands its admin host: the engine's metrics
/// as JSON.
std::function<std::string()> MetricsJson(const engine::Engine& eng) {
  return [&eng] { return eng.Snapshot().ToJson(); };
}

/// End-to-end: the tool-side host of an engine (StartEngineAdmin on an
/// ephemeral port) serves every shared route, and /metrics agrees with
/// the engine's final Metrics snapshot.
TEST(AdminServerTest, EngineEndToEnd) {
  obs::TraceCollector trace;  // makes /tracez live

  engine::EngineOptions opts;
  opts.threads = 2;
  engine::Engine eng(opts);
  const auto admin = StartEngineAdmin(0, MetricsJson(eng));
  ASSERT_NE(admin, nullptr);
  const uint16_t port = admin->port();
  ASSERT_NE(port, 0);

  loggen::SourceProfile profile = loggen::ExampleProfile(3000);
  profile.name = "admin-e2e";
  eng.AnalyzeLog(profile, 7);
  const engine::Metrics snap = eng.Snapshot();

  EXPECT_EQ(HttpGet(port, "/healthz").body, "ok\n");
  EXPECT_EQ(HttpGet(port, "/readyz").status, 200);

  const HttpResult metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.raw.find("application/openmetrics-text"),
            std::string::npos);
  // The engine's series must agree with the snapshot totals. The
  // engine label is a process-wide ordinal, so match on suffix.
  auto expect_value = [&](const std::string& prefix, uint64_t value) {
    const size_t at = metrics.body.find(prefix);
    ASSERT_NE(at, std::string::npos) << prefix << "\nin:\n" << metrics.body;
    const size_t space = metrics.body.find(' ', at);
    ASSERT_NE(space, std::string::npos);
    EXPECT_EQ(std::strtoull(metrics.body.c_str() + space + 1, nullptr, 10),
              value)
        << prefix;
  };
  expect_value("rwdt_engine_entries_total", snap.entries_processed);
  expect_value("rwdt_engine_queries_analyzed_total", snap.queries_analyzed);
  expect_value("rwdt_engine_parse_failures_total", snap.parse_failures);
  EXPECT_NE(metrics.body.find("rwdt_engine_stage_latency_ns_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.body.rfind("# EOF\n"), std::string::npos);

  // /statusz and /tracez must both be valid JSON.
  Interner dict;
  const HttpResult statusz = HttpGet(port, "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_TRUE(tree::ParseJson(statusz.body, &dict).ok()) << statusz.body;
  EXPECT_NE(statusz.body.find("\"build\""), std::string::npos);
  EXPECT_NE(statusz.body.find("\"uptime_seconds\""), std::string::npos);

  const HttpResult tracez = HttpGet(port, "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_TRUE(tree::ParseJson(tracez.body, &dict).ok());
  // Point-in-time diagnostics: explicit charset, never cacheable.
  EXPECT_NE(tracez.raw.find("Content-Type: application/json; charset=utf-8"),
            std::string::npos)
      << tracez.raw;
  EXPECT_NE(tracez.raw.find("Cache-Control: no-store"), std::string::npos)
      << tracez.raw;

  // /metrics exposes the process footprint via the admin server's
  // ProcStatsCollector (Linux: sampled from /proc at scrape time).
#if defined(__linux__)
  EXPECT_NE(metrics.body.find("rwdt_proc_resident_bytes"), std::string::npos);
  EXPECT_NE(metrics.body.find("rwdt_proc_cpu_seconds"), std::string::npos);
#endif
  // And the engine's occupancy gauges ride the same scrape.
  EXPECT_NE(metrics.body.find("rwdt_engine_interner_bytes"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("rwdt_engine_dedup_entries"),
            std::string::npos);

  // /profilez mounts on the tool-side host too; parameter errors are 400s
  // without starting a capture (the capture path itself is covered by
  // obs_profiler_test and serve_test).
  EXPECT_EQ(HttpGet(port, "/profilez?format=xml").status, 400);
}

TEST(AdminServerTest, TracezWithoutCollectorIs503) {
  engine::EngineOptions opts;
  opts.threads = 1;
  engine::Engine eng(opts);
  const auto admin = StartEngineAdmin(0, MetricsJson(eng));
  ASSERT_NE(admin, nullptr);
  EXPECT_EQ(HttpGet(admin->port(), "/tracez").status, 503);
}

/// ?limit= must be a decimal count: garbage is a 400, never "no cap".
TEST(AdminServerTest, TracezRejectsLimitThatIsNotADecimalCount) {
  obs::TraceCollector trace;
  engine::EngineOptions opts;
  opts.threads = 1;
  engine::Engine eng(opts);
  const auto admin = StartEngineAdmin(0, MetricsJson(eng));
  ASSERT_NE(admin, nullptr);
  loggen::SourceProfile profile = loggen::ExampleProfile(300);
  profile.name = "tracez-limit";
  eng.AnalyzeLog(profile, 5);  // records spans
  for (const char* bad : {"abc", "-1", "2x", "+2", "%202", "1e3",
                          "99999999999999999999999"}) {
    const HttpResult result =
        HttpGet(admin->port(), std::string("/tracez?limit=") + bad);
    EXPECT_EQ(result.status, 400) << bad;
    EXPECT_NE(result.raw.find("Cache-Control: no-store"), std::string::npos)
        << bad;
  }
  const HttpResult capped = HttpGet(admin->port(), "/tracez?limit=2");
  ASSERT_EQ(capped.status, 200);
  EXPECT_NE(capped.body.find("\"events_shown\":2"), std::string::npos)
      << capped.body.substr(0, 400);
  EXPECT_EQ(HttpGet(admin->port(), "/tracez?limit=0").status, 200);
}

TEST(AdminServerTest, AdminOffByDefaultAndBindFailureIsNonFatal) {
  ::unsetenv("RWDT_ADMIN_PORT");
  engine::EngineOptions opts;
  opts.threads = 1;
  engine::Engine eng(opts);
  EXPECT_TRUE(MaybeStartEnvAdmin(MetricsJson(eng)) == nullptr);

  // A second admin server on a port that is taken fails Start(); the
  // engine beside it still analyzes.
  const auto first = StartEngineAdmin(0, MetricsJson(eng));
  ASSERT_NE(first, nullptr);
  AdminServer::Options clash;
  clash.port = first->port();
  AdminServer second(clash);
  for (AdminRoute& route : AdminRoutes({})) {
    second.Handle(route.path, route.help, route.handler);
  }
  EXPECT_FALSE(second.Start().ok());
  EXPECT_FALSE(second.running());
  EXPECT_TRUE(StartEngineAdmin(first->port(), MetricsJson(eng)) == nullptr);
  loggen::SourceProfile profile = loggen::ExampleProfile(200);
  profile.name = "clash";
  EXPECT_GT(eng.AnalyzeLog(profile, 3).total, 0u);
  EXPECT_EQ(HttpGet(first->port(), "/healthz").body, "ok\n");
}

}  // namespace
}  // namespace rwdt::serve
