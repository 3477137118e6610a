// Loopback integration tests for serve::ClassifyServer: golden verdicts
// for all three query languages, batch/direct bit-identical aggregates,
// overload shedding with 429 + Retry-After, per-tenant quotas, and
// graceful drain. All traffic goes over real sockets.

#include "serve/serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/max_depth.h"
#include "depth_ladders.h"
#include "ingest/ingest.h"
#include "loggen/sparql_gen.h"
#include "serve/verdict.h"

namespace rwdt::serve {
namespace {

struct HttpResult {
  int status = 0;
  std::string head;
  std::string body;
};

/// One-shot request (Connection: close), response read to EOF. Keeps
/// the client trivially correct; keep-alive is covered by
/// serve_http_test.
HttpResult Fetch(uint16_t port, const std::string& method,
                 const std::string& target, const std::string& body = "",
                 const std::string& extra_headers = "") {
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
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: t\r\n" +
                        extra_headers + "Connection: close\r\n" +
                        "Content-Length: " + std::to_string(body.size()) +
                        "\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return result;
  result.head = raw.substr(0, split);
  result.body = raw.substr(split + 4);
  if (result.head.compare(0, 9, "HTTP/1.1 ") == 0) {
    result.status = std::atoi(result.head.c_str() + 9);
  }
  return result;
}

ServeOptions BaseOptions() {
  ServeOptions opts;
  opts.http.port = 0;
  opts.http.handler_threads = 4;
  opts.workers = 2;
  return opts;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(ClassifyServerTest, SparqlGoldenVerdict) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  const HttpResult r =
      Fetch(server.port(), "POST", "/v1/classify",
            "SELECT ?s WHERE { ?s <p> <o> . FILTER(?s > 3) }");
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"lang\":\"sparql\"")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"valid\":true")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"form\":\"select\"")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"fragment\":\"cq_f\"")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"well_designed\":true")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"free_connex_acyclic\":true")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"htw_le\":1")) << r.body;
}

TEST(ClassifyServerTest, PathAndXPathVerdicts) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  const HttpResult path =
      Fetch(server.port(), "POST", "/v1/classify?lang=path", "a/(b|c)*");
  ASSERT_EQ(path.status, 200) << path.body;
  EXPECT_TRUE(Contains(path.body, "\"lang\":\"path\"")) << path.body;
  EXPECT_TRUE(Contains(path.body, "\"canonical_type\"")) << path.body;
  EXPECT_TRUE(Contains(path.body, "\"ctract\":true")) << path.body;

  const HttpResult xp = Fetch(server.port(), "POST",
                              "/v1/classify?lang=xpath", "/a/b[c]//d");
  ASSERT_EQ(xp.status, 200) << xp.body;
  EXPECT_TRUE(Contains(xp.body, "\"lang\":\"xpath\"")) << xp.body;
  EXPECT_TRUE(Contains(xp.body, "\"positive\":true")) << xp.body;
  EXPECT_TRUE(Contains(xp.body, "\"downward\":true")) << xp.body;
}

TEST(ClassifyServerTest, UnparseableQueryIs422WithTaxonomyClass) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  const HttpResult r =
      Fetch(server.port(), "POST", "/v1/classify", "SELECT bogus (((");
  EXPECT_EQ(r.status, 422);
  EXPECT_TRUE(Contains(r.body, "\"valid\":false")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"error_class\"")) << r.body;
}

TEST(ClassifyServerTest, DeeplyNestedQueryIs422AndServerStaysUp) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  // 12,000 nested groups: about 24 KB, far below every byte limit, and
  // deep enough to overflow the stack of an unbounded recursive parser.
  const std::string query = "SELECT * WHERE " + std::string(12000, '{') +
                            std::string(12000, '}');
  const HttpResult r = Fetch(server.port(), "POST", "/v1/classify", query);
  EXPECT_EQ(r.status, 422) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"valid\":false")) << r.body;
  EXPECT_TRUE(Contains(r.body, "resource_exhausted")) << r.body;
  EXPECT_EQ(Fetch(server.port(), "GET", "/healthz").status, 200);
}

TEST(ClassifyServerTest, DeeplyNestedXPathIs422AndServerStaysUp) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  // a[a[...a[b]...]] with 5,000 predicates: about 15 KB.
  std::string query;
  for (int i = 0; i < 5000; ++i) query += "a[";
  query += "b" + std::string(5000, ']');
  const HttpResult r =
      Fetch(server.port(), "POST", "/v1/classify?lang=xpath", query);
  EXPECT_EQ(r.status, 422) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"valid\":false")) << r.body;
  EXPECT_TRUE(Contains(r.body, "resource_exhausted")) << r.body;
  EXPECT_EQ(Fetch(server.port(), "GET", "/healthz").status, 200);
}

TEST(ClassifyServerTest, BadLangAndEmptyBodyAre400) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Fetch(server.port(), "POST", "/v1/classify?lang=sql", "x").status,
            400);
  EXPECT_EQ(Fetch(server.port(), "POST", "/v1/classify", "").status, 400);
  EXPECT_EQ(
      Fetch(server.port(), "POST", "/v1/classify_batch?format=csv", "x")
          .status,
      400);
}

TEST(ClassifyServerTest, OversizedBodyIs413) {
  ServeOptions opts = BaseOptions();
  opts.http.max_body_bytes = 128;
  ClassifyServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  const HttpResult r = Fetch(server.port(), "POST", "/v1/classify",
                             std::string(4096, 'q'));
  EXPECT_EQ(r.status, 413);
}

// The acceptance criterion of this subsystem: aggregates computed
// through the HTTP batch route are byte-identical to a direct
// EngineStream run over the same log. String equality on the rendered
// SourceStudy JSON implies bit-identical aggregates underneath.
TEST(ClassifyServerTest, BatchAggregatesMatchDirectEngineRunExactly) {
  std::string log_text;
  for (const auto& entry :
       loggen::GenerateLog(loggen::ExampleProfile(300), /*seed=*/7)) {
    log_text += entry.text;
    log_text += '\n';
  }
  // Guarantee the error-taxonomy path is exercised regardless of the
  // generator's invalid ratio.
  log_text += "SELECT bogus (((\n";
  log_text += "}} not sparql at all\n";

  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  const HttpResult via_http =
      Fetch(server.port(), "POST", "/v1/classify_batch?format=plain",
            log_text);
  ASSERT_EQ(via_http.status, 200) << via_http.body;

  // Direct run, mirroring the serve worker's engine configuration.
  engine::EngineOptions eopts;
  eopts.threads = 1;
  engine::Engine engine(eopts);
  ingest::IngestOptions iopts;
  iopts.format = ingest::LogFormat::kPlain;
  iopts.source_name = "http";
  std::istringstream in(log_text);
  const Result<ingest::IngestReport> direct =
      ingest::IngestStream(in, &engine, iopts);
  ASSERT_TRUE(direct.ok()) << direct.status().message();

  EXPECT_EQ(via_http.body, StudyToJson(direct.value().study));
  // And the batch actually exercised the error taxonomy + dedup paths.
  EXPECT_GT(direct.value().study.valid, 0u);
  EXPECT_LT(direct.value().study.valid, direct.value().study.total);
}

TEST(ClassifyServerTest, LogRouteReportsPerSourceForTsv) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  const std::string tsv =
      "alpha\tSELECT ?s WHERE { ?s <p> <o> }\n"
      "alpha\tASK { ?a <b> ?c }\n"
      "beta\tSELECT ?x WHERE { ?x <y> <z> }\n";
  const HttpResult r =
      Fetch(server.port(), "POST", "/v1/log?format=tsv&source=mixed", tsv);
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"per_source\"")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"alpha\":2")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"beta\":1")) << r.body;
  EXPECT_TRUE(Contains(r.body, "\"name\":\"mixed\"")) << r.body;
}

// Induced overload: one slow worker, a queue of 1, and a burst of
// concurrent requests. Some must be shed with 429 + Retry-After; every
// request gets an HTTP response; the process stays healthy throughout.
TEST(ClassifyServerTest, OverloadSheds429AndStaysHealthy) {
  ServeOptions opts = BaseOptions();
  opts.workers = 1;
  opts.max_batch = 1;
  opts.queue_capacity = 1;
  opts.debug_worker_delay_ms = 150;
  opts.http.handler_threads = 8;
  ClassifyServer server(opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kBurst = 6;
  std::vector<HttpResult> results(kBurst);
  std::vector<std::thread> clients;
  for (int i = 0; i < kBurst; ++i) {
    clients.emplace_back([&, i] {
      results[i] = Fetch(server.port(), "POST", "/v1/classify",
                         "SELECT ?s WHERE { ?s <p> <o> }");
    });
  }
  // The data plane may be saturated; the control plane must not be.
  const HttpResult health = Fetch(server.port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  for (auto& t : clients) t.join();

  int ok = 0, shed = 0;
  for (const HttpResult& r : results) {
    ASSERT_TRUE(r.status == 200 || r.status == 429)
        << "unexpected status " << r.status << ": " << r.body;
    if (r.status == 200) ok++;
    if (r.status == 429) {
      shed++;
      EXPECT_TRUE(Contains(r.head, "Retry-After:")) << r.head;
      EXPECT_TRUE(Contains(r.body, "queue_full")) << r.body;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(ok + shed, kBurst);  // nothing dropped silently
}

TEST(ClassifyServerTest, PerTenantQuotaExhaustsIndependently) {
  ServeOptions opts = BaseOptions();
  opts.quota_qps = 0.001;  // effectively no refill within the test
  opts.quota_burst = 2;
  ClassifyServer server(opts);
  ASSERT_TRUE(server.Start().ok());

  const std::string query = "SELECT ?s WHERE { ?s <p> <o> }";
  // Tenant A: burst of 2 admitted, third shed.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Fetch(server.port(), "POST", "/v1/classify", query,
                    "X-Tenant: alice\r\n")
                  .status,
              200);
  }
  const HttpResult shed = Fetch(server.port(), "POST", "/v1/classify", query,
                                "X-Tenant: alice\r\n");
  EXPECT_EQ(shed.status, 429);
  EXPECT_TRUE(Contains(shed.body, "quota_exhausted")) << shed.body;
  EXPECT_TRUE(Contains(shed.head, "Retry-After:")) << shed.head;

  // Tenant B is unaffected by A's exhaustion.
  EXPECT_EQ(Fetch(server.port(), "POST", "/v1/classify", query,
                  "X-Tenant: bob\r\n")
                .status,
            200);
}

// Drain protocol: accepted work finishes, new work is refused with 503,
// /readyz flips so load balancers eject the task before the listener
// goes away.
TEST(ClassifyServerTest, GracefulDrainFinishesAcceptedWork) {
  ServeOptions opts = BaseOptions();
  opts.workers = 1;
  opts.max_batch = 1;
  opts.debug_worker_delay_ms = 100;
  ClassifyServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Fetch(server.port(), "GET", "/readyz").status, 200);

  constexpr int kInFlight = 3;
  std::vector<HttpResult> results(kInFlight);
  std::vector<std::thread> clients;
  for (int i = 0; i < kInFlight; ++i) {
    clients.emplace_back([&, i] {
      results[i] = Fetch(server.port(), "POST", "/v1/classify",
                         "SELECT ?s WHERE { ?s <p> <o> }");
    });
  }
  // Let the burst get accepted into the queue, then start draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.BeginDrain();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(Fetch(server.port(), "GET", "/readyz").status, 503);

  const HttpResult refused = Fetch(server.port(), "POST", "/v1/classify",
                                   "SELECT ?s WHERE { ?s <p> <o> }");
  EXPECT_EQ(refused.status, 503);
  EXPECT_TRUE(Contains(refused.body, "draining")) << refused.body;

  server.Stop();  // waits for the queue to empty and workers to finish
  for (auto& t : clients) t.join();
  for (const HttpResult& r : results) {
    EXPECT_EQ(r.status, 200) << r.body;  // accepted work was completed
  }
}

TEST(ClassifyServerTest, MetricsAndStatuszExposeServingState) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(Fetch(server.port(), "POST", "/v1/classify",
                  "SELECT ?s WHERE { ?s <p> <o> }")
                .status,
            200);

  const HttpResult metrics = Fetch(server.port(), "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_TRUE(Contains(metrics.head, "application/openmetrics-text"))
      << metrics.head;
  EXPECT_TRUE(Contains(metrics.body, "rwdt_serve_requests_total"))
      << "missing request counters";
  EXPECT_TRUE(Contains(metrics.body, "rwdt_serve_queue_depth"));
  EXPECT_TRUE(Contains(metrics.body, "rwdt_serve_queue_wait_seconds_bucket"));
  EXPECT_TRUE(Contains(metrics.body, "rwdt_serve_batch_size_count"));
  EXPECT_TRUE(Contains(metrics.body, "rwdt_serve_connections_total"));

  const HttpResult statusz = Fetch(server.port(), "GET", "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_TRUE(Contains(statusz.body, "\"queue_capacity\":256"))
      << statusz.body;
  EXPECT_TRUE(Contains(statusz.body, "\"draining\":false")) << statusz.body;
}

TEST(ClassifyServerTest, ValidateRejectsNonsense) {
  ServeOptions opts = BaseOptions();
  opts.queue_capacity = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.workers = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.quota_qps = 5;
  opts.quota_burst = 0;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.trace_sample_rate = 1.5;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.enable_slow_log = true;
  opts.slow_log.capacity = 0;
  EXPECT_FALSE(opts.Validate().ok());
}

// Thread counts are capped as the engine's are: a worker count or
// handler pool of UINT_MAX (what "-1" read with atoi used to become) is
// refused before anything starts.
TEST(ClassifyServerTest, ValidateCapsWorkersAndHandlerThreads) {
  ServeOptions opts = BaseOptions();
  opts.workers = UINT_MAX;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.http.handler_threads = UINT_MAX;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.workers = 4097;
  EXPECT_FALSE(opts.Validate().ok());
  opts = BaseOptions();
  opts.workers = 4096;
  opts.http.handler_threads = 4096;
  EXPECT_TRUE(opts.Validate().ok());
}

// The XPath depth ladder at the deepest text the parser accepts (its
// parse and evaluate half is xpath_test's
// XPathTest.QueryAtMaxDepthParsesClassifiesAndEvaluates): the service's
// classifier takes it and finds it downward.
TEST(ClassifyToJsonTest, XPathAtMaxDepthIsDownward) {
  for (const ladders::Nesting& nesting : ladders::XPathNestings()) {
    const std::string text = nesting.text(kDefaultMaxDepth - nesting.base);
    const auto json = ClassifyToJson(text, QueryLang::kXPath,
                                     core::LogStudyOptions{},
                                     sparql::ParseLimits{});
    ASSERT_TRUE(json.ok()) << nesting.name << ": "
                           << json.status().ToString();
    EXPECT_NE(json.value().find("\"downward\":true"), std::string::npos)
        << json.value();
  }
}

// ---------------------------------------------------------------------
// SlowQueryLog (tail sampler) unit behavior

SlowQueryEntry TimedEntry(double total_s) {
  SlowQueryEntry e;
  e.route = "/v1/classify";
  e.total_s = total_s;
  return e;
}

TEST(SlowQueryLogTest, EvictsFastestAndSnapshotsSlowestFirst) {
  SlowLogOptions opts;
  opts.capacity = 3;
  opts.window_s = 0;  // no expiry: eviction order only
  SlowQueryLog log(opts);

  EXPECT_TRUE(log.WouldAdmit(0.001));  // not yet full: everything admits
  EXPECT_TRUE(log.Add(TimedEntry(1.0)));
  EXPECT_TRUE(log.Add(TimedEntry(5.0)));
  EXPECT_TRUE(log.Add(TimedEntry(3.0)));

  // Full. A slower entry evicts the fastest retained one (1.0)...
  EXPECT_TRUE(log.WouldAdmit(2.0));
  EXPECT_TRUE(log.Add(TimedEntry(2.0)));
  // ...but anything not beating the current fastest (now 2.0) bounces.
  EXPECT_FALSE(log.WouldAdmit(2.0));  // ties lose: must beat, not match
  EXPECT_FALSE(log.Add(TimedEntry(0.5)));

  const std::vector<SlowQueryEntry> got = log.Snapshot();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0].total_s, 5.0);  // slowest first
  EXPECT_DOUBLE_EQ(got[1].total_s, 3.0);
  EXPECT_DOUBLE_EQ(got[2].total_s, 2.0);
  EXPECT_EQ(log.admitted(), 4u);
  EXPECT_EQ(log.evicted(), 1u);
}

TEST(SlowQueryLogTest, TruncatesStoredQueryText) {
  SlowLogOptions opts;
  opts.capacity = 2;
  opts.max_query_bytes = 8;
  SlowQueryLog log(opts);
  SlowQueryEntry e = TimedEntry(1.0);
  e.query = "SELECT * WHERE { ?s ?p ?o }";
  ASSERT_TRUE(log.Add(std::move(e)));
  const auto got = log.Snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].query, "SELECT *");
  EXPECT_TRUE(got[0].query_truncated);
  EXPECT_TRUE(Contains(log.ToJson(), "\"query_truncated\":true"));
}

// ---------------------------------------------------------------------
// Request tracing end to end

TEST(ClassifyServerTest, TraceparentRoundTripsAndMalformedGetsFreshTrace) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  const std::string query = "SELECT ?s WHERE { ?s <p> <o> }";

  // A valid inbound traceparent: the response echoes the same trace id.
  const HttpResult r = Fetch(
      server.port(), "POST", "/v1/classify", query,
      "traceparent: 00-0000000000000000deadbeefcafef00d-0123456789abcdef-01"
      "\r\n");
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_TRUE(Contains(r.head, "traceparent: 00-0000000000000000deadbeefcafe"
                               "f00d-"))
      << r.head;
  // The responded span id is the server's root span, not the caller's.
  EXPECT_FALSE(Contains(r.head, "-0123456789abcdef-")) << r.head;

  // Malformed traceparent: the request is still served, under a fresh
  // (nonzero, different) trace id.
  const HttpResult bad = Fetch(server.port(), "POST", "/v1/classify", query,
                               "traceparent: hello-world\r\n");
  ASSERT_EQ(bad.status, 200) << bad.body;
  const size_t at = bad.head.find("traceparent: 00-");
  ASSERT_NE(at, std::string::npos) << bad.head;
  const std::string trace_hex = bad.head.substr(at + 16, 32);
  EXPECT_EQ(trace_hex.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_NE(trace_hex, "0000000000000000deadbeefcafef00d");
  EXPECT_NE(trace_hex, "00000000000000000000000000000000");
}

TEST(ClassifyServerTest, ShedResponsesCarryTheTraceId) {
  ServeOptions opts = BaseOptions();
  opts.quota_qps = 0.001;
  opts.quota_burst = 1;
  ClassifyServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  const std::string query = "SELECT ?s WHERE { ?s <p> <o> }";
  const std::string tp =
      "traceparent: 00-0000000000000000deadbeefcafef00d-0123456789abcdef-01"
      "\r\n";
  ASSERT_EQ(Fetch(server.port(), "POST", "/v1/classify", query, tp).status,
            200);
  const HttpResult shed =
      Fetch(server.port(), "POST", "/v1/classify", query, tp);
  ASSERT_EQ(shed.status, 429);
  // The rejected request is still reportable: its trace id is in the
  // JSON body and on the response's traceparent header.
  EXPECT_TRUE(Contains(shed.body, "\"error\":\"quota_exhausted\""))
      << shed.body;
  EXPECT_TRUE(Contains(shed.body, "\"trace_id\":\"deadbeefcafef00d\""))
      << shed.body;
  EXPECT_TRUE(Contains(shed.head, "traceparent: 00-0000000000000000deadbeef"))
      << shed.head;

  // Drain sheds are tagged the same way (fresh tenant: the quota check
  // runs before the drain check, and this tenant still has budget).
  server.BeginDrain();
  const HttpResult drained = Fetch(server.port(), "POST", "/v1/classify",
                                   query, "X-Tenant: other\r\n" + tp);
  ASSERT_EQ(drained.status, 503);
  EXPECT_TRUE(Contains(drained.body, "\"trace_id\":\"deadbeefcafef00d\""))
      << drained.body;
}

TEST(ClassifyServerTest, SlowzServesEntriesWithVerdictPlanAndTraceId) {
  ServeOptions opts = BaseOptions();
  opts.slow_log.capacity = 4;
  ClassifyServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  const std::string query = "SELECT ?s WHERE { ?s <p> <o> . FILTER(?s > 3) }";
  const HttpResult classified = Fetch(
      server.port(), "POST", "/v1/classify", query,
      "traceparent: 00-0000000000000000deadbeefcafef00d-0123456789abcdef-01"
      "\r\n");
  ASSERT_EQ(classified.status, 200);

  const HttpResult slowz = Fetch(server.port(), "GET", "/slowz");
  ASSERT_EQ(slowz.status, 200) << slowz.body;
  EXPECT_TRUE(Contains(slowz.head,
                       "Content-Type: application/json; charset=utf-8"))
      << slowz.head;
  // Point-in-time diagnostics must never be served from a cache.
  EXPECT_TRUE(Contains(slowz.head, "Cache-Control: no-store")) << slowz.head;
  // The tail sample carries identity, the verdict, and the explained
  // plan whose fragment/strategy match the classify response.
  EXPECT_TRUE(Contains(slowz.body, "\"trace_id\":\"deadbeefcafef00d\""))
      << slowz.body;
  EXPECT_TRUE(Contains(slowz.body, "\"route\":\"/v1/classify\""));
  EXPECT_TRUE(Contains(slowz.body, "\"fragment\":\"cq_f\"")) << slowz.body;
  EXPECT_TRUE(Contains(slowz.body, "\"plan\":{")) << slowz.body;
  EXPECT_TRUE(Contains(slowz.body, "\"queue_wait_ms\":")) << slowz.body;
  EXPECT_TRUE(Contains(slowz.body, "FILTER")) << slowz.body;  // query text

  // /statusz surfaces the tail sampler's admission counters.
  const HttpResult statusz = Fetch(server.port(), "GET", "/statusz");
  EXPECT_TRUE(Contains(statusz.body, "\"slow_log\":{")) << statusz.body;

  // Disabled tail sampling: /slowz is an explicit 404, not an empty doc.
  ServeOptions off = BaseOptions();
  off.enable_slow_log = false;
  ClassifyServer server_off(off);
  ASSERT_TRUE(server_off.Start().ok());
  EXPECT_EQ(Fetch(server_off.port(), "GET", "/slowz").status, 404);
  EXPECT_EQ(server_off.slow_log(), nullptr);
}

// A chain of OPTIONALs or FILTERs in one group nests one pattern level
// per link, though the parser sees two braces. The slow log admits such
// a request and explains its plan; the planner, which recurses once per
// level, must refuse the depth and fall back instead of overflowing the
// worker's stack (or taking seconds per request).
TEST(ClassifyServerTest, LongOptionalAndFilterChainsGetFallbackPlans) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  // A well-designed OPTIONAL chain of 16,000 links: about 453 KB.
  std::string optionals = "SELECT * WHERE { ?x0 <p> ?y0";
  for (int i = 1; i <= 16000; ++i) {
    optionals += " OPTIONAL { ?x0 <q> ?y" + std::to_string(i) + " }";
  }
  optionals += " }";
  // One triple and 10,000 FILTERs: about 170 KB.
  std::string filters = "SELECT * WHERE { ?x <p> ?y";
  for (int i = 0; i < 10000; ++i) filters += " FILTER(?x != ?y)";
  filters += " }";
  for (const std::string* body : {&optionals, &filters}) {
    const HttpResult r = Fetch(server.port(), "POST",
                               "/v1/classify?lang=sparql", *body);
    EXPECT_EQ(r.status, 200) << r.body.substr(0, 200);
    EXPECT_TRUE(Contains(r.body, "\"valid\":true")) << r.body.substr(0, 200);
  }
  EXPECT_EQ(Fetch(server.port(), "GET", "/healthz").status, 200);
  const HttpResult slowz = Fetch(server.port(), "GET", "/slowz");
  ASSERT_EQ(slowz.status, 200) << slowz.body;
  // One fallback plan per body.
  size_t fallbacks = 0;
  const std::string reason = "planner fallback: pattern nests deeper than 256";
  for (size_t at = slowz.body.find(reason); at != std::string::npos;
       at = slowz.body.find(reason, at + 1)) {
    ++fallbacks;
  }
  EXPECT_EQ(fallbacks, 2u) << slowz.body;
  EXPECT_TRUE(Contains(slowz.body, "\"strategy\":\"fallback\""))
      << slowz.body;
}

// A wide alternation under a closure is a simple transitive expression,
// so the slow log's plan compiles its automaton, whose epsilon-free
// construction is quadratic in the width: 8,000 ways (a 47 KB body)
// would ask for 64 million transitions. The compiler refuses past its
// cap and the explained plan falls back.
TEST(ClassifyServerTest, WideClosureGetsFallbackPlan) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  std::string body = "SELECT * WHERE { ?x (p0";
  for (int i = 1; i < 8000; ++i) body += "|p" + std::to_string(i);
  body += ")* ?y }";
  const HttpResult r =
      Fetch(server.port(), "POST", "/v1/classify?lang=sparql", body);
  EXPECT_EQ(r.status, 200) << r.body.substr(0, 200);
  const HttpResult slowz = Fetch(server.port(), "GET", "/slowz");
  ASSERT_EQ(slowz.status, 200) << slowz.body.substr(0, 200);
  EXPECT_TRUE(Contains(slowz.body,
                       "planner fallback: property path automaton needs "
                       "more than 65536 transitions"))
      << slowz.body.substr(0, 400);
  EXPECT_TRUE(Contains(slowz.body, "\"strategy\":\"fallback\""))
      << slowz.body.substr(0, 400);
}

TEST(ClassifyServerTest, JobHistogramCarriesExemplarForSampledTrace) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(
      Fetch(server.port(), "POST", "/v1/classify",
            "SELECT ?s WHERE { ?s <p> <o> }",
            "traceparent: "
            "00-0000000000000000deadbeefcafef00d-0123456789abcdef-01\r\n")
          .status,
      200);
  const HttpResult metrics = Fetch(server.port(), "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_TRUE(Contains(metrics.body, "rwdt_serve_job_seconds_bucket"))
      << "histogram family missing";
  EXPECT_TRUE(
      Contains(metrics.body, "# {trace_id=\"deadbeefcafef00d\"}"))
      << metrics.body;
}

TEST(ClassifyServerTest, TracezRequiresACollectorAndHonorsLimit) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  // No TraceCollector installed: /tracez says so with 503.
  EXPECT_EQ(Fetch(server.port(), "GET", "/tracez").status, 503);

  obs::TraceCollector collector;
  ASSERT_TRUE(collector.installed());
  // Sampled request -> worker spans recorded.
  ASSERT_EQ(
      Fetch(server.port(), "POST", "/v1/classify",
            "SELECT ?s WHERE { ?s <p> <o> }",
            "traceparent: "
            "00-0000000000000000deadbeefcafef00d-0123456789abcdef-01\r\n")
          .status,
      200);
  const HttpResult traced = Fetch(server.port(), "GET", "/tracez?limit=2");
  ASSERT_EQ(traced.status, 200);
  EXPECT_TRUE(Contains(traced.head,
                       "Content-Type: application/json; charset=utf-8"))
      << traced.head;
  EXPECT_TRUE(Contains(traced.head, "Cache-Control: no-store")) << traced.head;
  EXPECT_TRUE(Contains(traced.body, "\"events_shown\":")) << traced.body;
  EXPECT_TRUE(Contains(traced.body, "deadbeefcafef00d")) << traced.body;
}

// ?limit= must be a decimal count: garbage is a 400 (counted under its
// route), never read as "no cap".
TEST(ClassifyServerTest, TracezRejectsLimitThatIsNotADecimalCount) {
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  obs::TraceCollector collector;
  ASSERT_TRUE(collector.installed());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        Fetch(server.port(), "POST", "/v1/classify",
              "SELECT ?s WHERE { ?s <p> <o> }",
              "traceparent: "
              "00-0000000000000000deadbeefcafef00d-0123456789abcdef-01\r\n")
            .status,
        200);
  }
  for (const char* bad : {"abc", "-1", "2x"}) {
    const HttpResult result =
        Fetch(server.port(), "GET", std::string("/tracez?limit=") + bad);
    EXPECT_EQ(result.status, 400) << bad;
    EXPECT_TRUE(Contains(result.head, "Cache-Control: no-store"))
        << result.head;
  }
  const HttpResult capped = Fetch(server.port(), "GET", "/tracez?limit=2");
  ASSERT_EQ(capped.status, 200);
  EXPECT_TRUE(Contains(capped.body, "\"events_shown\":2")) << capped.body;
  const HttpResult metrics = Fetch(server.port(), "GET", "/metrics");
  EXPECT_TRUE(Contains(
      metrics.body,
      "rwdt_serve_requests_total{code=\"400\",route=\"/tracez\"} 3"))
      << metrics.body;
}

TEST(ClassifyServerTest, ProfilezCapturesUnderLoad) {
  if (!obs::ProfilerSupported()) GTEST_SKIP() << "no backtrace(3) here";
  ClassifyServer server(BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  // Drive classify traffic while /profilez samples, so the capture has
  // engine/exec work to attribute.
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    while (!stop.load()) {
      Fetch(server.port(), "POST", "/v1/classify",
            "SELECT ?s WHERE { ?s <p> <o> . FILTER(?s > 3) }");
    }
  });
  const HttpResult profile =
      Fetch(server.port(), "GET", "/profilez?seconds=0.3&hz=400");
  stop.store(true);
  driver.join();
  ASSERT_EQ(profile.status, 200) << profile.body;
  EXPECT_TRUE(Contains(profile.head, "Cache-Control: no-store"))
      << profile.head;
  EXPECT_TRUE(Contains(profile.head, "text/plain; charset=utf-8"))
      << profile.head;
  EXPECT_FALSE(profile.body.empty());
  // A bad format parameter is a client error, not a capture.
  EXPECT_EQ(Fetch(server.port(), "GET", "/profilez?format=xml").status, 400);
}

}  // namespace
}  // namespace rwdt::serve
