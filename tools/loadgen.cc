// loadgen: open-loop HTTP traffic generator for rwdt_serve.
//
//   rwdt_serve --port=8080 &
//   loadgen --target=127.0.0.1:8080 --profile=burst --qps=50
//           --burst-qps=800 --duration=20 --out=BENCH_serve.json
//
// Open-loop means arrival times are fixed up front (an inhomogeneous
// Poisson process from loggen::GenerateArrivals, deterministic in
// --seed) and never slowed down by server latency — exactly the regime
// where queueing and shedding behavior shows. Senders fire each request
// at its scheduled instant on keep-alive connections; late wakeups are
// recorded but the schedule is never stretched.
//
// The run report (--out) carries achieved vs offered QPS, per-status
// counts, latency percentiles, and the shed rate, keyed by the build.

#include <netdb.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/json.h"
#include "flags.h"
#include "loggen/rate_schedule.h"
#include "loggen/sparql_gen.h"
#include "obs/trace.h"

namespace {

using Clock = std::chrono::steady_clock;
using rwdt::ParseDecimal;
using rwdt::tools::ParseFiniteFlag;
using rwdt::tools::ParseFlag;

/// Each connection is a sender thread; the same cap as the server's
/// thread counts.
constexpr unsigned kMaxConnections = 4096;

struct Config {
  std::string host = "127.0.0.1";
  std::string port = "8080";
  std::string path = "/v1/classify";
  std::string tenant;
  rwdt::loggen::RateScheduleOptions rate;
  double duration_s = 10;
  uint64_t seed = 1;
  unsigned connections = 8;
  /// Send a deterministic W3C traceparent (sampled) on every request,
  /// and report the slowest requests' trace ids — the client half of
  /// the measurement-to-server-span correlation.
  bool trace = false;
  std::string out = "BENCH_serve.json";
};

/// One completed request's identity, kept only when --trace=1: enough
/// to name the slowest requests' server-side traces in the report.
struct RequestRecord {
  double latency_ms = 0;
  uint64_t trace_id = 0;
  int status = 0;
};

struct SenderStats {
  std::map<int, uint64_t> status_counts;  // HTTP status -> count
  uint64_t transport_errors = 0;
  std::vector<double> latencies_ms;       // completed requests only
  std::vector<RequestRecord> records;     // --trace=1 only
};

/// The trace id loadgen assigns to arrival `i`: a pure function of
/// (seed, i), so a re-run of the same schedule names the same traces —
/// server-side /slowz entries and exemplars can be correlated across
/// repeated experiments.
uint64_t ArrivalTraceId(const Config& config, size_t i) {
  const uint64_t id =
      rwdt::obs::MixBits((config.seed << 20) ^ static_cast<uint64_t>(i));
  return id != 0 ? id : 1;
}

int Connect(const Config& config) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (getaddrinfo(config.host.c_str(), config.port.c_str(), &hints,
                  &result) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(result);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one keep-alive HTTP response; returns the status code, or -1
/// on a transport error. `buf` carries bytes across responses.
int ReadResponse(int fd, std::string* buf) {
  char chunk[4096];
  size_t head_end;
  while ((head_end = buf->find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return -1;
    buf->append(chunk, static_cast<size_t>(n));
  }
  const size_t frame_head = head_end + 4;
  int status = -1;
  if (buf->size() >= 12 && buf->compare(0, 5, "HTTP/") == 0) {
    status = std::atoi(buf->c_str() + 9);
  }
  size_t body_len = 0;
  // Case-insensitive scan is unnecessary: our server emits exactly
  // "Content-Length".
  const size_t cl = buf->find("Content-Length:");
  if (cl != std::string::npos && cl < head_end) {
    body_len = static_cast<size_t>(std::atoll(buf->c_str() + cl + 15));
  }
  while (buf->size() < frame_head + body_len) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return -1;
    buf->append(chunk, static_cast<size_t>(n));
  }
  buf->erase(0, frame_head + body_len);
  return status;
}

std::string BuildRequest(const Config& config, const std::string& query,
                         uint64_t trace_id) {
  std::string req;
  req.reserve(query.size() + 256);
  req += "POST " + config.path + "?lang=sparql HTTP/1.1\r\n";
  req += "Host: " + config.host + "\r\n";
  if (!config.tenant.empty()) req += "X-Tenant: " + config.tenant + "\r\n";
  if (trace_id != 0) {
    // Sampled flag set: the server records this request's spans and
    // exemplars regardless of its own head-sampling rate.
    rwdt::obs::TraceContext ctx;
    ctx.trace_id = trace_id;
    ctx.span_id = rwdt::obs::MixBits(trace_id ^ 0x10adc0de);
    if (ctx.span_id == 0) ctx.span_id = 1;
    ctx.sampled = true;
    req += "traceparent: " + rwdt::obs::FormatTraceparent(ctx) + "\r\n";
  }
  req += "Content-Type: text/plain\r\n";
  req += "Content-Length: " + std::to_string(query.size()) + "\r\n\r\n";
  req += query;
  return req;
}

/// One sender thread: fires its stripe of the arrival schedule at the
/// scheduled instants over a keep-alive connection.
void Sender(const Config& config, const std::vector<double>& arrivals,
            size_t stripe, size_t stripes,
            const std::vector<std::string>& queries, Clock::time_point start,
            SenderStats* stats) {
  int fd = -1;
  std::string buf;
  for (size_t i = stripe; i < arrivals.size(); i += stripes) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(due);
    if (fd < 0) {
      fd = Connect(config);
      buf.clear();
      if (fd < 0) {
        stats->transport_errors++;
        continue;
      }
    }
    const auto sent_at = Clock::now();
    const uint64_t trace_id = config.trace ? ArrivalTraceId(config, i) : 0;
    const std::string request =
        BuildRequest(config, queries[i % queries.size()], trace_id);
    int status = -1;
    if (SendAll(fd, request)) status = ReadResponse(fd, &buf);
    if (status < 0) {
      stats->transport_errors++;
      close(fd);
      fd = -1;
      continue;
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent_at)
            .count();
    stats->status_counts[status]++;
    stats->latencies_ms.push_back(latency_ms);
    if (config.trace) {
      stats->records.push_back({latency_ms, trace_id, status});
    }
  }
  if (fd >= 0) close(fd);
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  (N is a decimal number, without sign; X a finite decimal number)\n"
      "  --target=HOST:PORT   server (default 127.0.0.1:8080)\n"
      "  --path=PATH          route to hit (default /v1/classify)\n"
      "  --tenant=NAME        X-Tenant header value (default: none)\n"
      "  --profile=P          constant|diurnal|burst (default constant)\n"
      "  --qps=X              base rate (default 100)\n"
      "  --burst-qps=X        burst profile high rate (default 400)\n"
      "  --period=X           diurnal/burst period seconds (default 60)\n"
      "  --amplitude=X        diurnal swing in [0,1] (default 0.5)\n"
      "  --duty=X             burst duty cycle in (0,1) (default 0.2)\n"
      "  --duration=X         run length seconds (default 10)\n"
      "  --seed=N             arrival-schedule seed (default 1)\n"
      "  --connections=N      sender threads (default 8, at most 4096)\n"
      "  --trace=0|1          send a sampled traceparent per request and\n"
      "                       report the slowest trace ids (default 0)\n"
      "  --out=FILE           JSON report (default BENCH_serve.json)\n"
      "  --version            print build provenance and exit\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  const auto positive = [](double x) { return x > 0; };
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", rwdt::common::BuildInfo::Get().ToString().c_str());
      return 0;
    } else if (ParseFlag(argv[i], "--target", &v)) {
      const size_t colon = v.rfind(':');
      uint16_t port = 0;
      if (colon == std::string::npos ||
          !ParseDecimal(v.substr(colon + 1), &port)) {
        return Usage(argv[0]);
      }
      config.host = v.substr(0, colon);
      config.port = v.substr(colon + 1);
    } else if (ParseFlag(argv[i], "--path", &v)) {
      config.path = v;
    } else if (ParseFlag(argv[i], "--tenant", &v)) {
      config.tenant = v;
    } else if (ParseFlag(argv[i], "--profile", &v)) {
      const auto profile = rwdt::loggen::ParseRateProfile(v);
      if (!profile.ok()) return Usage(argv[0]);
      config.rate.profile = profile.value();
    } else if (ParseFlag(argv[i], "--qps", &v)) {
      if (!ParseFiniteFlag(v, &config.rate.base_qps, positive)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--burst-qps", &v)) {
      if (!ParseFiniteFlag(v, &config.rate.burst_qps, positive)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--period", &v)) {
      if (!ParseFiniteFlag(v, &config.rate.period_s, positive)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--amplitude", &v)) {
      if (!ParseFiniteFlag(v, &config.rate.amplitude,
                           [](double x) { return x >= 0 && x <= 1; })) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--duty", &v)) {
      if (!ParseFiniteFlag(v, &config.rate.burst_duty,
                           [](double x) { return x > 0 && x < 1; })) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--duration", &v)) {
      if (!ParseFiniteFlag(v, &config.duration_s, positive)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      if (!ParseDecimal(v, &config.seed)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--connections", &v)) {
      if (!ParseDecimal(v, &config.connections, kMaxConnections)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      unsigned trace = 0;
      if (!ParseDecimal(v, &trace, 1u)) return Usage(argv[0]);
      config.trace = trace != 0;
    } else if (ParseFlag(argv[i], "--out", &v)) {
      config.out = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.connections == 0) return Usage(argv[0]);
  const rwdt::Status valid = config.rate.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", valid.message().c_str());
    return 2;
  }

  // Deterministic workload: the arrival schedule and the query texts
  // both derive from --seed alone.
  const rwdt::loggen::RateSchedule schedule(config.rate);
  const std::vector<double> arrivals =
      rwdt::loggen::GenerateArrivals(schedule, config.duration_s, config.seed);
  std::vector<std::string> queries;
  for (const auto& entry : rwdt::loggen::GenerateLog(
           rwdt::loggen::ExampleProfile(512), config.seed)) {
    if (entry.intended_valid) queries.push_back(entry.text);
  }
  if (queries.empty()) queries.push_back("SELECT ?s WHERE { ?s ?p ?o }");

  std::fprintf(stderr,
               "loadgen: %zu arrivals over %.1fs (offered %.1f qps, profile "
               "%s) -> %s:%s%s\n",
               arrivals.size(), config.duration_s,
               arrivals.size() / config.duration_s,
               rwdt::loggen::RateProfileName(config.rate.profile),
               config.host.c_str(), config.port.c_str(), config.path.c_str());

  std::vector<SenderStats> stats(config.connections);
  std::vector<std::thread> senders;
  // Client-side resource cost of the run: rusage deltas around the send
  // window separate "the server is slow" from "the client is starved".
  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  const auto start = Clock::now();
  for (unsigned t = 0; t < config.connections; ++t) {
    senders.emplace_back(Sender, std::cref(config), std::cref(arrivals), t,
                         config.connections, std::cref(queries), start,
                         &stats[t]);
  }
  for (auto& thread : senders) thread.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);
  const auto tv_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  const double client_utime_s =
      tv_s(usage_after.ru_utime) - tv_s(usage_before.ru_utime);
  const double client_stime_s =
      tv_s(usage_after.ru_stime) - tv_s(usage_before.ru_stime);

  // Merge per-sender stats.
  std::map<int, uint64_t> status_counts;
  uint64_t transport_errors = 0;
  std::vector<double> latencies;
  std::vector<RequestRecord> records;
  for (const SenderStats& s : stats) {
    transport_errors += s.transport_errors;
    for (const auto& [code, n] : s.status_counts) status_counts[code] += n;
    latencies.insert(latencies.end(), s.latencies_ms.begin(),
                     s.latencies_ms.end());
    records.insert(records.end(), s.records.begin(), s.records.end());
  }
  std::sort(latencies.begin(), latencies.end());
  uint64_t completed = 0, ok200 = 0, shed = 0;
  for (const auto& [code, n] : status_counts) {
    completed += n;
    if (code == 200) ok200 += n;
    if (code == 429 || code == 503) shed += n;
  }

  std::string json;
  rwdt::JsonWriter w(&json);
  w.BeginObject();
  w.RawField("build", rwdt::common::BuildInfo::Get().ToJson());
  w.Key("config").BeginObject();
  w.StringField("target", config.host + ":" + config.port);
  w.StringField("path", config.path);
  w.StringField("profile",
                rwdt::loggen::RateProfileName(config.rate.profile));
  w.DoubleField("base_qps", config.rate.base_qps);
  w.DoubleField("duration_s", config.duration_s);
  w.UIntField("seed", config.seed);
  w.UIntField("connections", config.connections);
  w.EndObject();
  w.UIntField("offered", arrivals.size());
  w.DoubleField("offered_qps", arrivals.size() / config.duration_s);
  w.UIntField("completed", completed);
  w.DoubleField("achieved_qps", completed / wall_s);
  w.UIntField("ok_200", ok200);
  w.UIntField("shed_429_503", shed);
  w.DoubleField("shed_rate", completed > 0
                                 ? static_cast<double>(shed) / completed
                                 : 0.0);
  w.UIntField("transport_errors", transport_errors);
  w.Key("status_counts").BeginObject();
  for (const auto& [code, n] : status_counts) {
    w.UIntField(std::to_string(code), n);
  }
  w.EndObject();
  w.Key("latency_ms").BeginObject();
  w.DoubleField("p50", Percentile(&latencies, 0.50));
  w.DoubleField("p90", Percentile(&latencies, 0.90));
  w.DoubleField("p99", Percentile(&latencies, 0.99));
  w.DoubleField("max", latencies.empty() ? 0 : latencies.back());
  w.EndObject();
  // If the client burns ~wall_s of CPU, the latency percentiles above
  // measure loadgen, not the server — this block makes that visible.
  w.Key("client_rusage").BeginObject();
  w.DoubleField("utime_s", client_utime_s);
  w.DoubleField("stime_s", client_stime_s);
  w.DoubleField("cpu_per_request_us",
                completed > 0 ? 1e6 * (client_utime_s + client_stime_s) /
                                    static_cast<double>(completed)
                              : 0.0);
  w.UIntField("maxrss_kb", static_cast<uint64_t>(usage_after.ru_maxrss));
  w.EndObject();
  if (config.trace) {
    // Client-observed slowest requests, named by trace id: look the
    // same ids up in the server's /slowz, /tracez, and histogram
    // exemplars to see where each one's time actually went.
    const size_t top = std::min<size_t>(records.size(), 5);
    std::partial_sort(records.begin(), records.begin() + top, records.end(),
                      [](const RequestRecord& a, const RequestRecord& b) {
                        return a.latency_ms > b.latency_ms;
                      });
    w.Key("slowest").BeginArray();
    for (size_t i = 0; i < top; ++i) {
      w.BeginObject();
      w.StringField("trace_id", rwdt::obs::TraceIdHex(records[i].trace_id));
      w.DoubleField("latency_ms", records[i].latency_ms);
      w.IntField("status", records[i].status);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  std::ofstream out(config.out);
  out << json << "\n";
  out.close();
  std::fprintf(stderr,
               "loadgen: completed %llu/%zu (200s %llu, shed %llu, errors "
               "%llu), p50 %.2fms p99 %.2fms -> %s\n",
               static_cast<unsigned long long>(completed), arrivals.size(),
               static_cast<unsigned long long>(ok200),
               static_cast<unsigned long long>(shed),
               static_cast<unsigned long long>(transport_errors),
               Percentile(&latencies, 0.50), Percentile(&latencies, 0.99),
               config.out.c_str());
  return ok200 > 0 ? 0 : 1;
}
