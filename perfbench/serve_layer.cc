// The serve layer, measured in ingest-dup's traced run: rwdt_serve with
// its deployed defaults (8 handler threads, 2 workers), driven over
// loopback in an open loop of single-query POST /v1/classify at a fixed
// rate plus a small share of POST /v1/classify_batch bodies of a few
// hundred log lines, which put real queue work in front of the single
// queries.
//
// It is not a timed workload of its own: its end-to-end latencies moved
// by 20-70% between runs on a shared VM, beyond any bound a regression
// check could use, so only its per-layer figures are reported.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "ingest/ingest.h"
#include "layers.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "loggen/rate_schedule.h"
#include "loggen/sparql_gen.h"
#include "serve/verdict.h"
#include "sparql/parser.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr double kClassifyQps = 3000;
constexpr double kBatchQps = 40;
constexpr size_t kClassifyTexts = 2048;
constexpr size_t kBatchBodies = 16;
constexpr uint64_t kBatchLines = 300;
// One client thread per connection, kept below the server's 8 handler
// threads: each handler stays pinned to one keep-alive connection.
constexpr unsigned kConnections = 4;
constexpr unsigned kServerWorkers = 2;  // rwdt_serve's default
constexpr double kWarmupS = 1.0;
constexpr double kLoopS = 2.5;
constexpr uint64_t kSpinNs = 100'000;
constexpr int kHealthzProbes = 1000;

uint64_t SubSeed(uint64_t seed, uint64_t i) {
  return seed * 0x9e3779b97f4a7c15ull + i + 1;
}

// --- the server process ----------------------------------------------------

/// rwdt_serve as a child process on an ephemeral loopback port. Its
/// stderr goes to a file, which is where it announces the port.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& log_path)
      : log_path_(log_path) {
    // A clean environment: no tracing, profiling or report hooks.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "RWDT_", 5) != 0) env.emplace_back(*e);
    }
    std::vector<char*> envp;
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    std::string arg0 = binary;
    std::string arg1 = "--port=0";
    char* argv[] = {arg0.data(), arg1.data(), nullptr};

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     log_path_.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv,
                    envp.data()) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }

  /// SIGTERM drains the server; SIGKILL after 20 s.
  ~ServerProcess() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    for (int i = 0; i < 4000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        std::remove(log_path_.c_str());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Waits for the "listening on" line; returns false after 20 s.
  bool WaitForPort() {
    const std::string prefix = "rwdt_serve: listening on ";  // ADDR:PORT
    for (int i = 0; i < 4000 && pid_ > 0; ++i) {
      std::ifstream log(log_path_);
      std::string line;
      while (std::getline(log, line)) {
        const size_t colon = line.find(':', prefix.size());
        if (line.rfind(prefix, 0) == 0 && colon != std::string::npos) {
          port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
          return port_ != 0;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  uint16_t port() const { return port_; }

 private:
  std::string log_path_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

// --- the HTTP client ----------------------------------------------------------

struct Response {
  int status = 0;
  std::string body;
  bool close = false;  // the server sent Connection: close
};

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

/// A keep-alive HTTP/1.1 connection that honours Connection: close: the
/// server ends each connection after a fixed number of requests, and
/// the next send then goes out on a fresh connection.
class Client {
 public:
  explicit Client(uint16_t port) : port_(port) {}
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and reads its response; false on a transport error.
  bool Roundtrip(const std::string& request, Response* response) {
    if (fd_ < 0 && !Connect()) return false;
    if (!SendAll(request) || !Read(response)) {
      Close();
      return false;
    }
    if (response->close) Close();
    return true;
  }

 private:
  bool Connect() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{10, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buf_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool SendAll(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Fill() {
    char chunk[16384];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  bool Read(Response* response) {
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    if (buf_.compare(0, 5, "HTTP/") != 0) return false;
    response->status = std::atoi(buf_.c_str() + 9);
    response->close = false;
    size_t body_len = 0;
    std::istringstream head(buf_.substr(0, head_end));
    std::string line;
    std::getline(head, line);  // status line
    while (std::getline(head, line)) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string name = Lower(line.substr(0, colon));
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(' '));
      if (!value.empty() && value.back() == '\r') value.pop_back();
      if (name == "content-length") {
        body_len = static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
      } else if (name == "connection") {
        response->close = Lower(value) == "close";
      }
    }
    const size_t frame = head_end + 4 + body_len;
    while (buf_.size() < frame) {
      if (!Fill()) return false;
    }
    response->body.assign(buf_, head_end + 4, body_len);
    buf_.erase(0, frame);
    return true;
  }

  uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

std::string Post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: text/plain\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string Get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

// --- inputs and expected answers ---------------------------------------------

struct Request {
  std::string wire;  // the full HTTP request
  int status = 0;    // expected response
  std::string body;
};

struct Arrival {
  double t = 0;  // seconds from the loop's start
  bool batch = false;
  size_t index = 0;  // into ServeInput::classify / ::batch
};

struct ServeInput {
  std::vector<std::string> texts;
  std::vector<Request> classify;
  std::vector<Request> batch;
};

/// The body serve renders for a query that does not parse.
std::string ErrorJson(const rwdt::Status& status) {
  std::string out;
  rwdt::JsonWriter w(&out);
  w.BeginObject()
      .BoolField("valid", false)
      .StringField("error_class",
                   rwdt::ErrorClassName(rwdt::ClassifyStatus(status)))
      .StringField("error", status.message())
      .EndObject();
  return out;
}

/// Query texts and batch bodies from the seed, each with the response
/// serve must give: the body serve::ClassifyToJson or StudyToJson
/// renders for it.
ServeInput MakeInputs(uint64_t seed, Outcome* out) {
  ServeInput in;
  const rwdt::core::LogStudyOptions study;
  const rwdt::sparql::ParseLimits limits;
  rwdt::loggen::SourceProfile single =
      rwdt::loggen::ExampleProfile(kClassifyTexts);
  single.invalid_rate = 0.05;  // some texts must get 422
  size_t invalid = 0;
  for (auto& e : rwdt::loggen::GenerateLog(single, SubSeed(seed, 0))) {
    if (e.text.find_first_not_of(" \t") == std::string::npos) continue;
    Request r;
    r.wire = Post("/v1/classify?lang=sparql", e.text);
    auto verdict = rwdt::serve::ClassifyToJson(
        e.text, rwdt::serve::QueryLang::kSparql, study, limits);
    r.status = verdict.ok() ? 200 : 422;
    r.body = verdict.ok() ? verdict.value() : ErrorJson(verdict.status());
    invalid += verdict.ok() ? 0 : 1;
    in.texts.push_back(std::move(e.text));
    in.classify.push_back(std::move(r));
  }
  out->Check(invalid > 0 && invalid < in.classify.size(),
             "classify texts include both valid and invalid queries");

  rwdt::loggen::SourceProfile lines = rwdt::loggen::ExampleProfile(kBatchLines);
  rwdt::loggen::CorruptionOptions corruption;
  corruption.rate = 0.02;
  for (size_t b = 0; b < kBatchBodies; ++b) {
    auto log = rwdt::loggen::GenerateLog(lines, SubSeed(seed, 10 + b));
    rwdt::loggen::CorruptLog(&log, SubSeed(seed, 100 + b), corruption);
    std::ostringstream body;
    rwdt::loggen::WriteLogText(log, body);
    Request r;
    r.wire = Post("/v1/classify_batch", body.str());
    rwdt::ingest::IngestOptions options;
    options.source_name = "http";  // the route's default source name
    std::istringstream stream(body.str());
    auto report = rwdt::ingest::IngestStream(stream, options);
    out->Check(report.ok() && Balanced(report.value().study),
               "reference batch study");
    r.status = 200;
    if (report.ok()) r.body = rwdt::serve::StudyToJson(report.value().study);
    in.batch.push_back(std::move(r));
  }
  return in;
}

std::vector<Arrival> Schedule(uint64_t seed, double horizon_s,
                              const ServeInput& in) {
  std::vector<Arrival> arrivals;
  auto add = [&](double qps, uint64_t sub, bool batch, size_t n) {
    rwdt::loggen::RateScheduleOptions rate;
    rate.base_qps = qps;
    size_t k = 0;
    for (const double t : rwdt::loggen::GenerateArrivals(
             rwdt::loggen::RateSchedule(rate), horizon_s, SubSeed(seed, sub))) {
      arrivals.push_back({t, batch, k++ % n});
    }
  };
  add(kClassifyQps, 1000, false, in.classify.size());
  add(kBatchQps, 1001, true, in.batch.size());
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
  return arrivals;
}

// --- the open loop -------------------------------------------------------------

struct Sample {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t end_ns = 0;
  bool batch = false;
  bool ok = false;
};

/// Fires `arrivals` at their due instants over kConnections keep-alive
/// connections (arrival i on connection i % kConnections). Latency runs
/// from the due instant, so a stall on one connection shows in every
/// request queued behind it; sent_ns - due_ns is how late the generator
/// ran.
std::vector<Sample> OpenLoop(uint16_t port, const ServeInput& in,
                             const std::vector<Arrival>& arrivals,
                             Outcome* out) {
  std::vector<Sample> samples(arrivals.size());
  const uint64_t start = NowNs() + 20'000'000;  // threads are up by then
  std::vector<std::thread> senders;
  for (unsigned c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c] {
      Client client(port);
      Response response;
      for (size_t i = c; i < arrivals.size(); i += kConnections) {
        const Arrival& a = arrivals[i];
        Sample& s = samples[i];
        s.due_ns = start + static_cast<uint64_t>(a.t * 1e9);
        s.batch = a.batch;
        // Timer wake-ups run tens of microseconds late on a VM: sleep to
        // just before the due instant and spin the rest, so the
        // generator's own jitter stays out of the latencies.
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(s.due_ns - kSpinNs)));
        while (NowNs() < s.due_ns) {
        }
        s.sent_ns = NowNs();
        const Request& r = a.batch ? in.batch[a.index] : in.classify[a.index];
        s.ok = client.Roundtrip(r.wire, &response) &&
               response.status == r.status && response.body == r.body;
        s.end_ns = NowNs();
      }
    });
  }
  for (std::thread& t : senders) t.join();
  for (const Sample& s : samples) out->Op(s.ok, "serve response");
  return samples;
}

/// The _sum and _count of an unlabelled histogram family in an
/// OpenMetrics exposition.
std::pair<double, double> HistogramSumCount(const std::string& text,
                                            const std::string& family) {
  double sum = 0;
  double count = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(family + "_sum ", 0) == 0) {
      sum = std::strtod(line.c_str() + family.size() + 5, nullptr);
    } else if (line.rfind(family + "_count ", 0) == 0) {
      count = std::strtod(line.c_str() + family.size() + 7, nullptr);
    }
  }
  return {sum, count};
}

struct ServeFamilies {
  std::pair<double, double> queue_wait, job, batch_size;
};

ServeFamilies Scrape(Client* client, Outcome* out) {
  Response response;
  const bool ok = client->Roundtrip(Get("/metrics"), &response) &&
                  response.status == 200;
  out->Check(ok, "scrape /metrics");
  return {HistogramSumCount(response.body, "rwdt_serve_queue_wait_seconds"),
          HistogramSumCount(response.body, "rwdt_serve_job_seconds"),
          HistogramSumCount(response.body, "rwdt_serve_batch_size")};
}

double DeltaMean(std::pair<double, double> before,
                 std::pair<double, double> after) {
  const double n = after.second - before.second;
  return n > 0 ? (after.first - before.first) / n : 0;
}

}  // namespace

void MeasureServeLayer(const Options& options, Tracer* tracer, Outcome* out) {
  const ServeInput in = MakeInputs(options.seed, out);
  const std::vector<Arrival> arrivals =
      Schedule(options.seed, kWarmupS + kLoopS, in);
  ServerProcess server(options.serve_bin, options.work_dir + "/rwdt_serve-" +
                                              std::to_string(getpid()) +
                                              ".log");
  out->Check(server.WaitForPort(), "rwdt_serve is listening");

  Client admin(server.port());
  const ServeFamilies before = Scrape(&admin, out);
  std::vector<Sample> samples;
  {
    Scope root(tracer, "serve.open_loop");
    samples = OpenLoop(server.port(), in, arrivals, out);
    for (const Sample& s : samples) {
      const int request = tracer->Record(
          s.batch ? "serve.classify_batch" : "serve.classify", s.due_ns,
          s.end_ns);
      tracer->RecordUnder(request, "serve.send_delay", s.due_ns, s.sent_ns);
    }
  }
  uint64_t loop_end = 0;
  for (const Sample& s : samples) loop_end = std::max(loop_end, s.end_ns);
  const double loop_s = Seconds(loop_end - samples.front().due_ns);
  const ServeFamilies after = Scrape(&admin, out);

  std::vector<double> late_ms;
  std::vector<double> request_ms;
  std::vector<double> batch_ms;
  const uint64_t timed_start =
      samples.front().due_ns + static_cast<uint64_t>(kWarmupS * 1e9);
  for (const Sample& s : samples) {
    if (s.due_ns < timed_start) continue;
    late_ms.push_back((s.sent_ns - s.due_ns) / 1e6);
    (s.batch ? batch_ms : request_ms).push_back((s.end_ns - s.due_ns) / 1e6);
  }

  {
    Scope span(tracer, "serve.healthz_probes");
    Client client(server.port());
    Response response;
    for (int i = 0; i <= kHealthzProbes; ++i) {
      const uint64_t t0 = NowNs();
      const bool ok = client.Roundtrip(Get("/healthz"), &response) &&
                      response.status == 200;
      // The first probe opens the connection; the rest reuse it.
      if (i > 0) tracer->Record("serve.healthz", t0, NowNs());
      out->Check(ok, "GET /healthz");
    }
  }
  {
    const rwdt::core::LogStudyOptions study;
    const rwdt::sparql::ParseLimits limits;
    Scope span(tracer, "serve.classify_replay");
    for (const std::string& text : in.texts) {
      Scope call(tracer, "serve.classify_to_json");
      rwdt::serve::ClassifyToJson(text, rwdt::serve::QueryLang::kSparql,
                                  study, limits);
    }
  }

  const std::vector<double> classify = tracer->DurationsNs("serve.classify_to_json");
  out->Add("serve.http_rtt_us_p50", "us",
           Median(tracer->DurationsNs("serve.healthz")) / 1e3);
  out->Add("serve.classify_us_p50", "us", Percentile(classify, 0.50) / 1e3);
  out->Add("serve.classify_us_p99", "us", Percentile(classify, 0.99) / 1e3);
  out->Add("serve.queue_wait_ms_mean", "ms",
           DeltaMean(before.queue_wait, after.queue_wait) * 1e3);
  out->Add("serve.job_ms_mean", "ms", DeltaMean(before.job, after.job) * 1e3);
  out->Add("serve.batch_size_mean", "count",
           DeltaMean(before.batch_size, after.batch_size));
  out->Add("serve.worker_busy_share", "ratio",
           (after.job.first - before.job.first) / (loop_s * kServerWorkers));
  out->Add("serve.generator_late_ms_p99", "ms", Percentile(late_ms, 0.99));
  out->Add("serve.request_ms_p50", "ms", Percentile(request_ms, 0.50));
  out->Add("serve.request_ms_p99", "ms", Percentile(request_ms, 0.99));
  out->Add("serve.batch_p50_ms", "ms", Percentile(batch_ms, 0.50));
}

}  // namespace perfbench
