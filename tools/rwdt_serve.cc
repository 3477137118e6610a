// rwdt_serve: the classification service as a standalone process.
//
//   rwdt_serve --port=8080 --workers=4
//   curl -d 'SELECT ?s WHERE { ?s <p> <o> }' 'localhost:8080/v1/classify'
//
// Shutdown is always a graceful drain: SIGTERM, SIGINT, and
// GET /quitquitquit all stop admission (429/503 with Retry-After, and
// /readyz flips to 503 so load balancers eject the task), finish every
// request already accepted, then exit 0.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/build_info.h"
#include "common/json.h"
#include "flags.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/serve.h"

namespace {

using rwdt::tools::ParseDecimal;
using rwdt::tools::ParseFlag;

rwdt::serve::ClassifyServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe: just release WaitForQuit; the main thread drains.
  if (g_server != nullptr) g_server->RequestQuit();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  (N is a decimal number, without sign)\n"
      "  --port=N             listen port (default 8080; 0 = ephemeral)\n"
      "  --bind=ADDR          bind address (default 127.0.0.1)\n"
      "  --workers=N          batch workers (default 2, at most 4096)\n"
      "  --handler-threads=N  concurrent HTTP requests (default 8, at most\n"
      "                       4096)\n"
      "  --queue=N            request queue capacity (default 256)\n"
      "  --max-batch=N        jobs per worker wakeup (default 32)\n"
      "  --max-body-mb=N      request body cap in MiB (default 64)\n"
      "  --quota-qps=X        per-tenant sustained QPS (default 0 = off)\n"
      "  --quota-burst=X      per-tenant burst size (default 20)\n"
      "  --trace-sample=X     head-sample rate for fresh traces [0,1]\n"
      "                       (default 0; traceparent'd requests keep\n"
      "                       the caller's sampled flag either way)\n"
      "  --trace-seed=N       head-sampler seed (default 0)\n"
      "  --trace=FILE         install a TraceCollector and write Chrome\n"
      "                       trace JSON to FILE on exit (also enables\n"
      "                       GET /tracez; RWDT_TRACE env works too)\n"
      "  --slow-log=N         slow-query log capacity (default 32;\n"
      "                       0 disables /slowz)\n"
      "  --slow-window=X      slow-query log window, seconds (default\n"
      "                       300; 0 = never expire)\n"
      "  --report=FILE        write a JSON run report (slow queries,\n"
      "                       build info) on exit (RWDT_REPORT env too)\n"
      "  --version            print build provenance and exit\n",
      argv0);
  return 2;
}

/// The final run report: build provenance plus the slow-query log —
/// the same evidence /slowz serves, preserved after the process exits.
void WriteRunReport(const std::string& path,
                    const rwdt::serve::ClassifyServer& server) {
  std::string out;
  rwdt::JsonWriter w(&out);
  w.BeginObject();
  w.RawField("build", rwdt::common::BuildInfo::Get().ToJson());
  w.StringField("service", "rwdt_serve");
  if (server.slow_log() != nullptr) {
    w.RawField("slow_queries", server.slow_log()->ToJson());
  } else {
    w.Key("slow_queries").Null();
  }
  w.EndObject();
  out += '\n';
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "rwdt_serve: cannot write report: %s\n",
                 path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "rwdt_serve: run report written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  rwdt::serve::ServeOptions options;
  options.http.port = 8080;
  options.http.handler_threads = 8;
  options.http.max_body_bytes = 64u << 20;
  options.workers = 2;

  std::string trace_path;
  if (const char* env = std::getenv("RWDT_TRACE")) trace_path = env;
  std::string report_path;
  if (const char* env = std::getenv("RWDT_REPORT")) report_path = env;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", rwdt::common::BuildInfo::Get().ToString().c_str());
      return 0;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      if (!ParseDecimal(v, &options.http.port)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--bind", &v)) {
      options.http.bind_address = v;
    } else if (ParseFlag(argv[i], "--workers", &v)) {
      if (!ParseDecimal(v, &options.workers)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--handler-threads", &v)) {
      if (!ParseDecimal(v, &options.http.handler_threads)) {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(argv[i], "--queue", &v)) {
      if (!ParseDecimal(v, &options.queue_capacity)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--max-batch", &v)) {
      if (!ParseDecimal(v, &options.max_batch)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--max-body-mb", &v)) {
      size_t mb = 0;
      if (!ParseDecimal(v, &mb, SIZE_MAX >> 20)) return Usage(argv[0]);
      options.http.max_body_bytes = mb << 20;
    } else if (ParseFlag(argv[i], "--quota-qps", &v)) {
      options.quota_qps = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--quota-burst", &v)) {
      options.quota_burst = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--trace-sample", &v)) {
      options.trace_sample_rate = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--trace-seed", &v)) {
      if (!ParseDecimal(v, &options.trace_sample_seed)) return Usage(argv[0]);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      trace_path = v;
    } else if (ParseFlag(argv[i], "--slow-log", &v)) {
      size_t n = 0;
      if (!ParseDecimal(v, &n)) return Usage(argv[0]);
      options.enable_slow_log = n > 0;
      if (n > 0) options.slow_log.capacity = n;
    } else if (ParseFlag(argv[i], "--slow-window", &v)) {
      options.slow_log.window_s = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--report", &v)) {
      report_path = v;
    } else {
      return Usage(argv[0]);
    }
  }

  // RWDT_PROFILE=<path|1> self-profiles the whole serve lifetime (an
  // on-demand window is GET /profilez; the two are mutually exclusive
  // because the profiler is process-global).
  auto self_profile = rwdt::obs::MaybeStartEnvProfile("profile.collapsed");

  // The collector (when requested) outlives the server: spans recorded
  // during the final drain still land in the exported trace.
  std::unique_ptr<rwdt::obs::TraceCollector> collector;
  if (!trace_path.empty()) {
    rwdt::obs::TraceOptions topts;
    topts.process_name = "rwdt_serve";
    collector = std::make_unique<rwdt::obs::TraceCollector>(topts);
  }

  rwdt::serve::ClassifyServer server(std::move(options));
  const rwdt::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "rwdt_serve: start failed: %s\n",
                 status.message().c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::fprintf(stderr,
               "rwdt_serve: listening on %s:%u (%u workers, queue %zu)\n",
               server.options().http.bind_address.c_str(),
               static_cast<unsigned>(server.port()),
               server.options().workers, server.options().queue_capacity);
  std::fflush(stderr);

  // Park until SIGTERM/SIGINT or GET /quitquitquit, then drain.
  while (!server.WaitForQuit(1000)) {
  }
  std::fprintf(stderr, "rwdt_serve: draining\n");
  server.Stop();
  g_server = nullptr;

  if (!report_path.empty()) WriteRunReport(report_path, server);
  if (collector != nullptr && collector->installed()) {
    const rwdt::Status written = collector->WriteChromeJson(trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "rwdt_serve: trace export failed: %s\n",
                   written.message().c_str());
    } else {
      std::fprintf(stderr, "rwdt_serve: trace written to %s\n",
                   trace_path.c_str());
    }
  }
  if (self_profile != nullptr) {
    const rwdt::Status finished = self_profile->Finish();
    if (!finished.ok()) {
      std::fprintf(stderr, "rwdt_serve: profile export failed: %s\n",
                   finished.message().c_str());
    }
  }
  std::fprintf(stderr, "rwdt_serve: drained, exiting\n");
  return 0;
}
