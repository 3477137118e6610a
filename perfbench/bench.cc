// rwdt_perfbench: runs one benchmark workload and prints its metrics.
//
//   rwdt_perfbench --workload=ingest-dup --seed=1 --seconds=30 --trace=0
//                  --serve-bin=PATH --work-dir=DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; perfbench/run.py builds this
// binary, runs it, and checks that line against BENCHMARK.json.

#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "common/build_info.h"
#include "common/json.h"

namespace perfbench {

void Outcome::Add(std::string name, std::string unit, double value) {
  metrics.push_back({std::move(name), std::move(unit), value});
}

bool Outcome::Op(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    if (failed == 0) std::fprintf(stderr, "perfbench: FAILED %s\n", what);
    ++failed;
  }
  return ok;
}

void Outcome::Check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", what);
  checks_passed = false;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void PrintSpread(const char* what, const std::vector<double>& samples) {
  std::fprintf(stderr,
               "perfbench: %s: n=%zu min=%.6g p25=%.6g p50=%.6g p75=%.6g "
               "p99=%.6g max=%.6g\n",
               what, samples.size(), Percentile(samples, 0),
               Percentile(samples, 0.25), Percentile(samples, 0.5),
               Percentile(samples, 0.75), Percentile(samples, 0.99),
               Percentile(samples, 1));
}

double MedianSetupSeconds(int times, const std::function<void()>& between,
                          const std::function<void()>& setup) {
  std::vector<double> runs;
  for (int i = 0; i < times; ++i) {
    if (i > 0) between();
    const uint64_t t0 = NowNs();
    setup();
    runs.push_back(Seconds(NowNs() - t0));
  }
  return Median(std::move(runs));
}

bool ResetPeakRss(pid_t pid) {
  std::ofstream f("/proc/" + std::to_string(pid) + "/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

double PeakRssMiB(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return -1;
}

void TrimHeap() { malloc_trim(0); }

uint64_t Fingerprint(std::string_view bytes, uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

int Tracer::Open(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  if (span.end_ns == 0) span.end_ns = NowNs();  // a Scope may close again
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns) {
  return RecordUnder(open_.empty() ? -1 : open_.back(), name, start_ns,
                     end_ns);
}

int Tracer::RecordUnder(int parent, const char* name, uint64_t start_ns,
                        uint64_t end_ns) {
  spans_.push_back({name, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> Tracer::DurationsNs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::TotalNs(std::string_view name) const {
  double sum = 0;
  for (const double d : DurationsNs(name)) sum += d;
  return sum;
}

double Tracer::DurationNs(int id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns);
}

std::vector<std::pair<std::string, double>> Tracer::SelfNsByLayer() const {
  std::vector<double> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    const std::string layer(name.substr(0, name.find('.')));
    by_layer[layer] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "run_id\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu\t%zu\t%d\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(run_id_), i, s.parent,
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rwdt_perfbench --workload=NAME --seed=N --seconds=N "
               "--trace=0|1 --serve-bin=PATH --work-dir=DIR\n"
               "  workloads: ingest-dup exec-mix\n");
  return 2;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (ParseFlag(argv[i], "--serve-bin", &v)) {
      options.serve_bin = v;
    } else if (ParseFlag(argv[i], "--work-dir", &v)) {
      options.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0 || options.work_dir.empty()) return Usage();

  // The git revision is printed by run.py, which reads it on every run;
  // the one the library's build recorded is as old as its configure step.
  const rwdt::common::BuildInfo& build = rwdt::common::BuildInfo::Get();
  std::printf("provenance: build_type=%s compiler=\"%s\" nproc=%u\n",
              build.build_type, build.compiler,
              std::thread::hardware_concurrency());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Outcome out;
  if (options.workload == "ingest-dup") {
    if (options.trace && options.serve_bin.empty()) return Usage();
    perfbench::RunIngestDup(options, &out);
  } else if (options.workload == "exec-mix") {
    perfbench::RunExecMix(options, &out);
  } else {
    return Usage();
  }

  for (const perfbench::Metric& m : out.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json;
  rwdt::JsonWriter w(&json);
  w.BeginObject();
  w.BoolField("correct", out.checks_passed && out.failed == 0);
  w.UIntField("attempted", out.attempted);
  w.UIntField("failed", out.failed);
  w.Key("metrics").BeginObject();
  for (const perfbench::Metric& m : out.metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Raw(Number(m.value));
    w.StringField("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", json.c_str());
  return 0;
}
