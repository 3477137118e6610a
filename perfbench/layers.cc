#include "layers.h"

#include <cstdio>
#include <optional>
#include <span>
#include <utility>

#include "common/flat_interner.h"
#include "common/hash.h"
#include "core/query_analysis.h"
#include "core/verdict.h"
#include "engine/engine.h"
#include "ingest/line_scanner.h"
#include "loggen/sparql_gen.h"
#include "serve/verdict.h"
#include "sparql/parser.h"
#include "tree/xml.h"

namespace perfbench {

using rwdt::core::SourceStudy;

namespace {

// The ingest layer's defaults: its line cap and its blank-line test.
constexpr size_t kMaxLineBytes = size_t{1} << 20;

bool IsBlank(std::string_view s) {
  for (const char c : s) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

// serve::StudyToJson digest of CheckKnownStudy's fixed log. It changes
// only when the generator or the classifier battery reports differently.
constexpr uint64_t kKnownStudyDigest = 16598777146146579107ull;

/// Runs `fn` inside span `name` and adds the span's duration to *total_ns.
template <typename Fn>
void InSpan(Tracer* tracer, const char* name, double* total_ns, Fn&& fn) {
  const int id = tracer->Open(name);
  fn();
  tracer->Close(id);
  *total_ns += tracer->DurationNs(id);
}

}  // namespace

bool ReplayIngest(const std::string& path, Tracer* tracer,
                  LayerCounts* counts, IngestedLines* out) {
  auto open = [&path] { return rwdt::ingest::BlockReader::OpenFile(path); };
  auto mapped = open();
  if (!mapped.ok() || !mapped.value().used_mmap()) return false;
  rwdt::ingest::LineScanner::Line rec;
  {
    rwdt::ingest::BlockReader reader = std::move(mapped).value();
    rwdt::Arena carry;
    rwdt::ingest::LineScanner scanner(&reader, kMaxLineBytes, &carry);
    uint64_t lines = 0;
    uint64_t bytes = 0;
    {
      Scope scan(tracer, "ingest.scan");
      while (scanner.Next(&rec, &bytes)) ++lines;
    }
    counts->lines += lines;
    counts->bytes += bytes;
    counts->carry_stitches += scanner.carry_stitches();
  }

  // Second, untimed pass: keep each line (as a copy, so it outlives the
  // reader) for the layers below.
  std::vector<std::pair<std::string_view, bool>> lines;  // (text, overflow)
  {
    rwdt::ingest::BlockReader reader = open().value();
    rwdt::Arena carry;
    rwdt::ingest::LineScanner scanner(&reader, kMaxLineBytes, &carry);
    uint64_t bytes = 0;
    while (scanner.Next(&rec, &bytes)) {
      if (IsBlank(rec.text)) continue;
      lines.emplace_back(out->copies.Copy(rec.text), rec.overflow);
    }
  }

  std::vector<char> valid(lines.size(), 0);
  {
    Scope utf8(tracer, "ingest.utf8");
    for (size_t i = 0; i < lines.size(); ++i) {
      if (!lines[i].second) {
        valid[i] = rwdt::tree::IsValidUtf8(lines[i].first) ? 1 : 0;
      }
    }
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].second) {
      ++out->overflow_rejects;
      continue;
    }
    ++counts->utf8_checked;
    if (valid[i] != 0) {
      out->accepted.push_back(lines[i].first);
    } else {
      ++out->encoding_rejects;
    }
  }
  counts->rejects += out->overflow_rejects + out->encoding_rejects;
  return true;
}

SourceStudy ReplayEngine(const std::vector<std::string_view>& texts,
                         Tracer* tracer, LayerCounts* counts) {
  const size_t n = texts.size();
  SourceStudy study;
  study.total = n;
  counts->entries += n;
  double replayed = 0;

  std::vector<uint64_t> hashes(n);
  InSpan(tracer, "engine.hash", &replayed, [&] {
    for (size_t i = 0; i < n; ++i) hashes[i] = rwdt::Hash64(texts[i]);
  });

  rwdt::FlatInterner seen;
  std::vector<uint64_t> occurrences;  // per distinct text, first-seen order
  InSpan(tracer, "engine.dedup", &replayed, [&] {
    for (size_t i = 0; i < n; ++i) {
      const rwdt::SymbolId id = seen.InternWithHash(hashes[i], texts[i]);
      if (id == occurrences.size()) occurrences.push_back(0);
      ++occurrences[id];
    }
  });
  counts->distinct += occurrences.size();

  const rwdt::core::LogStudyOptions study_options;
  const rwdt::sparql::ParseLimits limits;
  rwdt::FlatInterner dict;  // cleared per parse, as each engine shard does
  std::vector<std::pair<rwdt::core::QueryAnalysis, uint64_t>> duplicated;
  for (rwdt::SymbolId id = 0; id < occurrences.size(); ++id) {
    const uint64_t occ = occurrences[id];
    dict.Clear();
    std::optional<rwdt::Result<rwdt::sparql::Query>> parsed;
    InSpan(tracer, "sparql.parse", &replayed, [&] {
      parsed.emplace(rwdt::sparql::ParseSparql(seen.Name(id), &dict, limits));
    });
    if (!parsed->ok()) {
      ++counts->parse_failures;
      study.errors[static_cast<size_t>(
          rwdt::ClassifyStatus(parsed->status()))] += occ;
      continue;
    }
    const rwdt::sparql::Query& q = parsed->value();
    rwdt::core::StageTimings st;
    rwdt::core::QueryVerdict verdict;
    InSpan(tracer, "core.classify", &replayed, [&] {
      const uint64_t t0 = NowNs();
      verdict = rwdt::core::Classify(q, study_options, &st);
      // Classify runs its stages back to back; chain their spans.
      const uint64_t t1 = t0 + st.feature_ns;
      const uint64_t t2 = t1 + st.hypergraph_ns;
      tracer->Record("core.features", t0, t1);
      tracer->Record("hypergraph.analyze", t1, t2);
      tracer->Record("paths.classify", t2, t2 + st.path_ns);
    });
    const rwdt::core::QueryAnalysis& a = verdict.analysis;
    const bool hypergraph_ran = a.ops.IsCqF() && q.pattern != nullptr &&
                                a.triples <= study_options.max_triples_for_htw;
    if (hypergraph_ran && a.ops.IsCq()) ++counts->pure_cq;
    if (hypergraph_ran && !a.cqf_htw1) ++counts->cyclic_cqf;
    if (!a.path_types.empty()) {
      counts->path_triples += a.path_types.size();
      counts->path_ns.push_back(static_cast<double>(st.path_ns));
    }

    study.valid += occ;
    study.unique += 1;
    for (rwdt::core::LogAggregates* agg :
         {&study.valid_agg, &study.unique_agg}) {
      InSpan(tracer, "core.aggregate", &replayed,
             [&] { rwdt::core::AddToAggregates(a, 1, agg); });
    }
    if (occ > 1) duplicated.emplace_back(a, occ - 1);
  }

  // The engine folds each duplicated text's extra weight in once, at
  // Finish; AddToAggregates is linear in the weight.
  {
    Scope fold(tracer, "engine.fold");
    for (const auto& [a, weight] : duplicated) {
      InSpan(tracer, "core.aggregate", &replayed, [&] {
        rwdt::core::AddToAggregates(a, weight, &study.valid_agg);
      });
    }
  }
  counts->replayed_ns += replayed;
  return study;
}

SourceStudy TimeEngineStream(const std::string& name, const IngestedLines& lines,
                             Tracer* tracer, LayerCounts* counts,
                             bool* two_thread_matches) {
  const std::span<const std::string_view> chunk(lines.accepted);
  auto run = [&](unsigned threads, const char* feed_name,
                 const char* finish_name, double* total_ns) {
    rwdt::engine::EngineOptions options;
    options.threads = threads;
    rwdt::engine::Engine engine(options);
    rwdt::engine::EngineStream stream =
        engine.OpenStream(name, /*wikidata_like=*/false);
    stream.Reject(rwdt::ErrorClass::kResourceExhausted, lines.overflow_rejects);
    stream.Reject(rwdt::ErrorClass::kEncodingError, lines.encoding_rejects);
    InSpan(tracer, feed_name, total_ns, [&] { stream.Feed(chunk); });
    SourceStudy study;
    InSpan(tracer, finish_name, total_ns, [&] { study = stream.Finish(); });
    return study;
  };
  SourceStudy one = run(1, "engine.feed_1t", "engine.finish_1t",
                        &counts->stream_1t_ns);
  const SourceStudy two = run(2, "engine.feed_2t", "engine.finish_2t",
                              &counts->stream_2t_ns);
  *two_thread_matches = one == two;
  return one;
}

void AddRejects(const IngestedLines& lines, SourceStudy* study) {
  study->total += lines.overflow_rejects + lines.encoding_rejects;
  study->errors[static_cast<size_t>(rwdt::ErrorClass::kResourceExhausted)] +=
      lines.overflow_rejects;
  study->errors[static_cast<size_t>(rwdt::ErrorClass::kEncodingError)] +=
      lines.encoding_rejects;
}

void AddLogLayerMetrics(const Tracer& tracer, const LayerCounts& counts,
                        Outcome* out) {
  auto per = [](double total, uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  if (counts.lines > 0) {
    out->Add("ingest.scan_ns_per_line", "ns",
             per(tracer.TotalNs("ingest.scan"), counts.lines));
    out->Add("ingest.utf8_ns_per_line", "ns",
             per(tracer.TotalNs("ingest.utf8"), counts.utf8_checked));
    out->Add("ingest.lines", "count", static_cast<double>(counts.lines));
    out->Add("ingest.bytes", "bytes", static_cast<double>(counts.bytes));
    out->Add("ingest.rejects", "count", static_cast<double>(counts.rejects));
    out->Add("ingest.carry_stitches", "count",
             static_cast<double>(counts.carry_stitches));
  }
  if (counts.entries == 0) return;

  const double feed_1t = tracer.TotalNs("engine.feed_1t");
  const double finish_1t = tracer.TotalNs("engine.finish_1t");
  out->Add("engine.hash_ns_per_entry", "ns",
           per(tracer.TotalNs("engine.hash"), counts.entries));
  out->Add("engine.dedup_ns_per_entry", "ns",
           per(tracer.TotalNs("engine.dedup"), counts.entries));
  out->Add("engine.distinct_share", "ratio",
           per(static_cast<double>(counts.distinct), counts.entries));
  out->Add("engine.feed_ms", "ms", feed_1t / 1e6);
  out->Add("engine.finish_ms", "ms", finish_1t / 1e6);
  out->Add("engine.speedup_2t", "x",
           counts.stream_2t_ns > 0 ? counts.stream_1t_ns / counts.stream_2t_ns
                                   : 0.0);
  out->Add("engine.unattributed_share", "ratio",
           feed_1t + finish_1t > 0
               ? 1.0 - counts.replayed_ns / (feed_1t + finish_1t)
               : 0.0);

  const std::vector<double> parse = tracer.DurationsNs("sparql.parse");
  out->Add("sparql.parse_calls", "count", static_cast<double>(parse.size()));
  out->Add("sparql.parse_ns_p50", "ns", Percentile(parse, 0.50));
  out->Add("sparql.parse_ns_p99", "ns", Percentile(parse, 0.99));
  out->Add("sparql.parse_ms", "ms", tracer.TotalNs("sparql.parse") / 1e6);
  out->Add("sparql.reject_share", "ratio",
           per(static_cast<double>(counts.parse_failures), parse.size()));

  out->Add("core.features_ns_p50", "ns",
           Median(tracer.DurationsNs("core.features")));
  out->Add("core.features_ms", "ms", tracer.TotalNs("core.features") / 1e6);
  out->Add("core.aggregate_ns_per_call", "ns",
           Mean(tracer.DurationsNs("core.aggregate")));

  const std::vector<double> hg = tracer.DurationsNs("hypergraph.analyze");
  out->Add("hypergraph.ms", "ms", tracer.TotalNs("hypergraph.analyze") / 1e6);
  out->Add("hypergraph.ns_p50", "ns", Percentile(hg, 0.50));
  out->Add("hypergraph.ns_p99", "ns", Percentile(hg, 0.99));
  out->Add("hypergraph.ns_max", "ns", Percentile(hg, 1.0));
  out->Add("hypergraph.pure_cq", "count", static_cast<double>(counts.pure_cq));
  out->Add("hypergraph.cyclic_cqf", "count",
           static_cast<double>(counts.cyclic_cqf));

  out->Add("paths.ns_p50", "ns", Median(counts.path_ns));
  out->Add("paths.path_triples", "count",
           static_cast<double>(counts.path_triples));
}

bool Balanced(const SourceStudy& study) {
  uint64_t errors = 0;
  for (const uint64_t e : study.errors) errors += e;
  return study.total == study.valid + errors;
}

void CheckKnownStudy(Outcome* out) {
  rwdt::engine::EngineOptions options;
  options.threads = 1;
  rwdt::engine::Engine engine(options);
  const SourceStudy study = engine.AnalyzeEntries(
      "known", false,
      rwdt::loggen::GenerateLog(rwdt::loggen::ExampleProfile(2000), 2022));
  const uint64_t digest = rwdt::Hash64(rwdt::serve::StudyToJson(study));
  if (digest != kKnownStudyDigest) {
    std::fprintf(stderr, "perfbench: known study digest %llu\n",
                 static_cast<unsigned long long>(digest));
  }
  out->Check(digest == kKnownStudyDigest && Balanced(study),
             "known-answer study digest");
}

void FinishTrace(const Options& options, const Tracer& tracer) {
  for (const auto& [layer, ns] : tracer.SelfNsByLayer()) {
    std::fprintf(stderr, "  self %-12s %12.3f ms\n", layer.c_str(), ns / 1e6);
  }
  const std::string path =
      options.work_dir + "/spans-" + options.workload + ".tsv";
  if (!tracer.WriteTsv(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
