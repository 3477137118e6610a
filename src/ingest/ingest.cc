#include "ingest/ingest.h"

#include <array>
#include <istream>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/json.h"
#include "common/swar.h"
#include "ingest/block_reader.h"
#include "ingest/line_scanner.h"
#include "obs/log.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tree/xml.h"

namespace rwdt::ingest {
namespace {

bool IsBlank(std::string_view s) {
  for (const char c : s) {
    if (c != ' ' && c != '\t') return false;
  }
  return true;
}

/// Process-wide first-class registry counters for the reader taxonomy
/// (`/metrics` shows ingest health without waiting for the final
/// IngestReport). Instruments are registered once and cached. The line,
/// byte and block counters are folded in at chunk granularity, so a line
/// touches no shared counter; only a reject bumps one.
struct IngestInstruments {
  obs::Counter* lines;
  obs::Counter* bytes;
  obs::Counter* blank_lines;
  obs::Counter* blocks_mmap;
  obs::Counter* blocks_fallback;
  obs::Counter* carry_stitches;
  obs::Counter* runs;
  std::array<obs::Counter*, kNumErrorClasses> rejects;

  static const IngestInstruments& Get() {
    static const IngestInstruments* instruments = [] {
      auto* in = new IngestInstruments();
      auto& reg = obs::MetricRegistry::Global();
      in->lines = reg.GetCounter("rwdt_ingest_lines",
                                 "Physical lines read by the raw-log reader.");
      in->bytes = reg.GetCounter("rwdt_ingest_bytes",
                                 "Raw bytes consumed by the reader.");
      in->blank_lines = reg.GetCounter("rwdt_ingest_blank_lines",
                                       "Blank lines skipped by the reader.");
      in->blocks_mmap =
          reg.GetCounter("rwdt_ingest_blocks",
                         "Blocks handed out by the block reader, by how the "
                         "bytes were acquired.",
                         {{"io", "mmap"}});
      in->blocks_fallback =
          reg.GetCounter("rwdt_ingest_blocks",
                         "Blocks handed out by the block reader, by how the "
                         "bytes were acquired.",
                         {{"io", "read"}});
      in->carry_stitches = reg.GetCounter(
          "rwdt_ingest_carry_stitches",
          "Records straddling a block boundary, re-assembled in the carry "
          "arena.");
      in->runs = reg.GetCounter("rwdt_ingest_runs", "Ingest runs.");
      for (size_t c = 0; c < kNumErrorClasses; ++c) {
        in->rejects[c] = reg.GetCounter(
            "rwdt_ingest_rejects",
            "Reader-level rejects by taxonomy class.",
            {{"class", ErrorClassName(static_cast<ErrorClass>(c))}});
      }
      return in;
    }();
    return *instruments;
  }
};

/// One ingest run. Exactly one of `in` (stream input) or `path` (file
/// input, eligible for mmap) is non-null.
Result<IngestReport> Run(std::istream* in, const std::string* path,
                         engine::Engine* engine,
                         const IngestOptions& options) {
  RWDT_RETURN_IF_ERROR(options.Validate());

  obs::Span ingest_span("ingest");
  IngestReport report;
  BlockReader::Options bopts;
  bopts.block_bytes = options.block_bytes;
  std::optional<BlockReader> reader;
  if (path != nullptr) {
    // The reader opens the file itself so regular files can be mapped;
    // an unreadable path surfaces as kNotFound.
    RWDT_ASSIGN_OR_RETURN(BlockReader opened,
                          BlockReader::OpenFile(*path, bopts));
    reader.emplace(std::move(opened));
  } else {
    reader.emplace(in, bopts);
  }
  engine::EngineStream stream =
      engine->OpenStream(options.source_name, options.wikidata_like);

  // The chunk holds borrowed views only: into the mapped file or the
  // block buffer, or into `chunk_arena` for the one record per block
  // that straddles a boundary. The arena is reset once per flush — the
  // per-entry allocation of a std::string-per-line reader, batched into
  // one O(1) clear per chunk.
  std::vector<std::string_view> chunk;
  chunk.reserve(kChunkEntries);
  Arena chunk_arena;
  LineScanner scanner(&*reader, options.max_line_bytes, &chunk_arena);

  const IngestInstruments& metrics = IngestInstruments::Get();
  metrics.runs->Increment();

  // Line/byte/block progress reaches /metrics at chunk granularity
  // (delta at each flush), not per line — one shared-counter touch per
  // chunk.
  uint64_t lines_reported = 0;
  uint64_t blank_reported = 0;
  uint64_t bytes_reported = 0;
  uint64_t blocks_reported = 0;
  uint64_t stitches_reported = 0;
  auto flush = [&] {
    if (!chunk.empty()) {
      stream.Feed(std::span<const std::string_view>(chunk));
      chunk.clear();
    }
    chunk_arena.Clear();
    metrics.lines->Increment(report.lines_read - lines_reported);
    lines_reported = report.lines_read;
    metrics.blank_lines->Increment(report.blank_lines - blank_reported);
    blank_reported = report.blank_lines;
    metrics.bytes->Increment(report.bytes_read - bytes_reported);
    bytes_reported = report.bytes_read;
    obs::Counter* blocks =
        reader->used_mmap() ? metrics.blocks_mmap : metrics.blocks_fallback;
    blocks->Increment(reader->blocks_read() - blocks_reported);
    blocks_reported = reader->blocks_read();
    metrics.carry_stitches->Increment(scanner.carry_stitches() -
                                      stitches_reported);
    stitches_reported = scanner.carry_stitches();
  };

  // Every reader-level reject is a structured log event carrying the
  // error class, physical line number, and the ingest stage that
  // tripped. DEBUG level: per-line events are only composed when the
  // logger is opened up that far, so a 20%-corrupt million-line log
  // costs nothing by default.
  auto reject = [&](ErrorClass c, const char* stage) {
    stream.Reject(c);
    metrics.rejects[static_cast<size_t>(c)]->Increment();
    RWDT_LOG(DEBUG) << "ingest reject: class=" << ErrorClassName(c)
                    << " line=" << report.lines_read << " stage=" << stage
                    << " source=" << options.source_name;
  };

  // An unstable (non-mmap) reader reuses its block buffer: the chunk's
  // borrowed views must reach the engine before the buffer turns over.
  // Mapped blocks are stable for the whole run, so the hook never fires
  // and chunk size alone decides flush timing.
  scanner.set_release_hook(flush);
  LineScanner::Line rec;
  while (scanner.Next(&rec, &report.bytes_read)) {
    report.lines_read++;
    if (IsBlank(rec.text)) {
      report.blank_lines++;
      continue;
    }
    // Oversize first: a truncated line's tab or encoding is meaningless.
    if (rec.overflow) {
      reject(ErrorClass::kResourceExhausted, "read");
      continue;
    }

    std::string_view query = rec.text;
    if (options.format == LogFormat::kTsv) {
      const size_t tab = swar::ScanToByte(query.data(), query.size(), '\t').at;
      if (tab == query.size()) {
        // Structurally broken record; no source column to attribute.
        reject(ErrorClass::kParseError, "split");
        continue;
      }
      report.per_source[std::string(query.substr(0, tab))]++;
      query = query.substr(tab + 1);
    }

    // The scan flagged every line holding a byte >= 0x80; only those
    // can be invalid UTF-8.
    if (!rec.ascii && !tree::IsValidUtf8(query)) {
      reject(ErrorClass::kEncodingError, "utf8");
      continue;
    }

    chunk.push_back(query);
    if (chunk.size() >= kChunkEntries) flush();
  }
  report.used_mmap = reader->used_mmap();
  report.blocks_read = reader->blocks_read();
  report.carry_stitches = scanner.carry_stitches();
  flush();

  report.study = stream.Finish();
  report.metrics = engine->Snapshot();
  RWDT_LOG(INFO) << "ingest " << options.source_name << ": "
                 << report.lines_read << " lines, " << report.study.valid
                 << " valid, " << report.study.unique << " unique, "
                 << (report.study.total - report.study.valid)
                 << " rejected, " << report.blank_lines << " blank";
  return report;
}

}  // namespace

Status IngestOptions::Validate() const {
  if (max_line_bytes == 0) {
    return Status::InvalidArgument("max_line_bytes must be > 0");
  }
  if (block_bytes == 0) {
    return Status::InvalidArgument("block_bytes must be > 0");
  }
  RWDT_RETURN_IF_ERROR(engine.Validate());
  return Status::Ok();
}

std::string IngestReport::ToJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("study").BeginObject();
  w.StringField("name", study.name);
  w.BoolField("wikidata_like", study.wikidata_like);
  w.UIntField("total", study.total);
  w.UIntField("valid", study.valid);
  w.UIntField("unique", study.unique);
  w.Key("errors").BeginObject();
  for (size_t c = 0; c < kNumErrorClasses; ++c) {
    w.UIntField(ErrorClassName(static_cast<ErrorClass>(c)), study.errors[c]);
  }
  w.EndObject();  // errors
  w.EndObject();  // study
  w.UIntField("lines_read", lines_read);
  w.UIntField("blank_lines", blank_lines);
  w.UIntField("bytes_read", bytes_read);
  w.BoolField("used_mmap", used_mmap);
  w.UIntField("blocks_read", blocks_read);
  w.UIntField("carry_stitches", carry_stitches);
  w.Key("per_source").BeginObject();
  for (const auto& [source, count] : per_source) {
    // Raw log bytes: the key must be escaped (JsonWriter always does).
    w.UIntField(source, count);
  }
  w.EndObject();  // per_source
  w.RawField("metrics", metrics.ToJson());
  w.EndObject();
  return out;
}

Result<IngestReport> IngestStream(std::istream& in,
                                  const IngestOptions& options) {
  RWDT_RETURN_IF_ERROR(options.Validate());
  engine::Engine engine(options.engine);
  return Run(&in, nullptr, &engine, options);
}

Result<IngestReport> IngestStream(std::istream& in, engine::Engine* engine,
                                  const IngestOptions& options) {
  return Run(&in, nullptr, engine, options);
}

Result<IngestReport> IngestFile(const std::string& path,
                                const IngestOptions& options) {
  RWDT_RETURN_IF_ERROR(options.Validate());
  engine::Engine engine(options.engine);
  return Run(nullptr, &path, &engine, options);
}

}  // namespace rwdt::ingest
