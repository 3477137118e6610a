#ifndef RWDT_INGEST_INGEST_H_
#define RWDT_INGEST_INGEST_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "common/status.h"
#include "core/log_study.h"
#include "engine/engine.h"

namespace rwdt::ingest {

/// How raw log lines are interpreted.
enum class LogFormat {
  /// One query per line; the whole line is the query text.
  kPlain,
  /// Tab-separated "source<TAB>query"; lines without a tab are rejected
  /// as parse errors. The source column feeds IngestReport::per_source.
  kTsv,
};

/// Entries buffered per EngineStream::Feed call — the memory bound. Peak
/// resident query text is roughly kChunkEntries * mean line length,
/// independent of the log size.
inline constexpr size_t kChunkEntries = 4096;

struct IngestOptions {
  LogFormat format = LogFormat::kPlain;

  /// Block granularity of the reader. Settable for one reason:
  /// ingest_test shrinks it to a few bytes to put a block boundary at
  /// every alignment of a record, a CRLF pair and a UTF-8 sequence.
  size_t block_bytes = size_t{1} << 20;

  /// Lines longer than this are rejected as kResourceExhausted without
  /// buffering the full line. Settable for one reason: ingest_test
  /// shrinks it below the block size to reach an overflow that straddles
  /// two blocks.
  size_t max_line_bytes = 1 << 20;  // 1 MiB

  /// Name recorded on the resulting SourceStudy.
  std::string source_name = "ingest";
  bool wikidata_like = false;

  /// Engine configuration: threads (one shard each), live progress
  /// reporting (`engine.progress` reports this ingest, labeled
  /// `source_name`).
  engine::EngineOptions engine;

  /// Rejects nonsensical configurations (zero block or line budget,
  /// invalid engine options).
  Status Validate() const;
};

/// Everything one ingest run produces.
struct IngestReport {
  /// Total / Valid / Unique aggregates plus per-class error counts.
  /// study.total == study.valid + sum(study.errors).
  core::SourceStudy study;
  /// Engine counters at the end of the run (includes error classes,
  /// dedup occupancy, stage latencies). Serialize with ToJson/ToText.
  engine::Metrics metrics;

  uint64_t lines_read = 0;     // physical lines consumed (incl. skipped)
  uint64_t blank_lines = 0;    // skipped, not counted in study.total
  uint64_t bytes_read = 0;     // payload bytes consumed
  /// kTsv only: entry count per source column value.
  std::map<std::string, uint64_t> per_source;

  /// Reader provenance: how the bytes were acquired and stitched.
  bool used_mmap = false;       // the file was mapped, not read(2)
  uint64_t blocks_read = 0;     // blocks handed out
  uint64_t carry_stitches = 0;  // records straddling a block boundary

  /// Single JSON object: study counts (total/valid/unique + per-class
  /// errors), reader counters, per-source counts (keys escaped — source
  /// columns of corrupt logs may contain anything), and the full metrics
  /// snapshot.
  std::string ToJson() const;
};

/// Streams a raw query log through the engine in bounded-memory chunks.
///
/// The one reader is a zero-copy block pipeline: BlockReader (mmap for
/// regular files, buffered read(2) otherwise) and the SWAR LineScanner,
/// with query text flowing borrowed into the engine. It never
/// materializes the log: it buffers at most kChunkEntries lines (each
/// capped at `max_line_bytes`) before handing them to the engine and
/// releasing them. Blank (empty or whitespace-only) lines are skipped
/// and not counted; lines that are not valid UTF-8 are rejected as
/// kEncodingError before they reach the parser. Malformed lines are
/// classified into the error taxonomy and counted — a corrupt log
/// streams end-to-end without aborting, and the valid subset's
/// aggregates are bit-identical to analyzing only the surviving queries,
/// for any thread count and any chunk boundary.
Result<IngestReport> IngestStream(std::istream& in,
                                  const IngestOptions& options = {});

/// As above, but runs on a caller-owned engine (its metrics accumulate
/// across logs; nothing else carries over). `options.engine` is ignored.
Result<IngestReport> IngestStream(std::istream& in, engine::Engine* engine,
                                  const IngestOptions& options);

/// Opens `path` (mapped when it is a regular file) and ingests it.
/// Fails with kNotFound if unreadable.
Result<IngestReport> IngestFile(const std::string& path,
                                const IngestOptions& options = {});

}  // namespace rwdt::ingest

#endif  // RWDT_INGEST_INGEST_H_
