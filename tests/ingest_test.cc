#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/interner.h"
#include "engine/engine.h"
#include "ingest/block_reader.h"
#include "ingest/line_scanner.h"
#include "loggen/corruptor.h"
#include "loggen/log_text.h"
#include "loggen/sparql_gen.h"
#include "obs/log.h"
#include "obs/registry.h"
#include "sparql/parser.h"
#include "tree/json.h"
#include "tree/xml.h"

namespace rwdt::ingest {
namespace {

uint64_t ErrorCount(const core::SourceStudy& study, ErrorClass c) {
  return study.errors[static_cast<size_t>(c)];
}

uint64_t TotalErrors(const core::SourceStudy& study) {
  uint64_t n = 0;
  for (const uint64_t e : study.errors) n += e;
  return n;
}

// Golden mapping: each kind of broken line lands in exactly the taxonomy
// class the design doc promises.
TEST(IngestTest, ClassifiesBrokenLinesIntoTaxonomy) {
  std::stringstream in;
  in << "SELECT ?x WHERE { ?x a ?y }\n"            // valid
     << "SELECT ?x WHERE { ?x \"unterminated }\n"  // lex: bad literal
     << "SELECT ?x WHERE {\n"                      // parse: open group
     << "SELECT ?x WHERE { [ a ?y ] }\n"           // unsupported: bnode list
     << "SELECT ?x WHERE { ?x a \xff\xfe }\n"      // encoding: bad UTF-8
     << "SELECT ?x WHERE { ?x a ?y }\n";           // duplicate of line 1

  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok()) << r.error_message();
  const IngestReport& report = r.value();

  EXPECT_EQ(report.lines_read, 6u);
  EXPECT_EQ(report.study.total, 6u);
  EXPECT_EQ(report.study.valid, 2u);
  EXPECT_EQ(report.study.unique, 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kLexError), 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kParseError), 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kUnsupportedFeature), 1u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kEncodingError), 1u);
  EXPECT_EQ(report.study.total, report.study.valid + TotalErrors(report.study));
}

TEST(IngestTest, OversizeLineRejectedAsResourceExhausted) {
  IngestOptions opts;
  opts.max_line_bytes = 32;
  std::stringstream in;
  in << "SELECT ?x WHERE { ?x a ?y }\n"
     << std::string(1000, 'x') << "\n"
     << "SELECT ?x WHERE { ?x a ?y }\n";

  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().study.total, 3u);
  EXPECT_EQ(r.value().study.valid, 2u);
  EXPECT_EQ(ErrorCount(r.value().study, ErrorClass::kResourceExhausted), 1u);
  // The whole stream was consumed even though the long line wasn't kept.
  EXPECT_EQ(r.value().bytes_read, 28u + 1001u + 28u);
}

TEST(IngestTest, ParserStepBudgetRejectsAsResourceExhausted) {
  // A query nesting past the parser's depth bound, between two that fit.
  std::string deep = "ASK ";
  for (int i = 0; i < 1000; ++i) deep += "{ ";
  deep += "?s ?p ?o";
  for (int i = 0; i < 1000; ++i) deep += " }";
  std::stringstream in;
  in << "ASK { ?x a ?y }\n" << deep << "\n"
     << "SELECT ?a ?b ?c WHERE { ?a ?b ?c . ?c ?b ?a . ?b ?a ?c }\n";

  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().study.total, 3u);
  // Everything over budget lands in resource_exhausted, nothing aborts.
  EXPECT_EQ(r.value().study.valid, 2u);
  EXPECT_EQ(ErrorCount(r.value().study, ErrorClass::kResourceExhausted), 1u);
}

TEST(IngestTest, TsvFormatSplitsSourceColumn) {
  IngestOptions opts;
  opts.format = LogFormat::kTsv;
  std::stringstream in;
  in << "alpha\tSELECT ?x WHERE { ?x a ?y }\n"
     << "alpha\tSELECT ?y WHERE { ?y a ?x }\n"
     << "beta\tASK { ?s ?p ?o }\n"
     << "no tab on this line\n";

  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  const IngestReport& report = r.value();
  EXPECT_EQ(report.study.total, 4u);
  EXPECT_EQ(report.study.valid, 3u);
  EXPECT_EQ(ErrorCount(report.study, ErrorClass::kParseError), 1u);
  ASSERT_EQ(report.per_source.size(), 2u);
  EXPECT_EQ(report.per_source.at("alpha"), 2u);
  EXPECT_EQ(report.per_source.at("beta"), 1u);
}

TEST(IngestTest, BlankLinesSkippedWithoutCounting) {
  std::stringstream in;
  in << "\n"
     << "   \t \n"
     << "ASK { ?s ?p ?o }\n"
     << "\n";
  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().lines_read, 4u);
  EXPECT_EQ(r.value().blank_lines, 3u);
  EXPECT_EQ(r.value().study.total, 1u);
  EXPECT_EQ(r.value().study.valid, 1u);
}

TEST(IngestTest, MetricsJsonCarriesErrorCounts) {
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n"
     << "\xff not utf8\n";
  auto r = IngestStream(in);
  ASSERT_TRUE(r.ok());
  const std::string json = r.value().metrics.ToJson();
  EXPECT_NE(json.find("\"errors\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"encoding_error\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"entries_valid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"entries_rejected\":1"), std::string::npos) << json;
}

TEST(IngestTest, RejectsNonsensicalOptions) {
  IngestOptions zero_block;
  zero_block.block_bytes = 0;
  EXPECT_FALSE(zero_block.Validate().ok());

  IngestOptions zero_line;
  zero_line.max_line_bytes = 0;
  EXPECT_FALSE(zero_line.Validate().ok());

  IngestOptions bad_engine;
  bad_engine.engine.threads = 1u << 20;
  EXPECT_FALSE(bad_engine.Validate().ok());

  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n";
  EXPECT_FALSE(IngestStream(in, zero_line).ok());
}

TEST(IngestTest, MissingFileIsNotFound) {
  auto r = IngestFile("/nonexistent/query.log");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST(CorruptorTest, DeterministicInSeed) {
  loggen::SourceProfile profile = loggen::ExampleProfile(200);
  const auto pristine = loggen::GenerateLog(profile, 5);

  auto a = pristine, b = pristine, c = pristine;
  const auto sa = loggen::CorruptLog(&a, 17);
  const auto sb = loggen::CorruptLog(&b, 17);
  const auto sc = loggen::CorruptLog(&c, 18);
  EXPECT_EQ(sa.corrupted_indices, sb.corrupted_indices);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
  // A different seed picks a different victim set (overwhelmingly likely
  // for 200 entries at the default 20% rate).
  EXPECT_NE(sa.corrupted_indices, sc.corrupted_indices);
}

TEST(CorruptorTest, EnsureInvalidMeansCorruptedNeverParses) {
  loggen::SourceProfile profile = loggen::ExampleProfile(200);
  auto log = loggen::GenerateLog(profile, 5);
  loggen::CorruptionOptions opts;
  opts.rate = 1.0;
  const auto summary = loggen::CorruptLog(&log, 23, opts);
  EXPECT_EQ(summary.corrupted, log.size());
  Interner dict;
  for (const auto& entry : log) {
    EXPECT_FALSE(sparql::ParseSparql(entry.text, &dict).ok())
        << "still parses: " << entry.text;
  }
}

// The tentpole property: corruption at ANY rate never changes what the
// engine reports for the surviving queries. The Valid-subset aggregates
// of a corrupted ingest run are bit-identical to analyzing only the
// uncorrupted entries directly — for every thread count and chunk
// boundary. Stream input reuses its block buffer, so every block
// turnover flushes a chunk: the block sizes below move the chunk
// boundaries from a few lines to the whole log.
TEST(IngestTest, CorruptionNeverPerturbsValidSubsetAggregates) {
  loggen::SourceProfile profile = loggen::ExampleProfile(300);
  const auto pristine = loggen::GenerateLog(profile, 11);

  for (const double rate : {0.0, 0.2, 0.5, 1.0}) {
    auto corrupted = pristine;
    loggen::CorruptionOptions copts;
    copts.rate = rate;
    const auto summary = loggen::CorruptLog(&corrupted, 29, copts);

    // Reference: the surviving (untouched) entries through the engine.
    std::vector<loggen::LogEntry> surviving;
    size_t next_corrupt = 0;
    for (size_t i = 0; i < pristine.size(); ++i) {
      if (next_corrupt < summary.corrupted_indices.size() &&
          summary.corrupted_indices[next_corrupt] == i) {
        ++next_corrupt;
        continue;
      }
      surviving.push_back(pristine[i]);
    }
    engine::Engine reference{engine::EngineOptions{}};
    const core::SourceStudy expected =
        reference.AnalyzeEntries("ref", false, surviving);

    const std::string text = [&corrupted] {
      std::stringstream out;
      loggen::WriteLogText(corrupted, out);
      return out.str();
    }();

    core::SourceStudy first;
    bool have_first = false;
    for (const unsigned threads : {1u, 2u, 8u}) {
      for (const size_t block_bytes :
           {size_t{16}, size_t{1024}, size_t{1} << 20}) {
        IngestOptions opts;
        opts.source_name = "ref";
        opts.engine.threads = threads;
        opts.block_bytes = block_bytes;
        std::stringstream in(text);
        auto r = IngestStream(in, opts);
        ASSERT_TRUE(r.ok()) << r.error_message();
        const core::SourceStudy& got = r.value().study;

        EXPECT_EQ(got.total, pristine.size());
        EXPECT_EQ(got.valid, expected.valid) << "rate " << rate;
        EXPECT_EQ(got.unique, expected.unique) << "rate " << rate;
        EXPECT_TRUE(got.valid_agg == expected.valid_agg) << "rate " << rate;
        EXPECT_TRUE(got.unique_agg == expected.unique_agg)
            << "rate " << rate;
        if (!have_first) {
          first = got;
          have_first = true;
        } else {
          // Full study (including per-class error counts) is identical
          // across every thread count and chunk size.
          EXPECT_TRUE(got == first)
              << "rate " << rate << " threads " << threads
              << " block_bytes " << block_bytes;
        }
      }
    }
  }
}

// --- Reader differential tests -----------------------------------------
//
// The block pipeline (BlockReader + SWAR LineScanner + string_view
// chunks) must be observationally identical to a plain std::getline
// splitter: same study, same line/byte accounting, same per-source split
// — for every line-ending dialect and every block size, including the
// degenerate 1-byte blocks that put a boundary inside every record,
// every CRLF pair, and every UTF-8 sequence.

/// The reference reader: std::getline over the text, one line at a time
/// into the same engine, with the ingest line semantics spelled out.
/// Lines are split on '\n' (a final line may lack it) and keep at most
/// max_line_bytes bytes, minus one trailing '\r'. Blank lines are
/// skipped uncounted; then an over-long line is resource_exhausted, a
/// TSV line without a tab a parse error, invalid UTF-8 an encoding
/// error, and everything else goes to the parser.
IngestReport ReferenceIngest(const std::string& text,
                             const IngestOptions& opts) {
  IngestReport report;
  engine::Engine engine(opts.engine);
  engine::EngineStream stream =
      engine.OpenStream(opts.source_name, opts.wikidata_like);
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    report.lines_read++;
    report.bytes_read += raw.size() + (in.eof() ? 0 : 1);  // + '\n'
    std::string line = raw.substr(0, opts.max_line_bytes);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) {
      report.blank_lines++;
      continue;
    }
    if (raw.size() > opts.max_line_bytes) {
      stream.Reject(ErrorClass::kResourceExhausted);
      continue;
    }
    std::string_view query = line;
    if (opts.format == LogFormat::kTsv) {
      const size_t tab = query.find('\t');
      if (tab == std::string_view::npos) {
        stream.Reject(ErrorClass::kParseError);
        continue;
      }
      report.per_source[std::string(query.substr(0, tab))]++;
      query.remove_prefix(tab + 1);
    }
    if (!tree::IsValidUtf8(query)) {
      stream.Reject(ErrorClass::kEncodingError);
      continue;
    }
    stream.Feed(std::span<const std::string_view>(&query, 1));
  }
  report.study = stream.Finish();
  return report;
}

IngestReport MustIngest(const std::string& text, const IngestOptions& opts) {
  std::stringstream in(text);
  auto r = IngestStream(in, opts);
  EXPECT_TRUE(r.ok()) << r.error_message();
  return std::move(r).value();
}

void ExpectSameObservables(const IngestReport& reference,
                           const IngestReport& block,
                           const std::string& context) {
  EXPECT_TRUE(reference.study == block.study) << context;
  EXPECT_EQ(reference.lines_read, block.lines_read) << context;
  EXPECT_EQ(reference.blank_lines, block.blank_lines) << context;
  EXPECT_EQ(reference.bytes_read, block.bytes_read) << context;
  EXPECT_EQ(reference.per_source, block.per_source) << context;
}

/// Runs `text` through the block reader and the line scanner alone and
/// checks every record's `ascii` bit against its kept bytes: true
/// exactly when none is >= 0x80, for in-block, stitched and overlong
/// records alike. Returns how many records hold a high byte.
size_t ExpectExactAsciiBits(const std::string& text, size_t block_bytes,
                            size_t max_line_bytes,
                            const std::string& context) {
  std::istringstream in(text);
  BlockReader::Options bopts;
  bopts.block_bytes = block_bytes;
  BlockReader reader(&in, bopts);
  Arena carry;
  LineScanner scanner(&reader, max_line_bytes, &carry);
  LineScanner::Line rec;
  uint64_t bytes = 0;
  size_t records = 0;
  size_t high = 0;
  while (scanner.Next(&rec, &bytes)) {
    const bool ascii =
        std::all_of(rec.text.begin(), rec.text.end(), [](char c) {
          return static_cast<unsigned char>(c) < 0x80;
        });
    EXPECT_EQ(rec.ascii, ascii) << context << " record " << records;
    high += ascii ? 0 : 1;
    ++records;
  }
  return high;
}

TEST(IngestReaderDifferentialTest, BitIdenticalOnCorruptedLogsAllDialects) {
  loggen::SourceProfile profile = loggen::ExampleProfile(150);
  auto log = loggen::GenerateLog(profile, 19);
  loggen::CorruptionOptions copts;
  copts.rate = 0.3;
  loggen::CorruptLog(&log, 31, copts);

  for (const bool tsv : {false, true}) {
    for (const bool crlf : {false, true}) {
      for (const bool final_newline : {false, true}) {
        loggen::LogTextOptions lopts;
        lopts.crlf = crlf;
        lopts.final_newline = final_newline;
        std::stringstream out;
        if (tsv) {
          loggen::WriteLogTsv(log, "src", out, lopts);
        } else {
          loggen::WriteLogText(log, out, lopts);
        }
        const std::string text = out.str();

        IngestOptions opts;
        opts.format = tsv ? LogFormat::kTsv : LogFormat::kPlain;
        opts.engine.threads = 1;
        const IngestReport reference = ReferenceIngest(text, opts);
        // The UTF-8 splices must reach the encoding check for the sweep
        // to test which lines skip it; ExpectSameObservables compares
        // the per-class error counts with the rest of the study.
        ASSERT_GT(ErrorCount(reference.study, ErrorClass::kEncodingError),
                  0u);
        for (const size_t block_bytes :
             {size_t{1}, size_t{2}, size_t{3}, size_t{7}, size_t{64},
              size_t{4096}, size_t{1} << 20}) {
          opts.block_bytes = block_bytes;
          const IngestReport block = MustIngest(text, opts);
          const std::string context =
              "tsv=" + std::to_string(tsv) + " crlf=" + std::to_string(crlf) +
              " final_newline=" + std::to_string(final_newline) +
              " block_bytes=" + std::to_string(block_bytes);
          ExpectSameObservables(reference, block, context);
          EXPECT_GT(ExpectExactAsciiBits(text, block_bytes,
                                         opts.max_line_bytes, context),
                    0u)
              << context;
          EXPECT_FALSE(block.used_mmap) << context;  // istream fallback
          if (block_bytes < 64) {
            // Tiny blocks force records across boundaries: the carry
            // path must actually have run for this sweep to mean much.
            EXPECT_GT(block.carry_stitches, 0u) << context;
          }
        }
      }
    }
  }
}

TEST(IngestReaderDifferentialTest, OverflowSpanningBlocksMatchesReference) {
  // A 100-byte line against max_line_bytes=16 and block_bytes=32: the
  // overflow is detected mid-carry and the tail still has to be drained
  // with exact byte accounting.
  std::string text = "ASK { ?s ?p ?o }\n";
  text += std::string(100, 'x') + "\n";
  text += "ASK { ?s ?p ?o }\n";

  IngestOptions opts;
  opts.engine.threads = 1;
  opts.max_line_bytes = 16;
  const IngestReport reference = ReferenceIngest(text, opts);
  EXPECT_EQ(ErrorCount(reference.study, ErrorClass::kResourceExhausted), 1u);

  for (const size_t block_bytes : {size_t{1}, size_t{16}, size_t{32}}) {
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(reference, block,
                          "block_bytes=" + std::to_string(block_bytes));
  }
}

TEST(IngestReaderDifferentialTest, Utf8AndCrSplitAcrossBlockEdges) {
  // Multibyte UTF-8 ("Ü" = 0xC3 0x9C) inside a literal and a CRLF pair:
  // 1..8-byte blocks place a boundary inside both. The query must stay
  // valid and '\r' stripping must not eat real bytes.
  const std::string query = "SELECT ?x WHERE { ?x a \"\xc3\x9c\" }";
  const std::string text = query + "\r\n" + query + "\r\n";

  IngestOptions opts;
  opts.engine.threads = 1;
  const IngestReport reference = ReferenceIngest(text, opts);
  EXPECT_EQ(reference.study.valid, 2u);
  EXPECT_EQ(reference.study.unique, 1u);

  for (size_t block_bytes = 1; block_bytes <= 8; ++block_bytes) {
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(reference, block,
                          "block_bytes=" + std::to_string(block_bytes));
  }
}

TEST(IngestReaderDifferentialTest, AsciiBitFlagsEveryHighByteItKeeps) {
  // High bytes just before a stripped '\r' (invalid 0xFF and a valid
  // "Ü"), a record long enough to straddle small blocks with a high
  // byte in its middle, and an overlong record whose only high byte
  // lies in the dropped tail (so its kept bytes are ASCII).
  const std::string valid = "SELECT ?x WHERE { ?x a \"\xc3\x9c\" }";
  const std::string long_query =
      "SELECT ?x WHERE { ?x <p> ?y . ?y <q> \"" + std::string(40, 'z') +
      "\xc3\x9c" + std::string(40, 'z') + "\" }";
  const std::string text = "ASK { ?s ?p ?o }\xff\r\n" + valid + "\r\n" +
                           long_query + "\n" + std::string(200, 'w') +
                           "\xff\n" + valid + "\n";

  IngestOptions opts;
  opts.engine.threads = 1;
  opts.max_line_bytes = 160;
  const IngestReport reference = ReferenceIngest(text, opts);
  EXPECT_EQ(ErrorCount(reference.study, ErrorClass::kEncodingError), 1u);
  EXPECT_EQ(ErrorCount(reference.study, ErrorClass::kResourceExhausted), 1u);
  EXPECT_EQ(reference.study.valid, 3u);

  for (const size_t block_bytes : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                                   size_t{16}, size_t{64}, size_t{4096}}) {
    const std::string context = "block_bytes=" + std::to_string(block_bytes);
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(reference, block, context);
    // Four records keep a high byte: the two before a '\r', the long
    // query and the last line. The overlong line keeps none.
    EXPECT_EQ(
        ExpectExactAsciiBits(text, block_bytes, opts.max_line_bytes, context),
        4u)
        << context;
    if (block_bytes < 64) {
      EXPECT_GT(block.carry_stitches, 0u) << context;
    }
  }
}

TEST(IngestReaderDifferentialTest, EmbeddedNulsPassThroughIdentically) {
  std::string text = "ASK { ?s ?p ?o }\n";
  text += std::string("bad\0query", 9) + "\n";
  text += std::string("\0", 1) + "\n";

  for (const size_t block_bytes : {size_t{1}, size_t{4096}}) {
    IngestOptions opts;
    opts.engine.threads = 1;
    const IngestReport reference = ReferenceIngest(text, opts);
    opts.block_bytes = block_bytes;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(reference, block,
                          "block_bytes=" + std::to_string(block_bytes));
    // NUL-bearing lines are real records, not terminators.
    EXPECT_EQ(block.lines_read, 3u);
  }
}

TEST(IngestReaderDifferentialTest, EmptyAndNewlinelessInputs) {
  for (const std::string& text :
       {std::string{}, std::string{"ASK { ?s ?p ?o }"},  // no final '\n'
        std::string{"\n"}, std::string{"\r\n"}}) {
    IngestOptions opts;
    opts.engine.threads = 1;
    const IngestReport reference = ReferenceIngest(text, opts);
    opts.block_bytes = 4;
    const IngestReport block = MustIngest(text, opts);
    ExpectSameObservables(reference, block, "text=" + text);
  }
}

TEST(IngestReaderDifferentialTest, FileIngestUsesMmapAndMatchesReference) {
  loggen::SourceProfile profile = loggen::ExampleProfile(120);
  auto log = loggen::GenerateLog(profile, 23);
  loggen::CorruptionOptions copts;
  copts.rate = 0.25;
  loggen::CorruptLog(&log, 37, copts);

  std::stringstream out;
  loggen::WriteLogText(log, out);
  const std::string text = out.str();
  const std::string path =
      ::testing::TempDir() + "/rwdt_ingest_differential.log";
  {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file << text;
  }

  IngestOptions opts;
  opts.engine.threads = 1;
  const IngestReport reference = ReferenceIngest(text, opts);
  auto block = IngestFile(path, opts);
  ASSERT_TRUE(block.ok()) << block.error_message();
  std::remove(path.c_str());

  ExpectSameObservables(reference, block.value(), "file ingest");
  // Regular file => the mapped zero-copy path, in one 1 MiB block.
  EXPECT_TRUE(block.value().used_mmap);
  EXPECT_EQ(block.value().blocks_read, 1u);
  EXPECT_EQ(block.value().carry_stitches, 0u);
}

TEST(IngestTest, BlockReaderCountersReachMetricRegistry) {
  // The PR 5 registry carries the block pipeline's provenance series:
  // blocks by acquisition mode, carry stitches, and runs by reader.
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\nASK { ?s ?p ?o }\n";
  IngestOptions opts;
  opts.engine.threads = 1;
  opts.block_bytes = 4;  // forces carry stitches
  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().carry_stitches, 0u);

  const std::string om = obs::MetricRegistry::Global().RenderOpenMetrics();
  EXPECT_NE(om.find("rwdt_ingest_blocks_total{io=\"read\"}"),
            std::string::npos)
      << om;
  EXPECT_NE(om.find("rwdt_ingest_carry_stitches_total"), std::string::npos);
  EXPECT_NE(om.find("rwdt_ingest_runs_total "), std::string::npos) << om;
}

/// The value of one unlabeled counter in the global registry's
/// exposition, e.g. "rwdt_ingest_lines_total"; 0 when absent.
uint64_t RegistryCounter(const std::string& series) {
  const std::string om = obs::MetricRegistry::Global().RenderOpenMetrics();
  const size_t at = om.find("\n" + series + " ");
  if (at == std::string::npos) return 0;
  return std::stoull(om.substr(at + series.size() + 2));
}

TEST(IngestTest, LineCountersReachMetricRegistryAtEachFlush) {
  // More lines than one chunk holds, blank lines among them, so the
  // counters are folded in over several flushes.
  std::string text;
  uint64_t blank = 0;
  for (size_t i = 0; i < kChunkEntries + kChunkEntries / 2; ++i) {
    if (i % 7 == 3) {
      text += "\n";
      ++blank;
    } else {
      text += "ASK { ?s <p" + std::to_string(i % 50) + "> ?o }\n";
    }
  }
  const std::string path = ::testing::TempDir() + "/rwdt_ingest_lines.log";
  {
    std::ofstream file(path, std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file << text;
  }
  const uint64_t lines_before = RegistryCounter("rwdt_ingest_lines_total");
  const uint64_t blank_before =
      RegistryCounter("rwdt_ingest_blank_lines_total");
  IngestOptions opts;
  opts.engine.threads = 1;
  auto r = IngestFile(path, opts);
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok()) << r.error_message();
  EXPECT_GT(r.value().lines_read, kChunkEntries);
  EXPECT_EQ(r.value().blank_lines, blank);
  EXPECT_EQ(RegistryCounter("rwdt_ingest_lines_total") - lines_before,
            r.value().lines_read);
  EXPECT_EQ(RegistryCounter("rwdt_ingest_blank_lines_total") - blank_before,
            blank);
}

TEST(IngestTest, ReportJsonCarriesReaderProvenance) {
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n";
  IngestOptions opts;
  opts.engine.threads = 1;
  auto r = IngestStream(in, opts);
  ASSERT_TRUE(r.ok());
  const std::string json = r.value().ToJson();
  EXPECT_NE(json.find("\"used_mmap\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"blocks_read\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"carry_stitches\":"), std::string::npos) << json;
}

// One progress knob: `engine.progress` reports an ingest once, labeled
// with its source name, and the run report's counters are the
// IngestReport's.
TEST(IngestTest, ProgressReportPathWritesOneRunReportMatchingTheIngest) {
  class CaptureSink : public obs::LogSink {
   public:
    void Write(const obs::LogRecord& record) override {
      messages.push_back(record.message);
    }
    std::vector<std::string> messages;
  };
  auto sink = std::make_shared<CaptureSink>();
  obs::Logger::Global().SetSinks({sink});

  const std::string path = ::testing::TempDir() + "/rwdt_ingest_report.json";
  std::remove(path.c_str());
  std::stringstream in;
  in << "ASK { ?s ?p ?o }\n"
     << "ASK { ?s ?p ?o }\n"
     << "SELECT ?x WHERE {\n"
     << "\xff not utf8\n";
  IngestOptions opts;
  opts.source_name = "progress-src";
  opts.engine.threads = 1;
  opts.engine.progress.report_path = path;
  auto r = IngestStream(in, opts);
  obs::Logger::Global().ResetToDefault();
  ASSERT_TRUE(r.ok()) << r.error_message();
  const IngestReport& report = r.value();

  size_t reports_written = 0;
  for (const std::string& message : sink->messages) {
    if (message.find("run report written to") != std::string::npos) {
      ++reports_written;
    }
  }
  EXPECT_EQ(reports_written, 1u);

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::stringstream contents;
  contents << file.rdbuf();
  file.close();
  std::remove(path.c_str());
  Interner dict;
  const auto parsed = tree::ParseJson(contents.str(), &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.error_message() << contents.str();
  EXPECT_EQ(parsed.value()->Get("label")->string_value(), "progress-src");
  const tree::JsonPtr m = parsed.value()->Get("metrics");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Get("entries_processed")->number_value(),
            static_cast<double>(report.metrics.entries_processed));
  EXPECT_EQ(m->Get("entries_processed")->number_value(),
            static_cast<double>(report.study.total));
  EXPECT_EQ(m->Get("queries_analyzed")->number_value(),
            static_cast<double>(report.metrics.queries_analyzed));
  EXPECT_EQ(m->Get("parse_failures")->number_value(),
            static_cast<double>(report.metrics.parse_failures));
  EXPECT_EQ(m->Get("entries_valid")->number_value(),
            static_cast<double>(report.study.valid));
  EXPECT_EQ(m->Get("entries_rejected")->number_value(),
            static_cast<double>(report.study.total - report.study.valid));
}

}  // namespace
}  // namespace rwdt::ingest
