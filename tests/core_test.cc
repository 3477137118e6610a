#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/log_study.h"
#include "core/studies.h"
#include "core/verdict.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "loggen/corruptor.h"
#include "loggen/sparql_gen.h"
#include "serve/verdict.h"
#include "sparql/parser.h"

namespace rwdt::core {
namespace {

engine::EngineOptions OneThread() {
  engine::EngineOptions options;
  options.threads = 1;
  return options;
}

TEST(LogStudyTest, BasicInvariants) {
  loggen::SourceProfile p = loggen::ExampleProfile(1500);
  const SourceStudy study = engine::Engine(OneThread()).AnalyzeLog(p, 101);
  EXPECT_EQ(study.total, 1500u);
  EXPECT_LE(study.valid, study.total);
  EXPECT_LE(study.unique, study.valid);
  EXPECT_GT(study.unique, 0u);
  // Valid aggregate counts every valid query once.
  EXPECT_EQ(study.valid_agg.queries, study.valid);
  EXPECT_EQ(study.unique_agg.queries, study.unique);
  // Histogram sums to the Select/Ask/Construct count.
  uint64_t hist = 0;
  for (uint64_t h : study.valid_agg.triple_histogram) hist += h;
  EXPECT_EQ(hist, study.valid_agg.select_ask_construct);
}

TEST(LogStudyTest, FragmentContainments) {
  loggen::SourceProfile p = loggen::ExampleProfile(1500);
  const SourceStudy s = engine::Engine(OneThread()).AnalyzeLog(p, 55);
  const LogAggregates& a = s.valid_agg;
  // CQ subseteq CQ+F subseteq C2RPQ+F.
  EXPECT_LE(a.cq, a.cq_f);
  EXPECT_LE(a.cq_f, a.c2rpq_f);
  // Operator-set rows sum into the fragment subtotals.
  EXPECT_EQ(a.cq, a.ops_none + a.ops_and);
  EXPECT_EQ(a.cq_f,
            a.ops_none + a.ops_and + a.ops_filter + a.ops_and_filter);
  // Well-designed subseteq AFO-only.
  EXPECT_LE(a.well_designed, a.afo_only);
  // Most AFO queries are well-designed (paper: ~98%).
  if (a.afo_only > 100) {
    EXPECT_GT(10 * a.well_designed, 9 * a.afo_only);
  }
  // Cumulative hypergraph classes.
  EXPECT_LE(a.cq_fca, a.cq_htw1);
  EXPECT_LE(a.cq_htw1, a.cq_htw2);
  EXPECT_LE(a.cq_htw2, a.cq_htw3);
  EXPECT_LE(a.cqf_htw2, a.cqf_htw3);
  EXPECT_LE(a.cq_htw3, a.cq);
  EXPECT_LE(a.cqf_htw3, a.cq_f);
}

TEST(LogStudyTest, ShapesDominatedBySimpleOnes) {
  loggen::SourceProfile p = loggen::ExampleProfile(2000);
  const SourceStudy s = engine::Engine(OneThread()).AnalyzeLog(p, 77);
  const LogAggregates& a = s.valid_agg;
  ASSERT_GT(a.graph_cqf, 100u);
  uint64_t simple = 0, total = 0;
  for (const auto& [shape, count] : a.shapes_with_constants) {
    total += count;
    if (shape <= hypergraph::GraphShape::kStar) simple += count;
  }
  EXPECT_EQ(total, a.graph_cqf);
  // Chains and stars dominate (Table 7: ~98-99%).
  EXPECT_GT(simple * 100, total * 85);
}

TEST(LogStudyTest, WikidataProfileShowsPaths) {
  auto profiles = loggen::Table2Profiles(/*scale=*/500000);
  const loggen::SourceProfile* wiki = nullptr;
  for (const auto& p : profiles) {
    if (p.name == "WikiRobot/OK") wiki = &p;
  }
  ASSERT_NE(wiki, nullptr);
  loggen::SourceProfile scaled = *wiki;
  scaled.total_queries = 2500;
  const SourceStudy s = engine::Engine(OneThread()).AnalyzeLog(scaled, 31);
  const LogAggregates& a = s.valid_agg;
  // Property paths prominent (paper: 24% of Wikidata queries).
  const uint64_t with_paths =
      a.feature_counts.count(sparql::Feature::kPropertyPaths) > 0
          ? a.feature_counts.at(sparql::Feature::kPropertyPaths)
          : 0;
  EXPECT_GT(with_paths * 100, a.select_ask_construct * 10);
  // a* dominates the type distribution (Table 8: 50%).
  ASSERT_GT(a.property_paths, 50u);
  const uint64_t astar =
      a.path_types.count(paths::Table8Type::kAStar) > 0
          ? a.path_types.at(paths::Table8Type::kAStar)
          : 0;
  EXPECT_GT(astar * 100, a.property_paths * 30);
  // Nearly all paths are simple transitive expressions (>98%).
  EXPECT_GT(a.path_ste * 100, a.property_paths * 95);
}

TEST(LogStudyTest, MergeAddsUp) {
  loggen::SourceProfile p = loggen::ExampleProfile(500);
  engine::Engine engine(OneThread());
  SourceStudy a = engine.AnalyzeLog(p, 1);
  SourceStudy b = engine.AnalyzeLog(p, 2);
  SourceStudy merged = a;
  MergeSource(b, &merged);
  EXPECT_EQ(merged.total, a.total + b.total);
  EXPECT_EQ(merged.valid_agg.queries,
            a.valid_agg.queries + b.valid_agg.queries);
  EXPECT_EQ(merged.valid_agg.cq_f, a.valid_agg.cq_f + b.valid_agg.cq_f);
}

TEST(DtdStudyTest, MatchesGeneratorKnobs) {
  Interner dict;
  loggen::DtdCorpusOptions options;
  options.num_dtds = 103;  // the Bex et al. corpus size
  auto corpus = loggen::GenerateDtdCorpus(options, &dict, 13);
  const DtdStudyResult r = RunDtdStudy(corpus, dict);
  EXPECT_EQ(r.num_dtds, 103u);
  EXPECT_GT(r.num_expressions, 500u);
  // >92% chain, >99% SORE, few nondeterministic (paper Sections 4.2.2-3).
  EXPECT_GT(r.chain_expressions * 100, r.num_expressions * 85);
  EXPECT_GT(r.sores * 100, r.num_expressions * 94);
  EXPECT_GT(r.deterministic * 100, r.num_expressions * 90);
  EXPECT_LE(r.sores, r.kore2);
  EXPECT_GE(r.max_parse_depth, 2u);
  EXPECT_LE(r.max_parse_depth, 9u);
}

TEST(XmlQualityStudyTest, TopCategoriesDominate) {
  Interner dict;
  loggen::XmlCorpusOptions options;
  options.num_documents = 800;
  auto corpus = loggen::GenerateXmlCorpus(options, &dict, 21);
  const XmlQualityResult r = RunXmlQualityStudy(corpus);
  EXPECT_EQ(r.documents, 800u);
  // ~85% well-formed (the study's headline number).
  EXPECT_GT(r.well_formed * 100, r.documents * 75);
  EXPECT_LT(r.well_formed, r.documents);
  // The top three categories cover most errors (paper: 79.9%).
  uint64_t errors = 0;
  for (const auto& [cat, count] : r.error_histogram) {
    (void)cat;
    errors += count;
  }
  const uint64_t top3 =
      r.error_histogram.count(tree::XmlErrorCategory::kTagMismatch)
          ? r.error_histogram.at(tree::XmlErrorCategory::kTagMismatch)
          : 0;
  EXPECT_GT(errors, 0u);
  EXPECT_GT(top3 * 10, errors * 2);  // tag mismatch alone > 20%
}

TEST(XPathStudyTest, FragmentsNestProperly) {
  Interner dict;
  loggen::XPathCorpusOptions options;
  options.num_queries = 1000;
  auto corpus = loggen::GenerateXPathCorpus(options, 29);
  const XPathStudyResult r = RunXPathStudy(corpus, &dict);
  EXPECT_EQ(r.parsed, r.queries);
  // Tree patterns are positive and downward by definition.
  EXPECT_LE(r.tree_patterns, r.downward);
  EXPECT_LE(r.tree_patterns, r.positive);
  EXPECT_GT(r.downward, r.queries / 2);
  // child is the most used axis (Baelde: 31.1% of axis uses).
  auto count_of = [&](const std::string& axis) -> uint64_t {
    auto it = r.axis_counts.find(axis);
    return it == r.axis_counts.end() ? 0 : it->second;
  };
  EXPECT_GT(count_of("child"), count_of("parent"));
}

TEST(TreewidthStudyTest, BoundsOrdered) {
  Rng rng(3);
  graph::SimpleGraph road = graph::MakeRoadNetwork(20, 8, 0.1, 0.05, rng);
  const TreewidthRow row = MeasureTreewidth("road", road, true);
  EXPECT_EQ(row.nodes, 160u);
  EXPECT_LE(row.lower, row.upper);
  EXPECT_GT(row.upper, 0u);
}

// The study outputs, pinned: the serve::StudyToJson digest of each
// study, recorded when the classifier was last changed on purpose. Any
// change in what the classifier answers for a generated log changes one
// of them. A deliberate change updates the constants and says why.

uint64_t StudyDigest(const SourceStudy& study) {
  return Hash64(serve::StudyToJson(study));
}

TEST(StudyDigestTest, Table2ProfilesAtDefaultScale) {
  struct Expected {
    const char* source;
    uint64_t digest;
  };
  static const Expected kExpected[] = {
      {"DBpedia9-12", 2553012177560895641u},
      {"DBpedia13", 15248635159126828980u},
      {"DBpedia14", 16596947994270028130u},
      {"DBpedia15", 4719088133665209301u},
      {"DBpedia16", 6125935893435921589u},
      {"DBpedia17", 12225566447443310653u},
      {"LGD13", 8072166337055616051u},
      {"LGD14", 14160522409628054355u},
      {"BioP13", 14521578927515389286u},
      {"BioP14", 13637026992870992197u},
      {"BioMed13", 12179597134482799337u},
      {"SWDF13", 876378629228522647u},
      {"BritM14", 11031124697631212820u},
      {"WikiRobot/OK", 8004940090387937387u},
      {"WikiOrganic/OK", 12848248185661185153u},
      {"WikiRobot/TO", 17211537453907532924u},
      {"WikiOrganic/TO", 9268673076184913113u},
  };
  engine::Engine engine(OneThread());
  const std::vector<loggen::SourceProfile> profiles =
      loggen::Table2Profiles();
  ASSERT_EQ(profiles.size(), std::size(kExpected));
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].name, kExpected[i].source);
    EXPECT_EQ(StudyDigest(engine.AnalyzeLog(profiles[i], 2022)),
              kExpected[i].digest)
        << profiles[i].name;
  }
}

TEST(StudyDigestTest, DuplicateHeavyCorruptLog) {
  // Shaped like perfbench's ingest-dup log: every text ~27 times, 2% of
  // the entries corrupted.
  loggen::SourceProfile profile = loggen::ExampleProfile(48000);
  profile.name = "ingest-dup";
  profile.duplicate_factor = 27;
  std::vector<loggen::LogEntry> log = loggen::GenerateLog(profile, 2022);
  loggen::CorruptionOptions corruption;
  corruption.rate = 0.02;
  loggen::CorruptLog(&log, 2023, corruption);
  engine::Engine engine(OneThread());
  EXPECT_EQ(StudyDigest(engine.AnalyzeEntries("ingest-dup", false, log)),
            8447534514373440340u);
}

// Parse and classify time stay bounded up to the parser's byte limit on
// the shapes that load each classifier most: chains of OPTIONALs (the
// well-designedness check), chains of FILTERs (the acyclicity test and
// the htw search on a long cycle), and cliques (the htw search's
// budget).

/// `SELECT * WHERE { ?x0 <p> ?y0 ` + unit(1) + unit(2) + ... +
/// tail(n) + `}` with the most units n that keep it within `max_bytes`.
std::string ChainQuery(const std::function<std::string(int)>& unit,
                       const std::function<std::string(int)>& tail,
                       size_t max_bytes) {
  std::string body;
  int n = 0;
  const std::string head = "SELECT * WHERE { ?x0 <p> ?y0 ";
  for (;;) {
    std::string next = unit(n + 1);
    if (head.size() + body.size() + next.size() + tail(n + 1).size() + 1 >
        max_bytes) {
      break;
    }
    body += next;
    ++n;
  }
  return head + body + tail(n) + "}";
}

std::string V(const char* prefix, int i) {
  return std::string("?") + prefix + std::to_string(i);
}

/// Parses and classifies `text`, failing the test if either takes longer
/// than a bound that is generous for a sanitizer build.
QueryVerdict TimedClassify(const std::string& text) {
  constexpr double kBoundSeconds = 10;
  const auto start = std::chrono::steady_clock::now();
  Interner dict;
  auto parsed = sparql::ParseSparql(text, &dict);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return QueryVerdict{};
  const QueryVerdict verdict = Classify(parsed.value(), LogStudyOptions{});
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, kBoundSeconds) << text.size() << " bytes";
  return verdict;
}

// The chains nest up to ~50,000 AST levels. They run on the default
// stack: the AST is flat arrays, every walk the classifier makes is a
// loop, and destroying a query frees a few vectors.

TEST(ClassifyTimeTest, OptionalChainsUpToTheByteLimit) {
  auto none = [](int) { return std::string(); };
  auto optional = [](int i) {
    return "OPTIONAL { ?x0 <q> " + V("y", i) + " } ";
  };
  auto optional_filter = [](int i) {
    return "OPTIONAL { ?x0 <q> " + V("y", i) + " FILTER(" + V("y", i) +
           " != ?x0) } ";
  };
  // A later triple reuses the first OPTIONAL's P2 variable ?y1, which
  // its P1 does not bind: not well-designed.
  auto reuse = [](int) { return std::string("?y1 <r> ?w "); };
  const size_t max_bytes = sparql::ParseLimits{}.max_query_bytes;
  for (size_t bytes = 16 << 10; bytes <= max_bytes; bytes *= 8) {
    SCOPED_TRACE(bytes);
    const QueryVerdict chain =
        TimedClassify(ChainQuery(optional, none, bytes));
    EXPECT_TRUE(chain.analysis.afo_only);
    EXPECT_TRUE(chain.analysis.well_designed);
    const QueryVerdict filtered =
        TimedClassify(ChainQuery(optional_filter, none, bytes));
    EXPECT_TRUE(filtered.analysis.well_designed);
    const QueryVerdict reused =
        TimedClassify(ChainQuery(optional, reuse, bytes));
    EXPECT_TRUE(reused.analysis.afo_only);
    EXPECT_FALSE(reused.analysis.well_designed);
  }
}

TEST(ClassifyTimeTest, FilterChainsUpToTheByteLimit) {
  auto none = [](int) { return std::string(); };
  auto unary = [](int i) { return "FILTER(bound(" + V("v", i) + ")) "; };
  auto path = [](int i) {
    return "FILTER(" + V("v", i) + " != " + V("v", i + 1) + ") ";
  };
  auto close_cycle = [](int n) {
    return "FILTER(" + V("v", n + 1) + " != ?v1) ";
  };
  const size_t max_bytes = sparql::ParseLimits{}.max_query_bytes;
  for (size_t bytes = 16 << 10; bytes <= max_bytes; bytes *= 8) {
    SCOPED_TRACE(bytes);
    // Acyclic: the canonical hypergraph reduces under GYO.
    EXPECT_EQ(TimedClassify(ChainQuery(unary, none, bytes)).HtwLe(), 1u);
    EXPECT_EQ(TimedClassify(ChainQuery(path, none, bytes)).HtwLe(), 1u);
    // A cycle of filters: cyclic, and far too long for the htw search's
    // budget, which then answers "unknown".
    const QueryVerdict cycle =
        TimedClassify(ChainQuery(path, close_cycle, bytes));
    EXPECT_TRUE(cycle.analysis.ops.IsCqF());
    EXPECT_FALSE(cycle.analysis.cqf_htw1);
  }
}

TEST(ClassifyTimeTest, CliquesStayWithinTheHtwBudget) {
  // K10 as 45 triple patterns (648 bytes, under max_triples_for_htw),
  // and K14 as 91 binary FILTERs beside one triple. Both have hypertree
  // width above 3; proving it exceeds the search's work budget, so the
  // answer is "unknown", which reads as not <= 3.
  std::string triples = "SELECT * WHERE { ";
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      triples += V("v", i) + " <p> " + V("v", j) + " . ";
    }
  }
  triples += "}";
  std::string filters = "SELECT * WHERE { ?x0 <p> ?y0 ";
  for (int i = 0; i < 14; ++i) {
    for (int j = i + 1; j < 14; ++j) {
      filters += "FILTER(" + V("v", i) + " != " + V("v", j) + ") ";
    }
  }
  filters += "}";
  EXPECT_EQ(TimedClassify(triples).HtwLe(), 0u);
  EXPECT_EQ(TimedClassify(filters).HtwLe(), 0u);
}

}  // namespace
}  // namespace rwdt::core
