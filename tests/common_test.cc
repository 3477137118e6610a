#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"
#include "common/interner.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/swar.h"
#include "common/table.h"

namespace rwdt {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, ConvertsToBoolAndExposesMessage) {
  Result<int> good = 1;
  Result<int> bad = Status::ParseError("bad token");
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_EQ(good.error_message(), "");
  EXPECT_EQ(bad.error_message(), "bad token");
}

TEST(StatusMacroTest, ReturnIfErrorForwardsBothShapes) {
  auto from_status = [](Status s) -> Status {
    RWDT_RETURN_IF_ERROR(s);
    return Status::Ok();
  };
  auto from_result = [](Result<int> r) -> Status {
    RWDT_RETURN_IF_ERROR(r);
    return Status::Ok();
  };
  EXPECT_TRUE(from_status(Status::Ok()).ok());
  EXPECT_EQ(from_status(Status::LexError("x")).code(), Code::kLexError);
  EXPECT_TRUE(from_result(3).ok());
  EXPECT_EQ(from_result(Status::NotFound("x")).code(), Code::kNotFound);
}

TEST(ResultTest, MovedOutStatusKeepsCodeAndMessage) {
  // Longer than any small-string buffer, so the message lives on the
  // heap and moving it hands over the buffer.
  const std::string message(100, 'm');
  Result<int> r = Status::ParseError(message);
  const Status moved = std::move(r).status();
  EXPECT_EQ(moved.code(), Code::kParseError);
  EXPECT_EQ(moved.message(), message);
  // Both macros move a temporary's status up the call chain.
  auto leaf = [&]() -> Result<int> { return Status::LexError(message); };
  auto middle = [&]() -> Result<int> {
    RWDT_ASSIGN_OR_RETURN(const int x, leaf());
    return x;
  };
  auto top = [&]() -> Status {
    RWDT_RETURN_IF_ERROR(middle());
    return Status::Ok();
  };
  const Status passed_up = top();
  EXPECT_EQ(passed_up.code(), Code::kLexError);
  EXPECT_EQ(passed_up.message(), message);
  Result<int> good = 5;
  EXPECT_TRUE(std::move(good).status().ok());
}

TEST(StatusTest, IsOnePointer) {
  static_assert(sizeof(Status) == sizeof(void*));
  EXPECT_EQ(sizeof(Result<std::pair<uint32_t, uint32_t>>), 2 * sizeof(void*));
}

TEST(StatusTest, OkMessageIsEmpty) {
  const Status ok;
  EXPECT_EQ(ok.code(), Code::kOk);
  EXPECT_TRUE(ok.message().empty());
  EXPECT_TRUE(ok.error_message().empty());
  EXPECT_TRUE(Status::Ok().message().empty());
  EXPECT_TRUE(Status(Code::kOk, "dropped").ok());
}

TEST(StatusTest, CopyOfAnErrorOutlivesItsSource) {
  const std::string message(100, 'c');
  std::optional<Status> source = Status::NotFound(message);
  const Status copy = *source;
  Status assigned;
  assigned = *source;
  source.reset();
  EXPECT_EQ(copy.code(), Code::kNotFound);
  EXPECT_EQ(copy.message(), message);
  EXPECT_EQ(assigned.code(), Code::kNotFound);
  EXPECT_EQ(assigned.message(), message);
  // Assigning OK over an error frees the error and reads OK.
  assigned = Status::Ok();
  EXPECT_TRUE(assigned.ok());
  EXPECT_TRUE(assigned.message().empty());
}

TEST(StatusTest, SelfAssignmentKeepsTheError) {
  Status s = Status::Internal("kept");
  Status& alias = s;
  s = alias;
  EXPECT_EQ(s.code(), Code::kInternal);
  EXPECT_EQ(s.message(), "kept");
  s = std::move(alias);
  EXPECT_EQ(s.code(), Code::kInternal);
  EXPECT_EQ(s.message(), "kept");
}

TEST(ResultTest, CopiesAndMovesAnError) {
  const std::string message(100, 'r');
  Result<std::string> error = Status::Unsupported(message);
  const Result<std::string> copy = error;
  ASSERT_FALSE(copy.ok());
  EXPECT_EQ(copy.status().code(), Code::kUnsupported);
  EXPECT_EQ(copy.error_message(), message);
  Result<std::string> moved = std::move(error);
  ASSERT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), Code::kUnsupported);
  EXPECT_EQ(moved.error_message(), message);
  // Assigning an error over a value, and a value over an error.
  Result<std::string> target = std::string("value");
  target = copy;
  EXPECT_EQ(target.status().code(), Code::kUnsupported);
  target = std::string("again");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "again");
}

TEST(StatusMacroTest, AssignOrReturnDeclaresAndAssigns) {
  auto chain = [](Result<int> a, Result<int> b) -> Result<int> {
    RWDT_ASSIGN_OR_RETURN(const int x, std::move(a));
    std::vector<int> ys(1);
    RWDT_ASSIGN_OR_RETURN(ys[0], std::move(b));  // lvalue, not a decl
    return x + ys[0];
  };
  Result<int> ok = chain(2, 3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  Result<int> err = chain(2, Status::ResourceExhausted("budget"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Code::kResourceExhausted);
}

TEST(ErrorClassTest, ClassifiesEveryCode) {
  EXPECT_EQ(ClassifyStatus(Status::LexError("x")), ErrorClass::kLexError);
  EXPECT_EQ(ClassifyStatus(Status::ParseError("x")),
            ErrorClass::kParseError);
  EXPECT_EQ(ClassifyStatus(Status::Unsupported("x")),
            ErrorClass::kUnsupportedFeature);
  EXPECT_EQ(ClassifyStatus(Status::ResourceExhausted("x")),
            ErrorClass::kResourceExhausted);
  EXPECT_EQ(ClassifyStatus(Status::EncodingError("x")),
            ErrorClass::kEncodingError);
  // Non-parse codes fold into the parse-error bucket.
  EXPECT_EQ(ClassifyStatus(Status::Internal("x")), ErrorClass::kParseError);
}

TEST(ErrorClassTest, NamesAreStableSnakeCase) {
  EXPECT_STREQ(ErrorClassName(ErrorClass::kLexError), "lex_error");
  EXPECT_STREQ(ErrorClassName(ErrorClass::kParseError), "parse_error");
  EXPECT_STREQ(ErrorClassName(ErrorClass::kUnsupportedFeature),
               "unsupported_feature");
  EXPECT_STREQ(ErrorClassName(ErrorClass::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(ErrorClassName(ErrorClass::kEncodingError),
               "encoding_error");
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const int64_t v = rng.NextInt(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(RngTest, NextWeightedRespectsZeros) {
  Rng rng(11);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextWeighted(weights), 1u);
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(5);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(ZipfTest, SkewsTowardSmallIndices) {
  Rng rng(3);
  ZipfSampler zipf(100, 1.5);
  size_t first_bucket = 0;
  const size_t trials = 10000;
  for (size_t i = 0; i < trials; ++i) {
    if (zipf.Sample(rng) == 0) ++first_bucket;
  }
  // Index 0 has probability ~ 1/zeta(1.5, 100) ~= 0.4.
  EXPECT_GT(first_bucket, trials / 4);
}

TEST(StatsTest, SummaryBasics) {
  Summary s = Summarize({5, 1, 3});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 5u);
  EXPECT_EQ(s.median, 3u);
}

TEST(StatsTest, SummaryEmpty) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(StatsTest, PowerLawAlphaRecoversExponent) {
  // Sample from a discrete power law with alpha=2.5 via inverse CDF on a
  // Zipf sampler and check the MLE lands near 2.5.
  Rng rng(42);
  ZipfSampler zipf(100000, 2.5);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<uint64_t>(zipf.Sample(rng)) + 1);
  }
  const double alpha = PowerLawAlpha(values, 2);
  EXPECT_GT(alpha, 2.0);
  EXPECT_LT(alpha, 3.0);
}

TEST(StatsTest, ClampedHistogram) {
  auto h = ClampedHistogram({0, 1, 1, 5, 99}, 3);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], 1u);
  EXPECT_EQ(h[1], 2u);
  EXPECT_EQ(h[2], 0u);
  EXPECT_EQ(h[3], 2u);  // 5 and 99 clamp into "3+"
}

TEST(TableTest, FormatsThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(28651075), "28,651,075");
}

TEST(TableTest, FormatsPercent) {
  EXPECT_EQ(Percent(1, 4), "25.00%");
  EXPECT_EQ(Percent(0, 4), "0.00%");
  EXPECT_EQ(Percent(0, 4, /*blank_zero=*/true), "");
  EXPECT_EQ(Percent(1, 0), "0.00%");
}

TEST(TableTest, RendersAlignedTable) {
  AsciiTable t({"Name", "Count"});
  t.AddRow({"alpha", "12"});
  t.AddSeparator();
  t.AddRow({"b", "1,234"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| Name  | Count |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |    12 |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 1,234 |"), std::string::npos);
}

TEST(Hash64Test, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("SELECT * WHERE { ?s ?p ?o }"),
            Hash64("SELECT * WHERE { ?s ?p ?o }"));
  EXPECT_NE(Hash64("SELECT"), Hash64("SELECT "));
  EXPECT_NE(Hash64("abc", 1), Hash64("abc", 2));
  // Empty and one-past-boundary lengths go through the tail path.
  const std::string eight(8, 'x');
  EXPECT_NE(Hash64(""), Hash64("x"));
  EXPECT_NE(Hash64(eight), Hash64(eight + "x"));
}

TEST(Hash64Test, NoTrivialCollisionsOnGeneratedKeys) {
  // Sanity, not a cryptographic claim: 64-bit hashes of 100k distinct
  // short keys should not collide (a birthday collision at this size
  // has probability ~3e-10; any collision indicates a broken mixer).
  std::set<uint64_t> seen;
  for (int i = 0; i < 100000; ++i) {
    seen.insert(Hash64("key:" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 100000u);
}

/// Hash64 with its 1-7 tail bytes read one at a time at every length:
/// the reference the one-load tail must match, since shard routing,
/// the study digests and perfbench's known-answer digest rest on the
/// values.
uint64_t ByteTailHash64(std::string_view s, uint64_t seed = kHashSeed) {
  using hash_internal::Load64;
  using hash_internal::Mix;
  constexpr uint64_t k1 = 0x9e3779b97f4a7c15ull;
  constexpr uint64_t k2 = 0xbf58476d1ce4e5b9ull;
  constexpr uint64_t k3 = 0x94d049bb133111ebull;
  const char* p = s.data();
  size_t n = s.size();
  uint64_t h = Mix(seed ^ k1, n + 1);
  while (n >= 8) {
    h = Mix(h ^ Load64(p), k2);
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < n; ++i) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return Mix(h ^ tail, k3);
}

TEST(Hash64Test, OneLoadTailMatchesTheByteLoopAtEveryLength) {
  // Random bytes over the full range (high bytes included), every length
  // from 0 to 256, unaligned starts, several generator and hash seeds.
  for (const uint64_t rng_seed : {1u, 2u, 3u, 0x4841u}) {
    Rng rng(rng_seed);
    std::string buf(256 + 8, '\0');
    for (char& c : buf) c = static_cast<char>(rng.NextBelow(256));
    for (const uint64_t seed : {kHashSeed, uint64_t{0}, rng.Next()}) {
      for (size_t skew = 0; skew < 8; skew += 3) {
        for (size_t n = 0; n <= 256; ++n) {
          const std::string_view s(buf.data() + skew, n);
          ASSERT_EQ(Hash64(s, seed), ByteTailHash64(s, seed))
              << "rng_seed=" << rng_seed << " n=" << n << " skew=" << skew;
        }
      }
    }
  }
}

TEST(Hash64Test, KnownValues) {
  // Computed with the byte-loop tail: a 27-byte text (3-byte tail) and
  // an 18-byte one holding a two-byte UTF-8 sequence (2-byte tail).
  EXPECT_EQ(Hash64("SELECT * WHERE { ?s ?p ?o }"), 0xce92e5d34ab29056ull);
  EXPECT_EQ(Hash64("ASK { ?x <\xc3\x9c> ?y }", 42), 0x51ffe9fa9d0d24b2ull);
}

TEST(ArenaTest, CopyRoundTripsAndClearReuses) {
  Arena arena(/*block_bytes=*/64);
  const std::string_view a = arena.Copy("hello");
  const std::string_view b = arena.Copy(std::string(100, 'z'));  // oversized
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, std::string(100, 'z'));
  EXPECT_EQ(arena.Copy(""), "");
  const size_t reserved = arena.bytes_reserved();
  arena.Clear();
  // Refilling after Clear reuses the retained blocks: no new reservation.
  arena.Copy("hello again");
  arena.Copy(std::string(100, 'z'));
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(InternerTest, AssignsDenseIdsInOrder) {
  Interner in;
  EXPECT_EQ(in.Intern("a"), 0u);
  EXPECT_EQ(in.Intern("b"), 1u);
  EXPECT_EQ(in.Intern("a"), 0u);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.Name(0), "a");
  EXPECT_EQ(in.Name(1), "b");
  EXPECT_EQ(in.Lookup("b"), 1u);
  EXPECT_EQ(in.Lookup("c"), kInvalidSymbol);
}

TEST(InternerTest, EdgeCaseKeys) {
  Interner in;
  const std::string long_key(100000, 'q');
  EXPECT_EQ(in.Intern(""), 0u);  // empty string is a valid symbol
  EXPECT_EQ(in.Intern(long_key), 1u);
  EXPECT_EQ(in.Intern(""), 0u);
  EXPECT_EQ(in.Name(1), long_key);
  in.Clear();
  EXPECT_EQ(in.size(), 0u);
  EXPECT_EQ(in.Lookup(""), kInvalidSymbol);
  EXPECT_EQ(in.Intern(long_key), 0u);  // ids restart after Clear
}

/// Every parse and the engine's dedup rely on the SymbolId contract:
/// dense ids in first-seen order. Drive the interner with random string
/// multisets (duplicates, empty strings, long strings, keys straddling
/// the 8-byte hash word boundary) against a map-and-vector reference and
/// demand identical ids, including across Clear() cycles, where the
/// table keeps its grown capacity (resize-across-clear). A Name() view
/// taken early in a round must still read the same bytes at its end; in
/// the first round the slot table grows and the arena takes a new block
/// in between.
TEST(InternerTest, PropertyMatchesReferenceOnRandomMultisets) {
  Rng rng(2022);
  Interner dict;  // reused across rounds via Clear()
  for (int round = 0; round < 8; ++round) {
    std::unordered_map<std::string, SymbolId> ids;
    std::vector<std::string> names;
    auto reference_intern = [&](const std::string& key) {
      const auto [it, inserted] =
          ids.emplace(key, static_cast<SymbolId>(names.size()));
      if (inserted) names.push_back(key);
      return it->second;
    };
    std::vector<std::string_view> early_views;  // of ids 0..7
    dict.Clear();
    const int n = 200 + static_cast<int>(rng.NextBelow(800));
    for (int i = 0; i <= n; ++i) {
      std::string key;
      const uint64_t kind = rng.NextBelow(10);
      if (i == n) {
        key = std::string(size_t{1} << 17, 'L');  // longer than a block
      } else if (kind == 0) {
        key = "";  // empty-string edge case
      } else if (kind == 1) {
        key = std::string(1 + rng.NextBelow(200),
                          static_cast<char>('a' + rng.NextBelow(26)));
      } else {
        // Small key space => plenty of duplicates per round.
        key = "sym:" + std::to_string(rng.NextBelow(64));
      }
      const SymbolId want = reference_intern(key);
      const SymbolId got = dict.InternWithHash(Hash64(key), key);
      ASSERT_EQ(got, want) << "round " << round << " key " << key;
      ASSERT_EQ(dict.Lookup(key), want);
      if (got == early_views.size() && got < 8) {
        early_views.push_back(dict.Name(got));
      }
    }
    ASSERT_EQ(dict.size(), names.size());
    for (SymbolId id = 0; id < dict.size(); ++id) {
      ASSERT_EQ(dict.Name(id), names[id]);
    }
    ASSERT_EQ(early_views.size(), 8u);
    for (SymbolId id = 0; id < early_views.size(); ++id) {
      EXPECT_EQ(early_views[id], names[id]) << "round " << round;
      EXPECT_EQ(early_views[id].data(), dict.Name(id).data());
    }
  }
}

size_t NaiveFindByte(const char* p, size_t n, char b) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == b) return i;
  }
  return n;
}

size_t NaiveAsciiPrefix(const char* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<unsigned char>(p[i]) >= 0x80) return i;
  }
  return n;
}

TEST(SwarTest, ZeroByteMaskIsExact) {
  // The classic (w - 0x01..) & ~w & 0x80.. needs the ~w term to be
  // exact; sweep every byte value in every lane against the definition.
  for (int v = 0; v < 256; ++v) {
    for (int lane = 0; lane < 8; ++lane) {
      uint64_t w = swar::kLowBits * 0x41;  // all 'A'
      w = (w & ~(uint64_t{0xff} << (8 * lane))) |
          (static_cast<uint64_t>(v) << (8 * lane));
      const uint64_t mask = swar::ZeroByteMask(w);
      const bool lane_set = ((mask >> (8 * lane)) & 0x80) != 0;
      ASSERT_EQ(lane_set, v == 0) << "v=" << v << " lane=" << lane;
      ASSERT_EQ(mask & ~(uint64_t{0x80} << (8 * lane)), 0u);
    }
  }
}

TEST(SwarTest, ScanToByteFindsEveryTargetAtEveryOffset) {
  // Every (haystack length, match offset) pair around the 8/16-byte
  // step boundaries, for targets that tickle the high-bit trickery:
  // '\n' (0x0A) must not be confused with 0x8A, and searching for
  // '\0' and 0xFF must work. The distractors are high bytes for some
  // targets and ASCII for others, so the ASCII bit flips with them.
  for (const char target : {'\n', '\t', '\0', '\x7f', '\xff'}) {
    for (size_t n = 0; n <= 40; ++n) {
      std::string hay(n, 'A');
      // Distractors sharing low bits with the target, high bit flipped.
      for (size_t i = 0; i < n; i += 3) {
        hay[i] = static_cast<char>(static_cast<unsigned char>(target) ^ 0x80);
      }
      for (size_t at = 0; at <= n; ++at) {
        std::string h = hay;
        if (at < n) h[at] = target;
        const size_t want = NaiveFindByte(h.data(), n, target);
        const bool ascii = NaiveAsciiPrefix(h.data(), want) == want;
        for (const swar::ByteScan scan :
             {swar::ScanToByte(h.data(), n, target),
              swar::ScanToByteGeneric(h.data(), n, target)}) {
          ASSERT_EQ(scan.at, want)
              << "n=" << n << " at=" << at << " target=" << int{target};
          ASSERT_EQ(scan.ascii, ascii)
              << "n=" << n << " at=" << at << " target=" << int{target};
        }
      }
    }
  }
}

TEST(SwarTest, AsciiPrefixMatchesNaiveAtEveryOffset) {
  for (size_t n = 0; n <= 40; ++n) {
    for (size_t at = 0; at <= n; ++at) {
      std::string h(n, 'x');
      if (at < n) h[at] = static_cast<char>(0x80);
      const size_t want = NaiveAsciiPrefix(h.data(), n);
      ASSERT_EQ(swar::AsciiPrefix(h.data(), n), want)
          << "n=" << n << " at=" << at;
      ASSERT_EQ(swar::AsciiPrefixGeneric(h.data(), n), want);
    }
  }
}

TEST(SwarTest, ScanToByteMatchesNaiveAtEveryOffset) {
  // Lengths 0-80 around the 8/16-byte steps, the delimiter at every
  // offset (or absent) and one high byte at every offset (or none),
  // before, at and after the delimiter. 0x8A is '\n' with its high bit
  // set, so it must count as high and never as the delimiter.
  for (const char high : {'\x80', '\x8a', '\xff'}) {
    for (size_t n = 0; n <= 80; ++n) {
      for (size_t at = 0; at <= n; ++at) {
        for (size_t hi = 0; hi <= n; ++hi) {
          std::string h(n, 'q');
          if (hi < n) h[hi] = high;
          if (at < n) h[at] = '\n';
          const size_t want = NaiveFindByte(h.data(), n, '\n');
          const bool ascii = NaiveAsciiPrefix(h.data(), want) == want;
          const swar::ByteScan got = swar::ScanToByte(h.data(), n, '\n');
          const swar::ByteScan generic =
              swar::ScanToByteGeneric(h.data(), n, '\n');
          ASSERT_EQ(got.at, want) << "n=" << n << " at=" << at << " hi=" << hi;
          ASSERT_EQ(got.ascii, ascii)
              << "n=" << n << " at=" << at << " hi=" << hi;
          ASSERT_EQ(generic.at, want);
          ASSERT_EQ(generic.ascii, ascii)
              << "n=" << n << " at=" << at << " hi=" << hi;
        }
      }
    }
  }
}

TEST(SwarTest, RandomDifferentialAgainstNaive) {
  // Random buffers over the full byte range, unaligned starts included:
  // the active tier (SSE2/NEON/SWAR), the generic tier, and the naive
  // scan must agree byte-for-byte.
  Rng rng(0x5747u);  // "SW"
  for (int round = 0; round < 2000; ++round) {
    const size_t n = rng.NextBelow(120);
    std::string buf(n + 1, '\0');
    for (size_t i = 0; i < n; ++i) {
      // Bias toward the interesting values so matches are common.
      const uint64_t kind = rng.NextBelow(4);
      buf[i] = kind == 0 ? '\n'
               : kind == 1
                   ? static_cast<char>(0x80 + rng.NextBelow(0x80))
                   : static_cast<char>(rng.NextBelow(256));
    }
    const size_t skew = rng.NextBelow(2);  // exercise unaligned p
    const char* p = buf.data() + skew;
    const size_t len = n - std::min(n, skew);
    for (const char target : {'\n', '\t', static_cast<char>(0x80)}) {
      const size_t want = NaiveFindByte(p, len, target);
      const bool ascii = NaiveAsciiPrefix(p, want) == want;
      for (const swar::ByteScan scan :
           {swar::ScanToByte(p, len, target),
            swar::ScanToByteGeneric(p, len, target)}) {
        ASSERT_EQ(scan.at, want) << "round " << round;
        ASSERT_EQ(scan.ascii, ascii) << "round " << round;
      }
    }
    ASSERT_EQ(swar::AsciiPrefix(p, len), NaiveAsciiPrefix(p, len));
    ASSERT_EQ(swar::AsciiPrefixGeneric(p, len), NaiveAsciiPrefix(p, len));
  }
}

}  // namespace
}  // namespace rwdt
