#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/max_depth.h"
#include "regex/ast.h"
#include "regex/parser.h"

namespace rwdt::regex {
namespace {

RegexPtr Parse(const std::string& s, Interner* dict) {
  auto r = ParseRegex(s, dict);
  EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
  return r.value();
}

TEST(ParserTest, ParsesSymbols) {
  Interner dict;
  RegexPtr e = Parse("a", &dict);
  EXPECT_EQ(e->op(), Op::kSymbol);
  EXPECT_EQ(dict.Name(e->symbol()), "a");
}

TEST(ParserTest, ParsesQuotedSymbols) {
  Interner dict;
  RegexPtr e = Parse("'wdt:P31'", &dict);
  EXPECT_EQ(e->op(), Op::kSymbol);
  EXPECT_EQ(dict.Name(e->symbol()), "wdt:P31");
}

TEST(ParserTest, PostfixBindsTighterThanConcat) {
  Interner dict;
  RegexPtr e = Parse("ab*", &dict);
  ASSERT_EQ(e->op(), Op::kConcat);
  ASSERT_EQ(e->children().size(), 2u);
  EXPECT_EQ(e->children()[0]->op(), Op::kSymbol);
  EXPECT_EQ(e->children()[1]->op(), Op::kStar);
}

TEST(ParserTest, ConcatBindsTighterThanUnion) {
  Interner dict;
  RegexPtr e = Parse("ab|c", &dict);
  ASSERT_EQ(e->op(), Op::kUnion);
  EXPECT_EQ(e->children()[0]->op(), Op::kConcat);
  EXPECT_EQ(e->children()[1]->op(), Op::kSymbol);
}

TEST(ParserTest, ParsesEpsilonAndEmpty) {
  Interner dict;
  EXPECT_EQ(Parse("<eps>", &dict)->op(), Op::kEpsilon);
  EXPECT_EQ(Parse("<empty>", &dict)->op(), Op::kEmpty);
}

TEST(ParserTest, ParsesNestedGroups) {
  Interner dict;
  RegexPtr e = Parse("(a|b)*a(a|b)", &dict);
  ASSERT_EQ(e->op(), Op::kConcat);
  EXPECT_EQ(e->children().size(), 3u);
  EXPECT_EQ(e->children()[0]->op(), Op::kStar);
}

TEST(ParserTest, RejectsGarbage) {
  Interner dict;
  EXPECT_FALSE(ParseRegex("a)(", &dict).ok());
  EXPECT_FALSE(ParseRegex("(a", &dict).ok());
  EXPECT_FALSE(ParseRegex("|a", &dict).ok());
  EXPECT_FALSE(ParseRegex("", &dict).ok());
  EXPECT_FALSE(ParseRegex("'unterminated", &dict).ok());
}

TEST(ParserTest, RoundTripsThroughToString) {
  Interner dict;
  for (const std::string s :
       {"a", "ab*", "(a|b)*a(a|b)", "a?b+c*", "b*a(b*a)*", "(ab|cd)?e"}) {
    RegexPtr e1 = Parse(s, &dict);
    RegexPtr e2 = Parse(e1->ToString(dict), &dict);
    EXPECT_TRUE(StructurallyEqual(e1, e2)) << s;
  }
}

TEST(AstTest, SizeAndDepth) {
  Interner dict;
  RegexPtr e = Parse("(a|b)*", &dict);
  EXPECT_EQ(e->Size(), 4u);   // star, union, a, b
  EXPECT_EQ(e->Depth(), 3u);  // symbol < union < star
  EXPECT_EQ(Parse("a", &dict)->Depth(), 1u);
}

TEST(AstTest, Nullable) {
  Interner dict;
  EXPECT_TRUE(Parse("a*", &dict)->Nullable());
  EXPECT_TRUE(Parse("a?b?", &dict)->Nullable());
  EXPECT_FALSE(Parse("a?b", &dict)->Nullable());
  EXPECT_TRUE(Parse("a|b*", &dict)->Nullable());
  EXPECT_FALSE(Parse("a|b", &dict)->Nullable());
  EXPECT_TRUE(Parse("(a?)+", &dict)->Nullable());
  EXPECT_FALSE(Parse("<empty>", &dict)->Nullable());
  EXPECT_TRUE(Parse("<eps>", &dict)->Nullable());
}

TEST(AstTest, AlphabetAndOccurrences) {
  Interner dict;
  RegexPtr e = Parse("(a|b)*a(a|b)", &dict);
  EXPECT_EQ(e->Alphabet().size(), 2u);
  EXPECT_EQ(e->MaxSymbolOccurrences(), 3u);  // 'a' occurs 3 times
  const SymbolId a = dict.Lookup("a");
  const SymbolId b = dict.Lookup("b");
  auto occ = e->SymbolOccurrences();
  EXPECT_EQ(occ[a], 3u);
  EXPECT_EQ(occ[b], 2u);
}

TEST(AstTest, FactoriesFlattenNesting) {
  Interner dict;
  const SymbolId a = dict.Intern("a");
  RegexPtr e = Regex::Concat(
      Regex::Concat(Regex::Symbol(a), Regex::Symbol(a)), Regex::Symbol(a));
  EXPECT_EQ(e->op(), Op::kConcat);
  EXPECT_EQ(e->children().size(), 3u);
  RegexPtr u = Regex::Union(
      Regex::Union(Regex::Symbol(a), Regex::Symbol(a)), Regex::Symbol(a));
  EXPECT_EQ(u->children().size(), 3u);
}

TEST(AstTest, SingletonFactoriesCollapse) {
  Interner dict;
  const SymbolId a = dict.Intern("a");
  EXPECT_EQ(Regex::Concat(std::vector<RegexPtr>{Regex::Symbol(a)})->op(),
            Op::kSymbol);
  EXPECT_EQ(Regex::Union(std::vector<RegexPtr>{Regex::Symbol(a)})->op(),
            Op::kSymbol);
  EXPECT_EQ(Regex::Concat(std::vector<RegexPtr>{})->op(), Op::kEpsilon);
  EXPECT_EQ(Regex::Union(std::vector<RegexPtr>{})->op(), Op::kEmpty);
}

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

// Input nesting one construct n times, for n = 10 .. 10^6: up to
// kDefaultMaxDepth levels it parses, past it ParseRegex refuses with
// kResourceExhausted instead of recursing until the stack runs out.
TEST(ParserTest, NestingLadderIsResourceExhaustedBeyondMaxDepth) {
  struct Nesting {
    const char* name;
    std::function<std::string(size_t)> text;  // n levels
  };
  const std::vector<Nesting> nestings = {
      {"groups",
       [](size_t n) { return Repeat("(", n) + "a" + Repeat(")", n); }},
      {"postfix", [](size_t n) { return Repeat("a", 1) + Repeat("*", n); }},
      {"starred_groups",
       [](size_t n) { return Repeat("(", n) + "a|b" + Repeat(")*", n); }},
  };
  for (const Nesting& nesting : nestings) {
    for (size_t n = 10; n <= 1000000; n *= 10) {
      Interner dict;
      const auto r = ParseRegex(nesting.text(n), &dict);
      if (n <= kDefaultMaxDepth) {
        EXPECT_TRUE(r.ok()) << nesting.name << " n=" << n << ": "
                            << r.status().ToString();
        continue;
      }
      ASSERT_FALSE(r.ok()) << nesting.name << " n=" << n;
      EXPECT_EQ(r.status().code(), Code::kResourceExhausted)
          << nesting.name << " n=" << n << ": " << r.status().ToString();
      EXPECT_NE(r.status().message().find("nests deeper than"),
                std::string::npos)
          << nesting.name << " n=" << n << ": " << r.status().ToString();
    }
    Interner dict;
    EXPECT_TRUE(ParseRegex(nesting.text(kDefaultMaxDepth), &dict).ok())
        << nesting.name;
    EXPECT_EQ(ParseRegex(nesting.text(kDefaultMaxDepth + 1), &dict)
                  .status()
                  .code(),
              Code::kResourceExhausted)
        << nesting.name;
  }
}

}  // namespace
}  // namespace rwdt::regex
