#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/max_depth.h"
#include "regex/glushkov.h"
#include "regex/parser.h"
#include "schema/bonxai.h"
#include "schema/dtd.h"
#include "schema/edtd.h"
#include "tree/xml.h"

namespace rwdt::schema {
namespace {

/// The paper's Example 4.2 DTD.
const char kPersonsDtd[] = R"(
<!ELEMENT persons (person*)>
<!ELEMENT person (name, birthplace)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT birthplace (city, state, country?)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT state (#PCDATA)>
<!ELEMENT country (#PCDATA)>
)";

class DtdTest : public ::testing::Test {
 protected:
  Dtd ParsePersons() {
    auto r = ParseDtd(kPersonsDtd, &dict_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value();
  }

  tree::Tree ParseTree(const std::string& xml) {
    auto r = tree::ParseXml(xml, &dict_);
    EXPECT_TRUE(r.ok()) << r.error_message();
    return r.value().tree;
  }

  Interner dict_;
};

TEST_F(DtdTest, ParsesElementDeclarations) {
  Dtd dtd = ParsePersons();
  EXPECT_EQ(dtd.rules.size(), 7u);
  ASSERT_EQ(dtd.start.size(), 1u);
  EXPECT_EQ(dict_.Name(*dtd.start.begin()), "persons");
}

TEST_F(DtdTest, ValidatesPaperExampleTree) {
  Dtd dtd = ParsePersons();
  DtdValidator validator(dtd);
  // Figure 1c tree: one person with full birthplace.
  auto t = ParseTree(
      "<persons><person><name/><birthplace><city/><state/><country/>"
      "</birthplace></person></persons>");
  EXPECT_TRUE(validator.Validate(t).valid);
  // country? is optional.
  auto t2 = ParseTree(
      "<persons><person><name/><birthplace><city/><state/>"
      "</birthplace></person></persons>");
  EXPECT_TRUE(validator.Validate(t2).valid);
  // Missing state: invalid.
  auto t3 = ParseTree(
      "<persons><person><name/><birthplace><city/></birthplace>"
      "</person></persons>");
  EXPECT_FALSE(validator.Validate(t3).valid);
  // Wrong root.
  auto t4 = ParseTree("<person><name/></person>");
  EXPECT_FALSE(validator.Validate(t4).valid);
}

TEST_F(DtdTest, AnyContentAcceptsEverything) {
  auto r = ParseDtd("<!ELEMENT a (b*)><!ELEMENT b ANY>", &dict_);
  ASSERT_TRUE(r.ok());
  DtdValidator validator(r.value());
  EXPECT_TRUE(validator.Validate(ParseTree("<a><b><a/><b/></b></a>")).valid);
}

TEST_F(DtdTest, RecursionDetection) {
  auto nonrec = ParseDtd(kPersonsDtd, &dict_);
  ASSERT_TRUE(nonrec.ok());
  EXPECT_FALSE(IsRecursive(nonrec.value()));
  auto depth = MaxDocumentDepth(nonrec.value());
  ASSERT_TRUE(depth.has_value());
  EXPECT_EQ(*depth, 4u);  // persons > person > birthplace > city

  auto rec = ParseDtd("<!ELEMENT part (part*, leaf?)><!ELEMENT leaf EMPTY>",
                      &dict_);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(IsRecursive(rec.value()));
  EXPECT_FALSE(MaxDocumentDepth(rec.value()).has_value());
}

TEST_F(DtdTest, StreamingValidationMatchesBatch) {
  Dtd dtd = ParsePersons();
  DtdValidator batch(dtd);
  const std::vector<std::string> docs = {
      "<persons/>",
      "<persons><person><name/><birthplace><city/><state/></birthplace>"
      "</person></persons>",
      "<persons><person><name/></person></persons>",  // invalid
      "<persons><city/></persons>",                   // invalid
  };
  for (const auto& xml : docs) {
    auto t = ParseTree(xml);
    StreamingDtdValidator streaming(dtd);
    // Drive SAX events by DFS.
    std::function<void(tree::NodeId)> drive = [&](tree::NodeId id) {
      streaming.StartElement(t.node(id).label);
      for (tree::NodeId c : t.node(id).children) drive(c);
      streaming.EndElement();
    };
    drive(t.root());
    EXPECT_EQ(streaming.Finish(), batch.Validate(t).valid) << xml;
  }
}

TEST_F(DtdTest, StreamingMemoryBoundedByDepth) {
  Dtd dtd = ParsePersons();
  StreamingDtdValidator streaming(dtd);
  auto t = ParseTree(
      "<persons><person><name/><birthplace><city/><state/></birthplace>"
      "</person></persons>");
  std::function<void(tree::NodeId)> drive = [&](tree::NodeId id) {
    streaming.StartElement(t.node(id).label);
    for (tree::NodeId c : t.node(id).children) drive(c);
    streaming.EndElement();
  };
  drive(t.root());
  EXPECT_TRUE(streaming.Finish());
  // Segoufin-Vianu: memory bounded by MaxDocumentDepth for non-recursive
  // DTDs, independent of document width.
  EXPECT_LE(streaming.max_stack_depth(), *MaxDocumentDepth(dtd));
}

TEST_F(DtdTest, DtdToStringRoundTrips) {
  Dtd dtd = ParsePersons();
  auto again = ParseDtd(DtdToString(dtd, dict_), &dict_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rules.size(), dtd.rules.size());
}

class EdtdTest : public ::testing::Test {
 protected:
  regex::RegexPtr Re(const std::string& s) {
    auto r = regex::ParseRegex(s, &dict_);
    EXPECT_TRUE(r.ok()) << s;
    return r.value();
  }
  SymbolId S(const std::string& s) { return dict_.Intern(s); }

  /// Example 4.11: birthplace-US vs birthplace-Intl.
  Edtd PaperExample() {
    Edtd e;
    e.rules[S("persons")] = Re("'person'*");
    e.rules[S("person")] = Re("'name'('bp-US'|'bp-Intl')");
    e.rules[S("bp-US")] = Re("'city' 'state' 'country'?");
    e.rules[S("bp-Intl")] = Re("'city' 'state' 'country'");
    e.start_types = {S("persons")};
    for (const auto& name :
         {"persons", "person", "name", "city", "state", "country"}) {
      e.mu[S(name)] = S(name);
    }
    e.mu[S("bp-US")] = S("birthplace");
    e.mu[S("bp-Intl")] = S("birthplace");
    return e;
  }

  tree::Tree ParseTree(const std::string& xml) {
    auto r = tree::ParseXml(xml, &dict_);
    EXPECT_TRUE(r.ok()) << r.error_message();
    return r.value().tree;
  }

  Interner dict_;
};

TEST_F(EdtdTest, PaperExampleValidation) {
  Edtd e = PaperExample();
  // Figure 1c tree is in the language (as bp-US or bp-Intl).
  EXPECT_TRUE(ValidateEdtd(
      e, ParseTree("<persons><person><name/><birthplace><city/><state/>"
                   "<country/></birthplace></person></persons>")));
  // Without country: only bp-US fits.
  EXPECT_TRUE(ValidateEdtd(
      e, ParseTree("<persons><person><name/><birthplace><city/><state/>"
                   "</birthplace></person></persons>")));
  // Missing state: neither type fits.
  EXPECT_FALSE(ValidateEdtd(
      e, ParseTree("<persons><person><name/><birthplace><city/>"
                   "</birthplace></person></persons>")));
}

TEST_F(EdtdTest, PaperExampleViolatesSingleType) {
  // bp-US and bp-Intl share the label birthplace inside one rule: the
  // EDC constraint fails (the paper notes exactly this).
  EXPECT_FALSE(IsSingleType(PaperExample()));
  EXPECT_FALSE(IsStructurallyDtd(PaperExample()));
}

TEST_F(EdtdTest, SingleTypeValidationAgreesWithGeneral) {
  // Figure 2a schema: the type of d (and h) depends on an ancestor.
  Edtd e;
  e.rules[S("a")] = Re("'b'|'c'");
  e.rules[S("b")] = Re("'e''d1''f'");
  e.rules[S("c")] = Re("'e''d2''f'");
  e.rules[S("d1")] = Re("'g''h1''i'");
  e.rules[S("d2")] = Re("'g''h2''i'");
  e.rules[S("h1")] = Re("'j'");
  e.rules[S("h2")] = Re("'k'");
  e.start_types = {S("a")};
  for (const auto& name : {"a", "b", "c", "e", "f", "g", "i", "j", "k"}) {
    e.mu[S(name)] = S(name);
  }
  e.mu[S("d1")] = S("d");
  e.mu[S("d2")] = S("d");
  e.mu[S("h1")] = S("h");
  e.mu[S("h2")] = S("h");
  EXPECT_TRUE(IsSingleType(e));
  EXPECT_FALSE(IsStructurallyDtd(e));

  const std::vector<std::pair<std::string, bool>> cases = {
      {"<a><b><e/><d><g/><h><j/></h><i/></d><f/></b></a>", true},
      {"<a><c><e/><d><g/><h><k/></h><i/></d><f/></c></a>", true},
      // j under c-branch: wrong grandparent context.
      {"<a><c><e/><d><g/><h><j/></h><i/></d><f/></c></a>", false},
      {"<a><b><e/><d><g/><h><k/></h><i/></d><f/></b></a>", false},
  };
  for (const auto& [xml, expected] : cases) {
    auto t = ParseTree(xml);
    EXPECT_EQ(ValidateEdtd(e, t), expected) << xml;
    EXPECT_EQ(ValidateSingleType(e, t), expected) << xml;
  }
}

TEST_F(EdtdTest, DtdAsEdtdPreservesLanguage) {
  auto dtd = ParseDtd(kPersonsDtd, &dict_);
  ASSERT_TRUE(dtd.ok());
  Edtd e = DtdAsEdtd(dtd.value());
  EXPECT_TRUE(IsSingleType(e));
  EXPECT_TRUE(IsStructurallyDtd(e));
  DtdValidator validator(dtd.value());
  for (const std::string xml :
       {"<persons/>",
        "<persons><person><name/><birthplace><city/><state/></birthplace>"
        "</person></persons>",
        "<persons><person><name/></person></persons>"}) {
    auto t = ParseTree(xml);
    EXPECT_EQ(ValidateEdtd(e, t), validator.Validate(t).valid) << xml;
  }
}

class BonxaiTest : public ::testing::Test {
 protected:
  regex::RegexPtr Re(const std::string& s) {
    auto r = regex::ParseRegex(s, &dict_);
    EXPECT_TRUE(r.ok()) << s;
    return r.value();
  }
  PathPattern Pat(const std::string& s) {
    auto r = ParsePathPattern(s, &dict_);
    EXPECT_TRUE(r.ok()) << s;
    return r.value();
  }
  tree::Tree ParseTree(const std::string& xml) {
    auto r = tree::ParseXml(xml, &dict_);
    EXPECT_TRUE(r.ok()) << r.error_message();
    return r.value().tree;
  }
  std::vector<SymbolId> Path(const std::vector<std::string>& labels) {
    std::vector<SymbolId> out;
    for (const auto& l : labels) out.push_back(dict_.Intern(l));
    return out;
  }

  /// The paper's Figure 2b pattern-based schema.
  BonxaiSchema Figure2b() {
    BonxaiSchema s;
    s.rules.push_back({Pat("a"), Re("'b'|'c'")});
    s.rules.push_back({Pat("b"), Re("'e''d''f'")});
    s.rules.push_back({Pat("c"), Re("'e''d''f'")});
    s.rules.push_back({Pat("d"), Re("'g''h''i'")});
    s.rules.push_back({Pat("//b//h"), Re("'j'")});
    s.rules.push_back({Pat("//c//h"), Re("'k'")});
    // Leaves select with empty content models.
    for (const auto& leaf : {"e", "f", "g", "i", "j", "k"}) {
      s.rules.push_back({Pat(leaf), Re("<eps>")});
    }
    return s;
  }

  Interner dict_;
};

TEST_F(BonxaiTest, PatternMatching) {
  EXPECT_TRUE(Pat("//b//h").Matches(Path({"a", "b", "d", "h"})));
  EXPECT_FALSE(Pat("//b//h").Matches(Path({"a", "c", "d", "h"})));
  EXPECT_TRUE(Pat("/a/b").Matches(Path({"a", "b"})));
  EXPECT_FALSE(Pat("/a/b").Matches(Path({"x", "a", "b"})));
  EXPECT_TRUE(Pat("a").Matches(Path({"x", "a"})));
  EXPECT_FALSE(Pat("//b//h").Matches(Path({"b"})));
  // The pattern selects the node itself, not descendants of a match.
  EXPECT_FALSE(Pat("//b//h").Matches(Path({"a", "b", "h", "x"})));
}

TEST_F(BonxaiTest, Figure2bValidation) {
  BonxaiSchema schema = Figure2b();
  EXPECT_TRUE(ValidateBonxai(
      schema,
      ParseTree("<a><b><e/><d><g/><h><j/></h><i/></d><f/></b></a>")));
  EXPECT_TRUE(ValidateBonxai(
      schema,
      ParseTree("<a><c><e/><d><g/><h><k/></h><i/></d><f/></c></a>")));
  // j in the c-branch violates //c//h -> k.
  EXPECT_FALSE(ValidateBonxai(
      schema,
      ParseTree("<a><c><e/><d><g/><h><j/></h><i/></d><f/></c></a>")));
  // Unselected node (label outside the schema).
  EXPECT_FALSE(ValidateBonxai(schema, ParseTree("<zzz/>")));
}

TEST_F(BonxaiTest, DtdToBonxaiPreservesValidation) {
  auto dtd = ParseDtd(kPersonsDtd, &dict_);
  ASSERT_TRUE(dtd.ok());
  BonxaiSchema schema = DtdToBonxai(dtd.value());
  DtdValidator validator(dtd.value());
  for (const std::string xml :
       {"<persons/>",
        "<persons><person><name/><birthplace><city/><state/></birthplace>"
        "</person></persons>",
        "<persons><person><name/></person></persons>"}) {
    auto t = ParseTree(xml);
    EXPECT_EQ(ValidateBonxai(schema, t), validator.Validate(t).valid)
        << xml;
  }
}

TEST_F(BonxaiTest, TranslationToSingleTypeEdtdAgrees) {
  BonxaiSchema schema = Figure2b();
  std::vector<SymbolId> alphabet;
  for (const auto& l :
       {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"}) {
    alphabet.push_back(dict_.Intern(l));
  }
  Edtd edtd = BonxaiToSingleTypeEdtd(schema, alphabet, &dict_);
  EXPECT_TRUE(IsSingleType(edtd));
  const std::vector<std::pair<std::string, bool>> cases = {
      {"<a><b><e/><d><g/><h><j/></h><i/></d><f/></b></a>", true},
      {"<a><c><e/><d><g/><h><k/></h><i/></d><f/></c></a>", true},
      {"<a><c><e/><d><g/><h><j/></h><i/></d><f/></c></a>", false},
      {"<a><b><e/><d><g/><h><k/></h><i/></d><f/></b></a>", false},
      {"<a/>", false},
  };
  for (const auto& [xml, expected] : cases) {
    auto t = ParseTree(xml);
    EXPECT_EQ(ValidateBonxai(schema, t), expected) << xml;
    EXPECT_EQ(ValidateEdtd(edtd, t), expected) << "EDTD: " << xml;
    EXPECT_EQ(ValidateSingleType(edtd, t), expected) << "stEDTD: " << xml;
  }
}

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

// A content model nesting one construct n times, for n = 10 .. 10^6: up
// to kDefaultMaxDepth levels it parses, past it ParseDtd refuses with
// kResourceExhausted instead of recursing until the stack runs out.
TEST(DtdNestingTest, ContentModelLadderIsResourceExhaustedBeyondMaxDepth) {
  struct Nesting {
    const char* name;
    std::function<std::string(size_t)> content;  // n levels
  };
  const std::vector<Nesting> nestings = {
      {"groups",
       [](size_t n) { return Repeat("(", n) + "a" + Repeat(")", n); }},
      {"postfix", [](size_t n) { return "(a" + Repeat("*", n - 1) + ")"; }},
      {"sequences",
       [](size_t n) { return Repeat("(b,", n) + "a" + Repeat(")?", n); }},
  };
  auto parse = [](const std::string& content) {
    Interner dict;
    return ParseDtd("<!ELEMENT r " + content + ">\n<!ELEMENT a EMPTY>\n"
                    "<!ELEMENT b EMPTY>",
                    &dict)
        .status();
  };
  for (const Nesting& nesting : nestings) {
    for (size_t n = 10; n <= 1000000; n *= 10) {
      const Status status = parse(nesting.content(n));
      if (n <= kDefaultMaxDepth) {
        EXPECT_TRUE(status.ok()) << nesting.name << " n=" << n << ": "
                                 << status.ToString();
        continue;
      }
      EXPECT_EQ(status.code(), Code::kResourceExhausted)
          << nesting.name << " n=" << n << ": " << status.ToString();
      EXPECT_NE(status.message().find("nests deeper than"),
                std::string::npos)
          << nesting.name << " n=" << n << ": " << status.ToString();
    }
    EXPECT_TRUE(parse(nesting.content(kDefaultMaxDepth)).ok())
        << nesting.name;
    EXPECT_EQ(parse(nesting.content(kDefaultMaxDepth + 1)).code(),
              Code::kResourceExhausted)
        << nesting.name;
  }
}

}  // namespace
}  // namespace rwdt::schema
