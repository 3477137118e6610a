#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/max_depth.h"
#include "tree/json.h"
#include "tree/tree.h"
#include "tree/xml.h"

namespace rwdt::tree {
namespace {

TEST(TreeTest, BuildAndTraverse) {
  Interner dict;
  Tree t;
  const NodeId root = t.AddRoot(dict.Intern("persons"));
  const NodeId p1 = t.AddChild(root, dict.Intern("person"));
  const NodeId p2 = t.AddChild(root, dict.Intern("person"));
  t.AddChild(p1, dict.Intern("name"));
  t.AddChild(p1, dict.Intern("birthplace"));
  t.AddChild(p2, dict.Intern("name"));

  EXPECT_EQ(t.NumNodes(), 6u);
  EXPECT_EQ(t.Depth(), 3u);
  const auto labels = t.ChildLabels(root);
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(dict.Name(labels[0]), "person");
  const auto order = t.PreOrder();
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], root);
  EXPECT_EQ(order[1], p1);  // pre-order visits p1's subtree before p2
  EXPECT_EQ(order[4], p2);
}

TEST(TreeTest, EmptyAndSingleNode) {
  Tree t;
  EXPECT_EQ(t.Depth(), 0u);
  Interner dict;
  t.AddRoot(dict.Intern("a"));
  EXPECT_EQ(t.Depth(), 1u);
}

class XmlTest : public ::testing::Test {
 protected:
  Result<XmlDocument> Parse(const std::string& s) {
    return ParseXml(s, &dict_);
  }
  /// Category of a failed parse (kNone if it succeeded).
  XmlErrorCategory Category(const std::string& s) {
    return ClassifyXmlError(Parse(s).status());
  }
  Interner dict_;
};

TEST_F(XmlTest, ParsesPaperFigure1Document) {
  const std::string doc = R"(<?xml version="1.0"?>
<persons>
  <person pers_id="1">
    <name>Aretha</name>
    <birthplace>
      <city>Memphis</city>
      <state>Tennessee</state>
      <country>US</country>
    </birthplace>
  </person>
</persons>)";
  auto r = Parse(doc);
  ASSERT_TRUE(r.ok()) << r.error_message();
  const XmlDocument& d = r.value();
  EXPECT_EQ(dict_.Name(d.tree.node(d.tree.root()).label), "persons");
  EXPECT_EQ(d.tree.Depth(), 4u);
  ASSERT_EQ(d.attributes.size(), 1u);
  EXPECT_EQ(d.attributes[0].name, "pers_id");
  EXPECT_EQ(d.attributes[0].value, "1");
}

TEST_F(XmlTest, SelfClosingAndComments) {
  auto r = Parse("<a><!-- hi --><b/><c x='1'/></a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tree.NumNodes(), 3u);
}

TEST_F(XmlTest, CdataAndEntities) {
  auto r = Parse("<a>x &amp; y<![CDATA[<raw>]]></a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().tree.node(0).text, "x & y<raw>");
}

TEST_F(XmlTest, DetectsTagMismatch) {
  auto r = Parse("<a><b></a></b>");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(ClassifyXmlError(r.status()), XmlErrorCategory::kTagMismatch);
}

TEST_F(XmlTest, DetectsPrematureEnd) {
  for (const std::string doc : {"<a><b></b>", "<a", "<a x='1", "<a>text"}) {
    EXPECT_EQ(Category(doc), XmlErrorCategory::kPrematureEnd) << doc;
  }
}

TEST_F(XmlTest, DetectsBadEncoding) {
  std::string doc = "<a>\xc3(</a>";  // invalid UTF-8 continuation
  auto r = Parse(doc);
  ASSERT_FALSE(r.ok());
  // Encoding failures carry the taxonomy code, not a generic parse error.
  EXPECT_EQ(r.status().code(), Code::kEncodingError);
  EXPECT_EQ(ClassifyXmlError(r.status()), XmlErrorCategory::kBadEncoding);
}

TEST_F(XmlTest, DetectsBadAttribute) {
  EXPECT_EQ(Category("<a x=1></a>"), XmlErrorCategory::kBadAttribute);
  EXPECT_EQ(Category("<a x='1' x='2'></a>"),
            XmlErrorCategory::kBadAttribute);
}

TEST_F(XmlTest, DetectsMultipleRootsAndStrayContent) {
  EXPECT_EQ(Category("<a></a><b></b>"), XmlErrorCategory::kMultipleRoots);
  EXPECT_EQ(Category("<a></a>junk"), XmlErrorCategory::kStrayContent);
}

TEST_F(XmlTest, DetectsBadEntityAndComment) {
  EXPECT_EQ(Category("<a>&unknown;</a>"), XmlErrorCategory::kBadEntity);
  EXPECT_EQ(Category("<a>x & y</a>"), XmlErrorCategory::kBadEntity);
  EXPECT_EQ(Category("<a><!-- x -- y --></a>"),
            XmlErrorCategory::kBadComment);
}

TEST_F(XmlTest, DetectsEmptyDocument) {
  EXPECT_EQ(Category("   "), XmlErrorCategory::kEmptyDocument);
}

TEST_F(XmlTest, ErrorMessagesCarryCategoryAndOffset) {
  auto r = Parse("<a><b></a></b>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error_message().find("tag-mismatch:"), std::string::npos);
  EXPECT_NE(r.error_message().find("at offset"), std::string::npos);
}

TEST_F(XmlTest, RoundTripsThroughToXml) {
  auto r = Parse("<a><b><c/></b><b/></a>");
  ASSERT_TRUE(r.ok());
  const std::string rendered = ToXml(r.value().tree, dict_);
  auto r2 = Parse(rendered);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().tree.NumNodes(), r.value().tree.NumNodes());
  EXPECT_EQ(r2.value().tree.Depth(), r.value().tree.Depth());
}

TEST(Utf8Test, Validation) {
  EXPECT_TRUE(IsValidUtf8("hello"));
  EXPECT_TRUE(IsValidUtf8("h\xc3\xa9llo"));          // é
  EXPECT_TRUE(IsValidUtf8("\xe2\x82\xac"));          // €
  EXPECT_TRUE(IsValidUtf8("\xf0\x9f\x98\x80"));      // emoji
  EXPECT_FALSE(IsValidUtf8("\xc3("));                // bad continuation
  EXPECT_FALSE(IsValidUtf8("\xff"));                 // invalid byte
  EXPECT_FALSE(IsValidUtf8("\xe2\x82"));             // truncated
  EXPECT_FALSE(IsValidUtf8("\xc0\xaf"));             // overlong
}

class JsonTest : public ::testing::Test {
 protected:
  JsonPtr Parse(const std::string& s) {
    auto r = ParseJson(s, &dict_);
    EXPECT_TRUE(r.ok()) << s << ": " << r.status().ToString();
    return r.ok() ? r.value() : nullptr;
  }
  Interner dict_;
};

TEST_F(JsonTest, ParsesScalars) {
  EXPECT_EQ(Parse("null")->kind(), JsonValue::Kind::kNull);
  EXPECT_TRUE(Parse("true")->bool_value());
  EXPECT_DOUBLE_EQ(Parse("-2.5e2")->number_value(), -250.0);
  EXPECT_EQ(Parse("\"a\\nb\"")->string_value(), "a\nb");
  EXPECT_EQ(Parse("\"\\u00e9\"")->string_value(), "\xc3\xa9");
}

TEST_F(JsonTest, ParsesPaperFigure1Document) {
  const std::string doc = R"({"persons": [
    {"pers_id": 1, "name": "Aretha",
     "birthplace": {"city": "Memphis", "state": "Tennessee",
                    "country": "US"}}]})";
  auto v = Parse(doc);
  ASSERT_NE(v, nullptr);
  auto persons = v->Get("persons");
  ASSERT_NE(persons, nullptr);
  ASSERT_EQ(persons->items().size(), 1u);
  EXPECT_EQ(persons->items()[0]->Get("name")->string_value(), "Aretha");
}

TEST_F(JsonTest, RejectsGarbage) {
  EXPECT_FALSE(ParseJson("{", &dict_).ok());
  EXPECT_FALSE(ParseJson("[1,]", &dict_).ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &dict_).ok());
  EXPECT_FALSE(ParseJson("tru", &dict_).ok());
  EXPECT_FALSE(ParseJson("1 2", &dict_).ok());
}

TEST_F(JsonTest, RoundTripsToString) {
  const std::string doc = R"({"a":[1,2,{"b":true}],"c":"x"})";
  auto v = Parse(doc);
  EXPECT_EQ(v->ToString(), doc);
}

TEST_F(JsonTest, JsonToTreeMapsKeysToLabels) {
  Interner dict;
  auto v = Parse(R"({"persons": [{"name": "A"}, {"name": "B"}]})");
  Tree t = JsonToTree(v, &dict, "root", "person");
  // root -> persons -> person x2 -> name.
  EXPECT_EQ(t.NumNodes(), 6u);
  EXPECT_EQ(t.Depth(), 4u);
  EXPECT_EQ(dict.Name(t.node(1).label), "persons");
  const auto kids = t.ChildLabels(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(dict.Name(kids[0]), "person");
}

// --- Nesting ladders ----------------------------------------------------
//
// Input nesting one construct n times, for n = 10 .. 10^6: up to
// kDefaultMaxDepth levels it parses, past it the parser refuses with
// kResourceExhausted instead of recursing until the stack runs out.

std::string Repeat(const std::string& s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

struct Nesting {
  const char* name;
  std::function<std::string(size_t)> text;  // n levels
};

template <typename ParseFn>
void ExpectLadder(const std::vector<Nesting>& nestings, ParseFn parse) {
  for (const Nesting& nesting : nestings) {
    for (size_t n = 10; n <= 1000000; n *= 10) {
      const Status status = parse(nesting.text(n));
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
    // The bound is exact: kDefaultMaxDepth levels parse, one more does not.
    EXPECT_TRUE(parse(nesting.text(kDefaultMaxDepth)).ok()) << nesting.name;
    EXPECT_EQ(parse(nesting.text(kDefaultMaxDepth + 1)).code(),
              Code::kResourceExhausted)
        << nesting.name;
  }
}

TEST(JsonNestingTest, LadderIsResourceExhaustedBeyondMaxDepth) {
  const std::vector<Nesting> nestings = {
      {"arrays",
       [](size_t n) { return Repeat("[", n) + "1" + Repeat("]", n); }},
      {"objects",
       [](size_t n) {
         return Repeat("{\"k\":", n) + "null" + Repeat("}", n);
       }},
      {"mixed",
       [](size_t n) {
         return Repeat("[{\"k\":", n / 2) + Repeat("[", n % 2) + "true" +
                Repeat("]", n % 2) + Repeat("}]", n / 2);
       }},
  };
  ExpectLadder(nestings, [](const std::string& text) {
    Interner dict;
    return ParseJson(text, &dict).status();
  });
  // Unclosed nesting is refused on depth before the missing brackets.
  Interner dict;
  EXPECT_EQ(ParseJson(Repeat("[", 100000), &dict).status().code(),
            Code::kResourceExhausted);
}

TEST(XmlNestingTest, LadderIsResourceExhaustedBeyondMaxDepth) {
  const std::vector<Nesting> nestings = {
      {"elements",
       [](size_t n) { return Repeat("<a>", n) + Repeat("</a>", n); }},
      {"attributes_and_text",
       [](size_t n) {
         return Repeat("<a x=\"1\">t", n) + Repeat("</a>", n);
       }},
  };
  ExpectLadder(nestings, [](const std::string& text) {
    Interner dict;
    return ParseXml(text, &dict).status();
  });
  Interner dict;
  EXPECT_EQ(ParseXml(Repeat("<a>", 40000), &dict).status().code(),
            Code::kResourceExhausted);
}

}  // namespace
}  // namespace rwdt::tree
