// The depth ladders of the SPARQL and XPath parsers: each nesting
// construct their depth budget (common/max_depth.h) counts, as a text
// nested n times. The parser tests climb them past the bound; the
// executor and classifier tests run the deepest text each parser
// accepts.
#ifndef RWDT_TESTS_DEPTH_LADDERS_H_
#define RWDT_TESTS_DEPTH_LADDERS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rwdt::ladders {

inline std::string Repeat(std::string_view s, size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (size_t i = 0; i < n; ++i) out += s;
  return out;
}

/// One way to nest a query: `text(n)` repeats the construct n times and
/// opens base + per * n levels of the depth bound.
struct Nesting {
  const char* name;
  size_t base;
  size_t per;
  std::function<std::string(size_t)> text;
};

/// Every construct the SPARQL parser's depth budget counts, over a
/// store where `alice knows ?b` matches one row. The innermost pattern
/// matches that row: the evaluator re-evaluates an EXISTS body for each
/// row, so nested EXISTS over r rows costs r^depth steps (bounded by
/// EvalLimits::max_steps, not by depth). Postfix paths use `?`, whose
/// nesting evaluates in linear time, because the reference evaluator
/// computes a `*` nested in a `*` in reach^depth time.
inline std::vector<Nesting> SparqlNestings() {
  const std::string kRow = "alice knows ?b ";
  auto nested_in = [kRow](std::string open, std::string close = "} ") {
    return [kRow, open, close](size_t n) {
      return "SELECT * WHERE { " + Repeat(open, n) + kRow + Repeat(close, n) +
             "}";
    };
  };
  return {
      {"group", 0, 1,
       [kRow](size_t n) {
         return "SELECT * WHERE " + Repeat("{ ", n) + kRow + Repeat("} ", n);
       }},
      {"optional", 1, 1, nested_in("alice knows ?b OPTIONAL { ")},
      {"union", 1, 1, nested_in("{ alice knows ?b } UNION { ")},
      {"minus", 1, 1, nested_in("alice knows ?b MINUS { ")},
      {"graph", 1, 1, nested_in("GRAPH ?g { ")},
      {"service", 1, 1, nested_in("SERVICE <urn:s> { ")},
      {"exists", 1, 2, nested_in("alice knows ?b FILTER EXISTS { ")},
      {"not_exists", 1, 2, nested_in("alice knows ?b FILTER NOT EXISTS { ")},
      {"subquery", 1, 2, nested_in("{ SELECT * WHERE { ", "} } ")},
      {"filter_parens", 2, 1,
       [kRow](size_t n) {
         return "SELECT * WHERE { " + kRow + "FILTER" + Repeat("(", n) +
                "?b != alice" + Repeat(")", n) + " }";
       }},
      {"filter_not", 3, 1,
       [kRow](size_t n) {
         return "SELECT * WHERE { " + kRow + "FILTER(" + Repeat("!", n) +
                "bound(?b)) }";
       }},
      {"datatype", 1, 1,
       [](size_t n) {
         return "SELECT * WHERE { alice knows " + Repeat("\"x\"^^", n) +
                "<urn:t> }";
       }},
      {"path_parens", 1, 1,
       [](size_t n) {
         return "SELECT * WHERE { alice " + Repeat("(", n) + "knows" +
                Repeat(")", n) + " ?b }";
       }},
      {"path_inverse", 1, 1,
       [](size_t n) {
         return "SELECT * WHERE { ?b " + Repeat("^", n) + "knows alice }";
       }},
      {"path_postfix", 1, 1,
       [](size_t n) {
         return "SELECT * WHERE { alice knows" + Repeat("?", n) + " ?b }";
       }},
  };
}

/// Every construct the XPath parser's depth budget counts.
inline std::vector<Nesting> XPathNestings() {
  return {
      {"predicate", 0, 1,
       [](size_t n) { return Repeat("a[", n) + "b" + Repeat("]", n); }},
      {"not", 1, 1,
       [](size_t n) {
         return "a[" + Repeat("not(", n) + "b" + Repeat(")", n) + "]";
       }},
      {"parens", 1, 1,
       [](size_t n) {
         return "a[" + Repeat("(", n) + "b" + Repeat(")", n) + "]";
       }},
  };
}

}  // namespace rwdt::ladders

#endif  // RWDT_TESTS_DEPTH_LADDERS_H_
