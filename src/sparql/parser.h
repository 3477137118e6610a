#ifndef RWDT_SPARQL_PARSER_H_
#define RWDT_SPARQL_PARSER_H_

#include <string_view>

#include "common/interner.h"
#include "common/status.h"
#include "sparql/algebra.h"

namespace rwdt::sparql {

/// Per-query resource guards. Real logs contain adversarially large
/// queries; the parser refuses to run away and instead returns
/// `Code::kResourceExhausted`, which the ingest pipeline counts under
/// its error taxonomy.
struct ParseLimits {
  /// Queries longer than this many bytes are rejected up front.
  size_t max_query_bytes = 1 << 20;  // 1 MiB
  /// Budget on parser steps (~= AST nodes + tokens). Each term, pattern
  /// node, filter node, and path expression consumes one step, including
  /// inside subqueries; 0 is invalid (use Validate()).
  size_t max_parser_steps = 1 << 20;

  /// Rejects nonsensical limits (a zero budget would fail every query).
  Status Validate() const;
};

/// Parses a SPARQL(-subset) query into the algebra of algebra.h.
///
/// Supported: PREFIX/BASE headers (prefixes are kept as written, not
/// expanded), SELECT (DISTINCT/REDUCED, projections, aggregates as
/// "(AGG(?x) AS ?y)"), ASK, CONSTRUCT, DESCRIBE; group graph patterns
/// with triple blocks ('.', ';', ',' notation), property paths in
/// predicate position, FILTER (comparisons, unary built-ins, && || !,
/// (NOT) EXISTS), OPTIONAL, UNION, GRAPH, BIND, VALUES, MINUS, SERVICE,
/// subqueries; solution modifiers GROUP BY / HAVING / ORDER BY / LIMIT /
/// OFFSET.
///
/// Variables, IRIs, and literals are interned into `dict`; variables are
/// interned with their '?' prefix so they never collide with IRIs.
///
/// Errors carry a `Code` that maps onto the ingest taxonomy: kLexError
/// for malformed tokens, kParseError for grammar violations,
/// kUnsupported for recognized-but-unsupported syntax, and
/// kResourceExhausted when `limits` are exceeded or the query nests
/// deeper than kDefaultMaxDepth levels.
///
/// The depth bound keeps the parser's recursion, and that of the
/// property path walkers, off the end of the stack; the walks over the
/// parsed query are loops (algebra.h). One level
/// each: a group pattern (including OPTIONAL, UNION, MINUS, GRAPH,
/// SERVICE and EXISTS bodies), a subquery, a unary filter expression (so
/// every `!` and parenthesized part), a typed literal's datatype, and
/// each level inside a property path (see paths::ParsePath). Generated
/// logs nest at most 4 braces and 3 parentheses.
///
/// The overload that takes `out` clears it and parses into it, reusing
/// its arrays and `dict`'s arena: a caller that keeps one dictionary and
/// one Query per worker, and Clear()s the dictionary between texts (each
/// engine shard does), allocates nothing once they have grown. On error
/// `out` holds an unspecified partial parse. The overloads that return a
/// Query parse into a fresh one through the same code.
Result<Query> ParseSparql(std::string_view input, Interner* dict);
Result<Query> ParseSparql(std::string_view input, Interner* dict,
                          const ParseLimits& limits);
Status ParseSparql(std::string_view input, Interner* dict,
                   const ParseLimits& limits, Query* out);

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_PARSER_H_
