#ifndef RWDT_REGEX_PARSER_H_
#define RWDT_REGEX_PARSER_H_

#include <string_view>

#include "common/interner.h"
#include "common/status.h"
#include "regex/ast.h"

namespace rwdt::regex {

/// Parses the library's concrete regex syntax:
///
///   union         e1 | e2        (the paper writes e1 + e2)
///   concatenation e1 e2          (juxtaposition; whitespace optional
///                                 between single-character symbols)
///   postfix       e* e+ e?
///   grouping      ( e )
///   epsilon       <eps>
///   empty set     <empty>
///
/// Symbols are either single characters from [A-Za-z0-9_#$@] or quoted
/// multi-character names 'like:this'. Symbol names are interned into
/// `dict`, which the caller owns (so several expressions can share one
/// alphabet). Groups and postfix operators nesting deeper than
/// kDefaultMaxDepth levels are refused with kResourceExhausted.
Result<RegexPtr> ParseRegex(std::string_view input, Interner* dict);

}  // namespace rwdt::regex

#endif  // RWDT_REGEX_PARSER_H_
