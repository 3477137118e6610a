#ifndef RWDT_COMMON_MAX_DEPTH_H_
#define RWDT_COMMON_MAX_DEPTH_H_

#include <cstddef>

namespace rwdt {

/// The nesting budget every recursive-descent parser in the tree
/// applies: SPARQL (whole query), property paths, XPath, JSON, XML,
/// regular expressions and DTD content models refuse input that nests
/// deeper than this many levels with kResourceExhausted, before the
/// recursion (or the destructor chain of the tree it builds) can exhaust
/// the stack.
inline constexpr size_t kDefaultMaxDepth = 256;

}  // namespace rwdt

#endif  // RWDT_COMMON_MAX_DEPTH_H_
