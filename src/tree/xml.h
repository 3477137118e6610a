#ifndef RWDT_TREE_XML_H_
#define RWDT_TREE_XML_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "tree/tree.h"

namespace rwdt::tree {

/// Well-formedness error taxonomy, following the Grijzenhout-Marx study
/// of the XML Web (paper Section 3.1): they found 74 categories of which
/// 9 cover 99% of errors; the top three (tag mismatch, premature end,
/// improper UTF-8) cover 79.9%.
enum class XmlErrorCategory {
  kNone = 0,
  kTagMismatch,       // </b> closing <a>
  kPrematureEnd,      // input ends inside a tag or open element
  kBadEncoding,       // invalid UTF-8 byte sequence
  kBadAttribute,      // unquoted value / missing '=' / duplicate name
  kBadEntity,         // stray '&' or unknown entity reference
  kBadComment,        // '--' inside comment or unterminated comment
  kMultipleRoots,     // more than one top-level element
  kStrayContent,      // markup characters in the wrong place ('<' mid-tag)
  kBadTagName,        // tag name starts with a digit or punctuation
  kEmptyDocument,     // no root element at all
};

/// Name of a category, e.g. "tag-mismatch".
std::string XmlErrorCategoryName(XmlErrorCategory category);

/// An attribute attached to an element node.
struct XmlAttribute {
  NodeId node = kNoNode;
  std::string name;
  std::string value;
};

/// A well-formed document: the element tree plus its attributes.
struct XmlDocument {
  Tree tree;
  std::vector<XmlAttribute> attributes;
};

/// Parses an XML(-subset) document: prolog, comments, CDATA, entities,
/// attributes, nested elements, self-closing tags. DOCTYPE declarations
/// are accepted and skipped. Element names are interned into `dict`.
///
/// On failure the Status carries `Code::kEncodingError` for invalid
/// UTF-8, `Code::kResourceExhausted` for elements nesting deeper than
/// kDefaultMaxDepth levels, and `Code::kParseError` otherwise; a parse
/// error's message is "<category>: <detail> at offset N" with the
/// category name from XmlErrorCategoryName, recoverable via
/// ClassifyXmlError.
Result<XmlDocument> ParseXml(std::string_view input, Interner* dict);

/// Recovers the well-formedness category from a ParseXml error Status
/// (kNone for an OK status or a status from elsewhere).
XmlErrorCategory ClassifyXmlError(const Status& status);

/// Serializes a tree back to XML text (used by generators and tests).
std::string ToXml(const Tree& tree, const Interner& dict);

/// Validates that `input` is well-formed UTF-8.
bool IsValidUtf8(std::string_view input);

}  // namespace rwdt::tree

#endif  // RWDT_TREE_XML_H_
