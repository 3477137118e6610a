#ifndef RWDT_SCHEMA_DTD_H_
#define RWDT_SCHEMA_DTD_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "regex/ast.h"
#include "regex/automaton.h"
#include "tree/tree.h"

namespace rwdt::schema {

/// A Document Type Definition d = (Sigma, rho, S) (Definition 4.1):
/// rules map labels to content models (regular expressions over labels);
/// labels without a rule admit no children. `any` labels use DTD's
/// ANY content (any children allowed).
struct Dtd {
  std::map<SymbolId, regex::RegexPtr> rules;
  std::set<SymbolId> start;
  std::set<SymbolId> any;  // labels declared ANY

  /// Implicit alphabet: labels occurring in rules, starts, or contents.
  std::set<SymbolId> Alphabet() const;
};

/// Outcome of validating one tree.
struct ValidationResult {
  bool valid = false;
  /// First offending node (child word not in content model or bad root).
  tree::NodeId offending_node = tree::kNoNode;
  std::string message;
};

/// Validates trees against a DTD; content models are compiled to DFAs
/// once and reused across trees.
class DtdValidator {
 public:
  explicit DtdValidator(const Dtd& dtd);

  ValidationResult Validate(const tree::Tree& t) const;

 private:
  const Dtd& dtd_;
  std::map<SymbolId, regex::Dfa> dfas_;
};

/// True iff the rule graph (a -> b when b occurs in rho(a)) has a directed
/// cycle reachable from a start label (Choi's recursion analysis,
/// Section 4.1: 35 of his 60 DTDs were recursive).
bool IsRecursive(const Dtd& dtd);

/// Maximum depth (in nodes) of any tree valid w.r.t. the DTD; nullopt when
/// the DTD is recursive (depth unbounded). Choi observed non-recursive
/// DTDs allowing depth up to 20.
std::optional<size_t> MaxDocumentDepth(const Dtd& dtd);

/// SAX-style streaming validator: feed StartElement/EndElement events in
/// document order. Memory use is one DFA state per open element, so for
/// non-recursive DTDs the stack depth is bounded by MaxDocumentDepth
/// (Segoufin-Vianu constant-memory validation, Section 4.1).
class StreamingDtdValidator {
 public:
  explicit StreamingDtdValidator(const Dtd& dtd);

  /// Both return false when the document is already known invalid.
  bool StartElement(SymbolId label);
  bool EndElement();

  /// True iff all events were consistent and the document is complete
  /// (the single root was opened and closed).
  bool Finish() const;

  /// High-water mark of the open-element stack (memory footprint).
  size_t max_stack_depth() const { return max_stack_depth_; }

 private:
  struct Frame {
    SymbolId label;
    regex::State state;
    bool any;
  };

  const Dtd& dtd_;
  std::map<SymbolId, regex::Dfa> dfas_;
  std::vector<Frame> stack_;
  bool failed_ = false;
  bool root_seen_ = false;
  bool root_closed_ = false;
  size_t max_stack_depth_ = 0;
};

/// Parses real-world DTD syntax:
///   <!ELEMENT persons (person*)>
///   <!ELEMENT person (name, birthplace)>
///   <!ELEMENT name (#PCDATA)>
///   <!ELEMENT note EMPTY>
///   <!ELEMENT extra ANY>
/// Operators: ',' concatenation, '|' union, postfix '*' '+' '?'. Mixed
/// content (#PCDATA|a|b)* is modeled as (a|b)*. The first declared
/// element becomes the start label. A content model whose groups and
/// postfix modifiers nest deeper than kDefaultMaxDepth levels is refused
/// with kResourceExhausted.
Result<Dtd> ParseDtd(std::string_view input, Interner* dict);

/// Renders the DTD back to <!ELEMENT ...> syntax.
std::string DtdToString(const Dtd& dtd, const Interner& dict);

}  // namespace rwdt::schema

#endif  // RWDT_SCHEMA_DTD_H_
