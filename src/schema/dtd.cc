#include "schema/dtd.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>

#include "common/max_depth.h"
#include "regex/glushkov.h"

namespace rwdt::schema {

std::set<SymbolId> Dtd::Alphabet() const {
  std::set<SymbolId> out(start.begin(), start.end());
  for (SymbolId a : any) out.insert(a);
  for (const auto& [label, content] : rules) {
    out.insert(label);
    content->CollectAlphabet(&out);
  }
  return out;
}

namespace {

std::map<SymbolId, regex::Dfa> CompileRules(const Dtd& dtd) {
  std::map<SymbolId, regex::Dfa> dfas;
  for (const auto& [label, content] : dtd.rules) {
    dfas.emplace(label, regex::ToDfa(content));
  }
  return dfas;
}

}  // namespace

DtdValidator::DtdValidator(const Dtd& dtd)
    : dtd_(dtd), dfas_(CompileRules(dtd)) {}

ValidationResult DtdValidator::Validate(const tree::Tree& t) const {
  ValidationResult result;
  if (t.empty()) {
    result.message = "empty tree";
    return result;
  }
  const SymbolId root_label = t.node(t.root()).label;
  if (dtd_.start.count(root_label) == 0) {
    result.offending_node = t.root();
    result.message = "root label not in start set";
    return result;
  }
  for (tree::NodeId id : t.PreOrder()) {
    const SymbolId label = t.node(id).label;
    if (dtd_.any.count(label) > 0) continue;
    const auto word = t.ChildLabels(id);
    auto it = dfas_.find(label);
    if (it == dfas_.end()) {
      if (!word.empty()) {
        result.offending_node = id;
        result.message = "element without rule has children";
        return result;
      }
      continue;
    }
    if (!it->second.Accepts(word)) {
      result.offending_node = id;
      result.message = "children violate content model";
      return result;
    }
  }
  result.valid = true;
  return result;
}

bool IsRecursive(const Dtd& dtd) {
  // DFS from start labels over the rule graph, tracking the stack.
  std::map<SymbolId, std::set<SymbolId>> succ;
  for (const auto& [label, content] : dtd.rules) {
    std::set<SymbolId> alphabet;
    content->CollectAlphabet(&alphabet);
    succ[label] = std::move(alphabet);
  }
  std::map<SymbolId, int> color;  // 0 white 1 grey 2 black
  std::vector<std::pair<SymbolId, bool>> stack;
  // Choi's definition considers the whole rule graph, not only the part
  // reachable from start labels.
  for (const auto& [label, content] : dtd.rules) {
    (void)content;
    stack.emplace_back(label, false);
  }
  for (SymbolId s : dtd.start) stack.emplace_back(s, false);
  while (!stack.empty()) {
    auto [label, leaving] = stack.back();
    stack.pop_back();
    if (leaving) {
      color[label] = 2;
      continue;
    }
    if (color[label] == 1) continue;
    if (color[label] == 2) continue;
    color[label] = 1;
    stack.emplace_back(label, true);
    for (SymbolId next : succ[label]) {
      if (color[next] == 1) return true;  // back edge
      if (color[next] == 0) stack.emplace_back(next, false);
    }
  }
  return false;
}

std::optional<size_t> MaxDocumentDepth(const Dtd& dtd) {
  if (IsRecursive(dtd)) return std::nullopt;
  // Longest path in the (acyclic) rule DAG from a start label, counting
  // nodes. Memoized DFS.
  std::map<SymbolId, std::set<SymbolId>> succ;
  for (const auto& [label, content] : dtd.rules) {
    std::set<SymbolId> alphabet;
    content->CollectAlphabet(&alphabet);
    succ[label] = std::move(alphabet);
  }
  std::map<SymbolId, size_t> memo;
  // Iterative post-order.
  std::function<size_t(SymbolId)> depth = [&](SymbolId label) -> size_t {
    auto it = memo.find(label);
    if (it != memo.end()) return it->second;
    size_t best = 0;
    for (SymbolId next : succ[label]) best = std::max(best, depth(next));
    memo[label] = best + 1;
    return best + 1;
  };
  size_t best = 0;
  for (SymbolId s : dtd.start) best = std::max(best, depth(s));
  return best;
}

StreamingDtdValidator::StreamingDtdValidator(const Dtd& dtd)
    : dtd_(dtd), dfas_(CompileRules(dtd)) {}

bool StreamingDtdValidator::StartElement(SymbolId label) {
  if (failed_) return false;
  if (stack_.empty()) {
    if (root_closed_ || dtd_.start.count(label) == 0) {
      failed_ = true;
      return false;
    }
    root_seen_ = true;
  } else {
    Frame& top = stack_.back();
    if (!top.any) {
      auto it = dfas_.find(top.label);
      if (it == dfas_.end()) {
        failed_ = true;  // element without rule must be a leaf
        return false;
      }
      top.state = it->second.Step(top.state, label);
      if (top.state == regex::kNoState) {
        failed_ = true;
        return false;
      }
    }
  }
  Frame frame;
  frame.label = label;
  frame.any = dtd_.any.count(label) > 0;
  frame.state = 0;
  stack_.push_back(frame);
  max_stack_depth_ = std::max(max_stack_depth_, stack_.size());
  return true;
}

bool StreamingDtdValidator::EndElement() {
  if (failed_ || stack_.empty()) {
    failed_ = true;
    return false;
  }
  const Frame top = stack_.back();
  stack_.pop_back();
  if (!top.any) {
    auto it = dfas_.find(top.label);
    if (it == dfas_.end()) {
      // Leaf without rule: fine (no children were accepted anyway).
    } else if (!it->second.accept[top.state]) {
      failed_ = true;
      return false;
    }
  }
  if (stack_.empty()) root_closed_ = true;
  return true;
}

bool StreamingDtdValidator::Finish() const {
  return !failed_ && root_seen_ && root_closed_ && stack_.empty();
}

namespace {

/// Parses DTD content-model syntax: ',' concat, '|' union, postfix
/// modifiers, #PCDATA, names.
class ContentParser {
 public:
  ContentParser(std::string_view input, Interner* dict)
      : input_(input), dict_(dict) {}

  Result<regex::RegexPtr> Parse() {
    RWDT_ASSIGN_OR_RETURN(regex::RegexPtr e, ParseUnion());
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing content-model characters");
    }
    return e;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  Result<regex::RegexPtr> ParseUnion() {
    RWDT_ASSIGN_OR_RETURN(regex::RegexPtr first, ParseConcat());
    std::vector<regex::RegexPtr> parts = {std::move(first)};
    while (Peek() == '|') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(regex::RegexPtr next, ParseConcat());
      parts.push_back(std::move(next));
    }
    return regex::Regex::Union(std::move(parts));
  }

  Result<regex::RegexPtr> ParseConcat() {
    RWDT_ASSIGN_OR_RETURN(regex::RegexPtr first, ParsePostfix());
    std::vector<regex::RegexPtr> parts = {std::move(first)};
    while (Peek() == ',') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(regex::RegexPtr next, ParsePostfix());
      parts.push_back(std::move(next));
    }
    return regex::Regex::Concat(std::move(parts));
  }

  Result<regex::RegexPtr> ParsePostfix() {
    RWDT_ASSIGN_OR_RETURN(regex::RegexPtr e, ParseAtom());
    // Each postfix modifier wraps the atom in one more AST level.
    size_t levels = depth_;
    for (;;) {
      const char c = pos_ < input_.size() ? input_[pos_] : '\0';
      if (c == '*') {
        e = regex::Regex::Star(e);
      } else if (c == '+') {
        e = regex::Regex::Plus(e);
      } else if (c == '?') {
        e = regex::Regex::Optional(e);
      } else {
        break;
      }
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++levels));
    }
    return e;
  }

  Result<regex::RegexPtr> ParseAtom() {
    const char c = Peek();
    if (c == '(') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(regex::RegexPtr inner, ParseUnion());
      if (Peek() != ')') return Status::ParseError("expected ')'");
      ++pos_;
      --depth_;
      return inner;
    }
    if (c == '#') {
      if (input_.substr(pos_, 7) == "#PCDATA") {
        pos_ += 7;
        return regex::Regex::Epsilon();  // text content: no child labels
      }
      return Status::ParseError("unknown # token");
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_' || input_[pos_] == '-' ||
              input_[pos_] == ':' || input_[pos_] == '.')) {
        name += input_[pos_++];
      }
      return regex::Regex::Symbol(dict_->Intern(name));
    }
    return Status::ParseError(std::string("unexpected character '") + c +
                              "' in content model");
  }

  /// kResourceExhausted once `levels` exceeds the depth bound that
  /// every parser in the tree applies.
  Status CheckDepth(size_t levels) const {
    if (levels <= kDefaultMaxDepth) return Status::Ok();
    return Status::ResourceExhausted(
        "content model nests deeper than " +
        std::to_string(kDefaultMaxDepth) + " levels");
  }

  std::string_view input_;
  Interner* dict_;
  size_t pos_ = 0;
  /// Open groups. An error ends the parse, so only a closed group gives
  /// its level back.
  size_t depth_ = 0;
};

}  // namespace

Result<Dtd> ParseDtd(std::string_view input, Interner* dict) {
  Dtd dtd;
  size_t pos = 0;
  bool first = true;
  while (pos < input.size()) {
    const size_t open = input.find("<!ELEMENT", pos);
    if (open == std::string_view::npos) break;
    const size_t close = input.find('>', open);
    if (close == std::string_view::npos) {
      return Status::ParseError("unterminated <!ELEMENT");
    }
    std::string_view body = input.substr(open + 9, close - open - 9);
    // body: "  name  content".
    size_t i = 0;
    while (i < body.size() &&
           std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
    }
    std::string name;
    while (i < body.size() &&
           !std::isspace(static_cast<unsigned char>(body[i]))) {
      name += body[i++];
    }
    if (name.empty()) return Status::ParseError("missing element name");
    const SymbolId label = dict->Intern(name);
    std::string_view content = body.substr(i);
    // Trim.
    size_t b = 0, e = content.size();
    while (b < e && std::isspace(static_cast<unsigned char>(content[b]))) {
      ++b;
    }
    while (e > b &&
           std::isspace(static_cast<unsigned char>(content[e - 1]))) {
      --e;
    }
    content = content.substr(b, e - b);
    if (content == "EMPTY") {
      dtd.rules[label] = regex::Regex::Epsilon();
    } else if (content == "ANY") {
      dtd.any.insert(label);
    } else {
      // Mixed content (#PCDATA|a|b)* parses to (eps|a|b)* ; keep as-is
      // (the epsilon branch is harmless).
      RWDT_ASSIGN_OR_RETURN(dtd.rules[label],
                            ContentParser(content, dict).Parse());
    }
    if (first) {
      dtd.start.insert(label);
      first = false;
    }
    pos = close + 1;
  }
  if (first) return Status::ParseError("no <!ELEMENT declarations found");
  return dtd;
}

namespace {

// DTD content-model syntax uses ',' for concatenation; precedence as in
// the regex renderer (union < concat < postfix).
void RenderContent(const regex::Regex& e, const Interner& dict,
                   int parent_prec, std::string* out) {
  using regex::Op;
  const int prec = e.op() == Op::kUnion    ? 0
                   : e.op() == Op::kConcat ? 1
                                           : 2;
  const bool parens = prec < parent_prec;
  if (parens) *out += '(';
  switch (e.op()) {
    case Op::kEpsilon:
    case Op::kEmpty:
      *out += "#PCDATA";  // closest DTD notion of "no element content"
      break;
    case Op::kSymbol:
      *out += dict.Name(e.symbol());
      break;
    case Op::kConcat: {
      bool first = true;
      for (const auto& c : e.children()) {
        if (!first) *out += ", ";
        first = false;
        RenderContent(*c, dict, 2, out);
      }
      break;
    }
    case Op::kUnion: {
      bool first = true;
      for (const auto& c : e.children()) {
        if (!first) *out += " | ";
        first = false;
        RenderContent(*c, dict, 1, out);
      }
      break;
    }
    case Op::kStar:
      RenderContent(*e.child(), dict, 3, out);
      *out += '*';
      break;
    case Op::kPlus:
      RenderContent(*e.child(), dict, 3, out);
      *out += '+';
      break;
    case Op::kOptional:
      RenderContent(*e.child(), dict, 3, out);
      *out += '?';
      break;
  }
  if (parens) *out += ')';
}

}  // namespace

std::string DtdToString(const Dtd& dtd, const Interner& dict) {
  std::string out;
  for (const auto& [label, content] : dtd.rules) {
    out.append("<!ELEMENT ").append(dict.Name(label)).append(" ");
    if (content->op() == regex::Op::kEpsilon) {
      out += "EMPTY";
    } else {
      std::string body;
      RenderContent(*content, dict, 0, &body);
      out += "(" + body + ")";
    }
    out += ">\n";
  }
  for (SymbolId label : dtd.any) {
    out.append("<!ELEMENT ").append(dict.Name(label)).append(" ANY>\n");
  }
  return out;
}

}  // namespace rwdt::schema
