#include "sparql/parser.h"

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/ascii.h"
#include "common/max_depth.h"

namespace rwdt::sparql {
namespace {

/// Queries longer than this are refused whatever ParseLimits says: every
/// array a query fills holds fewer than eight entries or bytes per byte
/// of its text, so 32-bit indices address all of them.
constexpr size_t kMaxIndexedBytes = size_t{1} << 28;

bool IsNameChar(char c) {
  return ascii::IsAlnum(c) || c == '_' || c == ':' || c == '.' || c == '-' ||
         c == '#';
}

/// Characters that turn a predicate expression into a property path.
bool IsPathOperatorChar(char c) {
  return c == '/' || c == '|' || c == '^' || c == '*' || c == '+' ||
         c == '?' || c == '!' || c == '(';
}

/// A term's spelling, assembled at the end of the query's text buffer
/// and dropped from it again when the guard goes out of scope (its
/// symbol is interned before then). Nested spellings stack: a literal's
/// datatype is assembled after the literal and dropped first.
class Spelling {
 public:
  explicit Spelling(std::string* text) : text_(text), mark_(text->size()) {}
  ~Spelling() { text_->resize(mark_); }
  Spelling(const Spelling&) = delete;
  Spelling& operator=(const Spelling&) = delete;

  std::string& buffer() { return *text_; }
  std::string_view view() const {
    return std::string_view(*text_).substr(mark_);
  }

 private:
  std::string* text_;
  size_t mark_;
};

}  // namespace

namespace internal {

/// Every node goes into the flat arrays of one Query, shared with the
/// parsers of its subqueries. A node is appended once its operands are:
/// the operands of an open conjunction and the FILTERs of an open group
/// wait on the query's private `open_nodes_` / `open_filters_` stacks and
/// move into `links` when their node is made.
class SparqlParser {
 public:
  /// Clears `out` and parses `input` into it as a whole query. The open
  /// stacks are empty again when this returns, whether `input` was
  /// accepted or not.
  static Status ParseInto(std::string_view input, Interner* dict,
                          const ParseLimits& limits, Query* out) {
    out->Clear();
    size_t steps = limits.max_parser_steps;
    Status status =
        SparqlParser(input, dict, limits, &steps, 0, out).Parse(out);
    out->open_nodes_.clear();
    out->open_filters_.clear();
    return status;
  }

  /// `steps` is the shared step budget, decremented across subquery
  /// parsers so nesting cannot multiply the budget; `depth` is the
  /// nesting a subquery parser starts at.
  SparqlParser(std::string_view input, Interner* dict,
               const ParseLimits& limits, size_t* steps, size_t depth,
               Query* query)
      : input_(input),
        dict_(dict),
        limits_(limits),
        steps_(steps),
        depth_(depth),
        q_(query) {}

  /// Parses the whole input as one query level into `head`.
  Status Parse(QueryHead* head) {
    const size_t max_bytes =
        std::min(limits_.max_query_bytes, kMaxIndexedBytes);
    if (input_.size() > max_bytes) {
      return Status::ResourceExhausted(
          "query of " + std::to_string(input_.size()) +
          " bytes exceeds max_query_bytes=" + std::to_string(max_bytes));
    }
    if (!SkipHeaders()) return Error("bad PREFIX/BASE header");

    if (LitWord("SELECT")) {
      head->form = QueryForm::kSelect;
      RWDT_RETURN_IF_ERROR(ParseSelectClause(head));
      LitWord("WHERE");
      RWDT_ASSIGN_OR_RETURN(head->pattern, ParseGroupGraphPattern());
    } else if (LitWord("ASK")) {
      head->form = QueryForm::kAsk;
      LitWord("WHERE");
      RWDT_ASSIGN_OR_RETURN(head->pattern, ParseGroupGraphPattern());
    } else if (LitWord("CONSTRUCT")) {
      head->form = QueryForm::kConstruct;
      RWDT_RETURN_IF_ERROR(ParseConstructTemplate(head));
      LitWord("WHERE");
      RWDT_ASSIGN_OR_RETURN(head->pattern, ParseGroupGraphPattern());
    } else if (LitWord("DESCRIBE")) {
      head->form = QueryForm::kDescribe;
      // DESCRIBE terms, optional WHERE pattern.
      for (;;) {
        SkipSpace();
        if (pos_ >= input_.size() || Peek() == '{') break;
        const size_t mark = pos_;
        auto t = ParseTerm();
        if (!t.ok()) {
          if (t.status().code() == Code::kResourceExhausted) {
            return std::move(t).status();
          }
          pos_ = mark;
          break;
        }
        head->describe_terms.push_back(t.value());
        if (LitWord("WHERE") || Peek() == '{') break;
      }
      if (LitWord("WHERE") || Peek() == '{') {
        RWDT_ASSIGN_OR_RETURN(head->pattern, ParseGroupGraphPattern());
      }
    } else {
      return Error("expected SELECT/ASK/CONSTRUCT/DESCRIBE");
    }

    RWDT_RETURN_IF_ERROR(ParseSolutionModifiers(&head->modifiers));
    SkipSpace();
    if (pos_ != input_.size()) {
      return Error("trailing characters");
    }
    return Status::Ok();
  }

 private:
  /// "<what> at offset <pos>", built in one buffer.
  std::string AtOffset(std::string_view what) const {
    const std::string offset = std::to_string(pos_);
    std::string message;
    message.reserve(what.size() + 11 + offset.size());
    message.append(what).append(" at offset ").append(offset);
    return message;
  }

  Status Error(std::string_view what) const {
    return Status::ParseError(AtOffset(what));
  }

  /// Token-level breakage (bad characters, unterminated tokens) — a
  /// distinct taxonomy class from grammar-level parse errors.
  Status LexErr(std::string_view what) const {
    return Status::LexError(AtOffset(what));
  }

  /// Consumes one unit of the shared step budget (~one token/AST node).
  Status ConsumeStep() {
    if (*steps_ == 0) {
      return Status::ResourceExhausted(
          "query exceeds max_parser_steps=" +
          std::to_string(limits_.max_parser_steps));
    }
    --*steps_;
    return Status::Ok();
  }

  /// One level of nesting, open for the guard's scope, so a parse that
  /// recovers from an error inside it still closes the level.
  class Nest {
   public:
    explicit Nest(size_t* depth) : depth_(depth) { ++*depth_; }
    ~Nest() { --*depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    size_t* depth_;
  };

  /// kResourceExhausted once the open levels exceed the depth bound.
  Status CheckDepth() const {
    if (depth_ <= kDefaultMaxDepth) return Status::Ok();
    return Status::ResourceExhausted(
        "query nests deeper than " +
        std::to_string(kDefaultMaxDepth) + " levels");
  }

  void SkipSpace() {
    for (;;) {
      while (pos_ < input_.size() && ascii::IsSpace(input_[pos_])) ++pos_;
      if (pos_ < input_.size() && input_[pos_] == '#') {
        // Line comment.
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  char Peek() {
    SkipSpace();
    return pos_ < input_.size() ? input_[pos_] : '\0';
  }

  bool Lit(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Case-insensitive keyword match (not followed by a name character).
  bool LitWord(std::string_view word) {
    SkipSpace();
    return MatchWord(word);
  }

  /// LitWord at the current position, with the space already skipped.
  bool MatchWord(std::string_view word) {
    if (pos_ + word.size() > input_.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (ascii::ToUpper(input_[pos_ + i]) != ascii::ToUpper(word[i])) {
        return false;
      }
    }
    const size_t after = pos_ + word.size();
    if (after < input_.size() && IsNameChar(input_[after]) &&
        input_[after] != ':') {
      return false;
    }
    pos_ = after;
    return true;
  }

  bool SkipHeaders() {
    for (;;) {
      if (LitWord("PREFIX")) {
        // prefix name ':' '<iri>'
        SkipSpace();
        while (pos_ < input_.size() && input_[pos_] != '<') ++pos_;
        if (!Lit('<')) return false;
        while (pos_ < input_.size() && input_[pos_] != '>') ++pos_;
        if (pos_ >= input_.size()) return false;
        ++pos_;
        continue;
      }
      if (LitWord("BASE")) {
        SkipSpace();
        if (!Lit('<')) return false;
        while (pos_ < input_.size() && input_[pos_] != '>') ++pos_;
        if (pos_ >= input_.size()) return false;
        ++pos_;
        continue;
      }
      return true;
    }
  }

  Status ParseSelectClause(QueryHead* head) {
    if (LitWord("DISTINCT")) head->modifiers.distinct = true;
    if (LitWord("REDUCED")) head->modifiers.reduced = true;
    if (Lit('*')) {
      head->select_star = true;
      return Status::Ok();
    }
    for (;;) {
      SkipSpace();
      const char c = Peek();
      if (c == '?' || c == '$') {
        SelectItem item;
        RWDT_ASSIGN_OR_RETURN(item.var, ParseTerm());
        head->projection.push_back(item);
        continue;
      }
      if (c == '(') {
        ++pos_;
        RWDT_ASSIGN_OR_RETURN(SelectItem item, ParseAggregateItem());
        if (!Lit(')')) return Error("expected ')' in select item");
        head->projection.push_back(item);
        continue;
      }
      break;
    }
    if (head->projection.empty()) {
      return Error("SELECT needs projection or *");
    }
    return Status::Ok();
  }

  Result<SelectItem> ParseAggregateItem() {
    SelectItem item;
    static const std::pair<const char*, Aggregate> kAggs[] = {
        {"COUNT", Aggregate::kCount}, {"SUM", Aggregate::kSum},
        {"AVG", Aggregate::kAvg},     {"MIN", Aggregate::kMin},
        {"MAX", Aggregate::kMax},
    };
    bool found = false;
    for (const auto& [name, agg] : kAggs) {
      if (LitWord(name)) {
        item.aggregate = agg;
        found = true;
        break;
      }
    }
    if (!found) return Error("expected aggregate function");
    if (!Lit('(')) return Error("expected '(' after aggregate");
    LitWord("DISTINCT");
    if (Lit('*')) {
      item.aggregate_arg = Term{};  // COUNT(*)
    } else {
      RWDT_ASSIGN_OR_RETURN(item.aggregate_arg, ParseTerm());
    }
    if (!Lit(')')) return Error("expected ')' after aggregate arg");
    if (!LitWord("AS")) return Error("expected AS");
    RWDT_ASSIGN_OR_RETURN(item.var, ParseTerm());
    return item;
  }

  Status ParseConstructTemplate(QueryHead* head) {
    if (!Lit('{')) return Error("expected '{' after CONSTRUCT");
    while (Peek() != '}') {
      RWDT_ASSIGN_OR_RETURN(Term s, ParseTerm());
      RWDT_ASSIGN_OR_RETURN(Term p, ParseTerm());
      RWDT_ASSIGN_OR_RETURN(Term o, ParseTerm());
      head->construct_template.push_back({s, p, o});
      Lit('.');
      if (Peek() == '\0') return Error("unterminated CONSTRUCT template");
    }
    ++pos_;  // '}'
    return Status::Ok();
  }

  // --- Terms ---------------------------------------------------------

  Result<Term> ParseTerm() {
    RWDT_RETURN_IF_ERROR(ConsumeStep());
    SkipSpace();
    if (pos_ >= input_.size()) return Error("expected term");
    const char c = input_[pos_];
    Term term;
    if (c == '?' || c == '$') {
      const size_t start = pos_++;
      SkipWordChars();
      if (pos_ == start + 1) return LexErr("empty variable name");
      term.kind = Term::Kind::kVar;
      // Variables are interned with a '?' prefix however they are written.
      if (c == '?') {
        term.id = dict_->Intern(input_.substr(start, pos_ - start));
      } else {
        Spelling name(&q_->text);
        name.buffer() += '?';
        name.buffer().append(input_.substr(start + 1, pos_ - start - 1));
        term.id = dict_->Intern(name.view());
      }
      return term;
    }
    if (c == '<') {
      const size_t end = input_.find('>', pos_);
      if (end == std::string_view::npos) return LexErr("unterminated IRI");
      term.kind = Term::Kind::kIri;
      term.id = dict_->Intern(input_.substr(pos_ + 1, end - pos_ - 1));
      pos_ = end + 1;
      return term;
    }
    if (c == '"' || c == '\'') {
      // Interned as '"' + text (escapes resolved) + tag or datatype + '"'.
      const char quote = c;
      ++pos_;
      Spelling literal(&q_->text);
      std::string& text = literal.buffer();
      text += '"';
      size_t run = pos_;  // start of the text not yet copied
      while (pos_ < input_.size() && input_[pos_] != quote) {
        if (input_[pos_] == '\\' && pos_ + 1 < input_.size()) {
          // Drop the backslash; the escaped character starts the next run.
          text.append(input_.substr(run, pos_ - run));
          run = ++pos_;
        }
        ++pos_;
      }
      if (pos_ >= input_.size()) return LexErr("unterminated literal");
      text.append(input_.substr(run, pos_ - run));
      ++pos_;
      // Language tag / datatype.
      if (pos_ < input_.size() && input_[pos_] == '@') {
        const size_t tag = pos_++;
        while (pos_ < input_.size() &&
               (ascii::IsAlnum(input_[pos_]) || input_[pos_] == '-')) {
          ++pos_;
        }
        text.append(input_.substr(tag, pos_ - tag));
      } else if (input_.substr(pos_, 2) == "^^") {
        pos_ += 2;
        const Nest nest(&depth_);
        RWDT_RETURN_IF_ERROR(CheckDepth());
        // The datatype's own spelling, if it needs one, goes after this
        // one and is dropped before this one grows.
        RWDT_ASSIGN_OR_RETURN(const Term type, ParseTerm());
        text += "^^";
        text += dict_->Name(type.id);
      }
      text += '"';
      term.kind = Term::Kind::kLiteral;
      term.id = dict_->Intern(literal.view());
      return term;
    }
    if (c == '_' && pos_ + 1 < input_.size() && input_[pos_ + 1] == ':') {
      const size_t start = pos_;
      pos_ += 2;
      SkipWordChars();
      term.kind = Term::Kind::kBlank;
      term.id = dict_->Intern(input_.substr(start, pos_ - start));
      return term;
    }
    if (c == '[') {
      ++pos_;
      SkipSpace();
      if (pos_ < input_.size() && input_[pos_] == ']') {
        ++pos_;
        term.kind = Term::Kind::kBlank;
        Spelling label(&q_->text);
        label.buffer() += "_:anon";
        label.buffer() += std::to_string(blank_counter_++);
        term.id = dict_->Intern(label.view());
        return term;
      }
      return Status::Unsupported(
          "non-empty blank node property lists are unsupported at offset " +
          std::to_string(pos_));
    }
    if (ascii::IsDigit(c) || c == '-' || c == '+') {
      const size_t start = pos_++;
      while (pos_ < input_.size() &&
             (ascii::IsDigit(input_[pos_]) || input_[pos_] == '.' ||
              input_[pos_] == 'e' || input_[pos_] == 'E')) {
        ++pos_;
      }
      term.kind = Term::Kind::kLiteral;
      Spelling number(&q_->text);
      number.buffer() += '"';
      number.buffer().append(input_.substr(start, pos_ - start));
      number.buffer() += '"';
      term.id = dict_->Intern(number.view());
      return term;
    }
    if (LitWord("true") || LitWord("false")) {
      term.kind = Term::Kind::kLiteral;
      term.id = dict_->Intern(
          input_[pos_ - 1] == 'e' && input_[pos_ - 2] == 'u' ? "\"true\""
                                                             : "\"false\"");
      return term;
    }
    // Prefixed or bare name (IRI). The bare keyword 'a' is rdf:type.
    if (IsNameChar(c)) {
      const size_t start = pos_;
      while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
      std::string_view name = input_.substr(start, pos_ - start);
      if (name == "a") name = "rdf:type";
      term.kind = Term::Kind::kIri;
      term.id = dict_->Intern(name);
      return term;
    }
    return LexErr(std::string("unexpected character '") + c + "'");
  }

  // --- Nodes ---------------------------------------------------------

  NodeIndex AddNode(const Pattern& node) {
    q_->nodes.push_back(node);
    return NodeIndex(q_->nodes.size() - 1);
  }

  NodeIndex AddFilter(const FilterExpr& node) {
    q_->filters.push_back(node);
    return NodeIndex(q_->filters.size() - 1);
  }

  /// Moves `open[base..]` into `links` as one children range.
  IndexRange CloseChildren(std::vector<NodeIndex>* open, size_t base) {
    std::vector<NodeIndex>& links = q_->links;
    const IndexRange range{static_cast<uint32_t>(links.size()),
                           static_cast<uint32_t>(open->size() - base)};
    links.insert(links.end(), open->begin() + static_cast<ptrdiff_t>(base),
                 open->end());
    open->resize(base);
    return range;
  }

  /// The children range [first, rest...] appended to `links`.
  IndexRange Children(std::initializer_list<NodeIndex> children) {
    std::vector<NodeIndex>& links = q_->links;
    const IndexRange range{static_cast<uint32_t>(links.size()),
                           static_cast<uint32_t>(children.size())};
    links.insert(links.end(), children);
    return range;
  }

  NodeIndex AddOperator(Pattern::Op op,
                        std::initializer_list<NodeIndex> children) {
    Pattern node;
    node.op = op;
    node.children = Children(children);
    return AddNode(node);
  }

  // --- Patterns ------------------------------------------------------

  Result<NodeIndex> ParseGroupGraphPattern() {
    const Nest nest(&depth_);
    RWDT_RETURN_IF_ERROR(CheckDepth());
    if (!Lit('{')) return Error("expected '{'");
    // This group's conjuncts so far are open_nodes_[conjuncts..], and its
    // FILTERs open_filters_[filters..]; nested groups push above them and
    // pop what they pushed before returning.
    std::vector<NodeIndex>& open = q_->open_nodes_;
    const size_t conjuncts = open.size();
    const size_t filters = q_->open_filters_.size();

    // The conjunction so far, popped from `open`: every caller starts a
    // new conjunction after it.
    auto current = [&]() -> NodeIndex {
      if (open.size() == conjuncts) {
        // Empty pattern: a unit VALUES with one empty row.
        Pattern unit;
        unit.op = Pattern::Op::kValues;
        unit.values_vars = {static_cast<uint32_t>(q_->terms.size()), 0};
        unit.values_rows = {static_cast<uint32_t>(q_->rows.size()), 1};
        q_->rows.push_back(unit.values_vars);
        return AddNode(unit);
      }
      if (open.size() == conjuncts + 1) {
        const NodeIndex only = open.back();
        open.pop_back();
        return only;
      }
      Pattern node;
      node.op = Pattern::Op::kAnd;
      node.children = CloseChildren(&open, conjuncts);
      return AddNode(node);
    };

    while (Peek() != '}') {
      if (Peek() == '\0') return Error("unterminated group pattern");
      RWDT_RETURN_IF_ERROR(ConsumeStep());
      // Peek() skipped the space, and no two keywords of a group share a
      // first letter, so the letter here picks the one keyword to try.
      const char lead = ascii::ToUpper(input_[pos_]);

      if (lead == 'F' && MatchWord("FILTER")) {
        RWDT_ASSIGN_OR_RETURN(const NodeIndex f, ParseConstraint());
        q_->open_filters_.push_back(f);
        Lit('.');
        continue;
      }
      if (lead == 'O' && MatchWord("OPTIONAL")) {
        RWDT_ASSIGN_OR_RETURN(const NodeIndex rhs, ParseGroupGraphPattern());
        const NodeIndex lhs = current();
        open.push_back(AddOperator(Pattern::Op::kOptional, {lhs, rhs}));
        Lit('.');
        continue;
      }
      if (lead == 'M' && MatchWord("MINUS")) {
        RWDT_ASSIGN_OR_RETURN(const NodeIndex rhs, ParseGroupGraphPattern());
        const NodeIndex lhs = current();
        open.push_back(AddOperator(Pattern::Op::kMinus, {lhs, rhs}));
        Lit('.');
        continue;
      }
      if ((lead == 'G' && MatchWord("GRAPH")) ||
          (lead == 'S' && MatchWord("SERVICE"))) {
        const Pattern::Op op =
            lead == 'G' ? Pattern::Op::kGraph : Pattern::Op::kService;
        if (op == Pattern::Op::kService) LitWord("SILENT");
        RWDT_ASSIGN_OR_RETURN(const Term name, ParseTerm());
        RWDT_ASSIGN_OR_RETURN(const NodeIndex inner,
                              ParseGroupGraphPattern());
        Pattern node;
        node.op = op;
        node.graph_name = name;
        node.children = Children({inner});
        open.push_back(AddNode(node));
        Lit('.');
        continue;
      }
      if (lead == 'B' && MatchWord("BIND")) {
        if (!Lit('(')) return Error("expected '(' after BIND");
        RWDT_ASSIGN_OR_RETURN(const Term src, ParseBindSource());
        if (!LitWord("AS")) return Error("expected AS in BIND");
        RWDT_ASSIGN_OR_RETURN(const Term var, ParseTerm());
        if (!Lit(')')) return Error("expected ')' after BIND");
        Pattern node;
        node.op = Pattern::Op::kBind;
        node.bind_source = src;
        node.bind_var = var;
        node.children = Children({current()});
        open.push_back(AddNode(node));
        Lit('.');
        continue;
      }
      if (lead == 'V' && MatchWord("VALUES")) {
        RWDT_ASSIGN_OR_RETURN(const NodeIndex v, ParseValues());
        open.push_back(v);
        Lit('.');
        continue;
      }
      if (Peek() == '{') {
        // Subselect or group-or-union.
        const size_t mark = pos_;
        ++pos_;
        if (LitWord("SELECT")) {
          pos_ = mark;
          RWDT_ASSIGN_OR_RETURN(const NodeIndex sub, ParseSubSelect());
          open.push_back(sub);
          Lit('.');
          continue;
        }
        pos_ = mark;
        RWDT_ASSIGN_OR_RETURN(NodeIndex acc, ParseGroupGraphPattern());
        while (LitWord("UNION")) {
          RWDT_ASSIGN_OR_RETURN(const NodeIndex next,
                                ParseGroupGraphPattern());
          acc = AddOperator(Pattern::Op::kUnion, {acc, next});
        }
        open.push_back(acc);
        Lit('.');
        continue;
      }
      // Triples block entry.
      RWDT_RETURN_IF_ERROR(ParseTriplesSameSubject());
      if (!Lit('.')) {
        // A triple block must be followed by '.' or '}' or a keyword.
        SkipSpace();
      }
    }
    ++pos_;  // '}'

    NodeIndex result = current();
    std::vector<NodeIndex>& open_filters = q_->open_filters_;
    for (size_t i = filters; i < open_filters.size(); ++i) {
      Pattern node;
      node.op = Pattern::Op::kFilter;
      node.children = Children({result});
      node.filter = open_filters[i];
      result = AddNode(node);
    }
    open_filters.resize(filters);
    return result;
  }

  Result<NodeIndex> ParseSubSelect() {
    // Checked before the scan for the closing brace, so refused levels
    // cost no scan.
    const Nest nest(&depth_);
    RWDT_RETURN_IF_ERROR(CheckDepth());
    if (!Lit('{')) return Error("expected '{'");
    // Re-parse a full query from here until the matching '}'.
    // Find the matching close brace.
    size_t depth = 1;
    size_t end = pos_;
    while (end < input_.size() && depth > 0) {
      if (input_[end] == '{') ++depth;
      if (input_[end] == '}') --depth;
      ++end;
    }
    if (depth != 0) return Error("unterminated subquery");
    const std::string_view body = input_.substr(pos_, end - 1 - pos_);
    // The subparser draws from the same step budget, so nesting cannot
    // multiply the resource guard, and fills the same arrays.
    SparqlParser sub(body, dict_, limits_, steps_, depth_, q_);
    QueryHead head;
    RWDT_RETURN_IF_ERROR(sub.Parse(&head));
    pos_ = end;
    Pattern node;
    node.op = Pattern::Op::kSubquery;
    node.subquery = NodeIndex(q_->subqueries.size());
    q_->subqueries.push_back(std::move(head));
    return AddNode(node);
  }

  Result<NodeIndex> ParseValues() {
    std::vector<Term>& terms = q_->terms;
    std::vector<IndexRange>& rows = q_->rows;
    auto since = [&](size_t begin) {
      return IndexRange{static_cast<uint32_t>(begin),
                        static_cast<uint32_t>(terms.size() - begin)};
    };
    Pattern node;
    node.op = Pattern::Op::kValues;
    const size_t vars = terms.size();
    size_t first_row = rows.size();
    if (Lit('(')) {
      while (Peek() != ')') {
        RWDT_ASSIGN_OR_RETURN(const Term v, ParseTerm());
        terms.push_back(v);
      }
      ++pos_;
      node.values_vars = since(vars);
      first_row = rows.size();
      if (!Lit('{')) return Error("expected '{' in VALUES");
      while (Peek() != '}') {
        if (!Lit('(')) return Error("expected '(' in VALUES row");
        const size_t row = terms.size();
        while (Peek() != ')') {
          if (LitWord("UNDEF")) {
            terms.push_back(Term{});
            continue;
          }
          RWDT_ASSIGN_OR_RETURN(const Term v, ParseTerm());
          terms.push_back(v);
        }
        ++pos_;
        rows.push_back(since(row));
      }
      ++pos_;
    } else {
      RWDT_ASSIGN_OR_RETURN(const Term var, ParseTerm());
      terms.push_back(var);
      node.values_vars = since(vars);
      if (!Lit('{')) return Error("expected '{' in VALUES");
      while (Peek() != '}') {
        const size_t row = terms.size();
        if (LitWord("UNDEF")) {
          terms.push_back(Term{});
        } else {
          RWDT_ASSIGN_OR_RETURN(const Term v, ParseTerm());
          terms.push_back(v);
        }
        rows.push_back(since(row));
      }
      ++pos_;
    }
    node.values_rows = {static_cast<uint32_t>(first_row),
                        static_cast<uint32_t>(rows.size() - first_row)};
    return AddNode(node);
  }

  Result<Term> ParseBindSource() {
    // Either a term or a function call whose first term argument we keep.
    SkipSpace();
    const size_t mark = pos_;
    auto t = ParseTerm();
    if (t.ok()) {
      SkipSpace();
      if (pos_ < input_.size() && input_[pos_] == '(') {
        // It was a function name; scan its arguments for a term.
        pos_ = mark;
        return ParseCallFirstArg();
      }
      return t;
    }
    pos_ = mark;
    return ParseCallFirstArg();
  }

  Result<Term> ParseCallFirstArg() {
    // name '(' args ')': return the first variable inside, or a none term.
    while (pos_ < input_.size() && input_[pos_] != '(') ++pos_;
    if (pos_ >= input_.size()) return Error("expected function call");
    size_t depth = 0;
    Term found;
    do {
      if (input_[pos_] == '(') ++depth;
      if (input_[pos_] == ')') --depth;
      if (input_[pos_] == '?' || input_[pos_] == '$') {
        if (found.kind == Term::Kind::kNone) {
          auto v = ParseTerm();
          if (v.ok()) found = v.value();
          continue;
        }
      }
      ++pos_;
    } while (pos_ < input_.size() && depth > 0);
    return found;
  }

  /// Parses "subject predicateObjectList" with ';' and ',' sugar,
  /// pushing one pattern per triple onto the open conjunction.
  Status ParseTriplesSameSubject() {
    RWDT_ASSIGN_OR_RETURN(const Term subject, ParseTerm());
    for (;;) {
      // Verb: variable or property path (a bare IRI is a trivial path).
      RWDT_ASSIGN_OR_RETURN(auto verb, ParseVerb());
      for (;;) {
        RWDT_ASSIGN_OR_RETURN(const Term object, ParseTerm());
        Pattern node;
        if (verb.first.kind != Term::Kind::kNone) {
          node.op = Pattern::Op::kTriple;
          node.triple = {subject, verb.first, object};
        } else {
          node.op = Pattern::Op::kPath;
          node.path = NodeIndex(q_->paths.size());
          q_->paths.push_back({subject, verb.second, object});
        }
        q_->open_nodes_.push_back(AddNode(node));
        if (!Lit(',')) break;
      }
      if (!Lit(';')) break;
      SkipSpace();
      if (Peek() == '.' || Peek() == '}') break;  // dangling ';'
    }
    return Status::Ok();
  }

  /// Returns (term, null) for plain predicates (IRI or variable), or
  /// (none, path) for property paths.
  Result<std::pair<Term, paths::PathPtr>> ParseVerb() {
    SkipSpace();
    const char c = Peek();
    if (c == '?' || c == '$') {
      RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
      return std::make_pair(v, paths::PathPtr());
    }
    // Scan ahead to the end of the verb token sequence to decide whether
    // it is a path: collect until whitespace that precedes a term, being
    // careful with parentheses.
    const size_t start = pos_;
    size_t end = pos_;
    size_t depth = 0;
    bool is_path = (c == '^' || c == '!' || c == '(');
    while (end < input_.size()) {
      const char ch = input_[end];
      if (ch == '(') {
        ++depth;
        is_path = true;
      } else if (ch == ')') {
        if (depth == 0) break;
        --depth;
      } else if (ch == '<') {
        const size_t close = input_.find('>', end);
        if (close == std::string_view::npos) break;
        end = close;
      } else if (depth == 0 && ascii::IsSpace(ch)) {
        break;
      } else if (IsPathOperatorChar(ch)) {
        is_path = true;
      } else if (!IsNameChar(ch) && ch != '^' && ch != '!') {
        break;
      }
      ++end;
    }
    const std::string_view verb_text = input_.substr(start, end - start);
    if (!is_path) {
      RWDT_ASSIGN_OR_RETURN(Term t, ParseTerm());
      return std::make_pair(t, paths::PathPtr());
    }
    RWDT_ASSIGN_OR_RETURN(
        paths::PathPtr path,
        paths::ParsePath(verb_text, dict_, kDefaultMaxDepth - depth_));
    pos_ = end;
    // Trivial one-IRI paths degrade to plain triple patterns.
    if (path->op() == paths::PathOp::kIri) {
      Term t;
      t.kind = Term::Kind::kIri;
      t.id = path->iri();
      return std::make_pair(t, paths::PathPtr());
    }
    return std::make_pair(Term{}, path);
  }

  // --- Filter constraints ---------------------------------------------

  Result<NodeIndex> ParseConstraint() { return ParseOrExpr(); }

  /// The open parts open_filters_[base..] as one node of `kind`, or the
  /// only part itself.
  NodeIndex CloseParts(FilterExpr::Kind kind, size_t base) {
    std::vector<NodeIndex>& open = q_->open_filters_;
    if (open.size() == base + 1) {
      const NodeIndex only = open.back();
      open.pop_back();
      return only;
    }
    FilterExpr node;
    node.kind = kind;
    node.children = CloseChildren(&open, base);
    return AddFilter(node);
  }

  Result<NodeIndex> ParseOrExpr() {
    const size_t base = q_->open_filters_.size();
    RWDT_ASSIGN_OR_RETURN(const NodeIndex first, ParseAndExpr());
    q_->open_filters_.push_back(first);
    while (Lit('|')) {
      if (!Lit('|')) return Error("expected '||'");
      RWDT_ASSIGN_OR_RETURN(const NodeIndex next, ParseAndExpr());
      q_->open_filters_.push_back(next);
    }
    return CloseParts(FilterExpr::Kind::kOr, base);
  }

  Result<NodeIndex> ParseAndExpr() {
    const size_t base = q_->open_filters_.size();
    RWDT_ASSIGN_OR_RETURN(const NodeIndex first, ParseUnaryExpr());
    q_->open_filters_.push_back(first);
    while (Lit('&')) {
      if (!Lit('&')) return Error("expected '&&'");
      RWDT_ASSIGN_OR_RETURN(const NodeIndex next, ParseUnaryExpr());
      q_->open_filters_.push_back(next);
    }
    return CloseParts(FilterExpr::Kind::kAnd, base);
  }

  /// Every unary expression is one level: `!` and `(` recurse here. A
  /// parenthesized expression is its inner expression: the
  /// classifications only need variable sets.
  Result<NodeIndex> ParseUnaryExpr() {
    const Nest nest(&depth_);
    RWDT_RETURN_IF_ERROR(CheckDepth());
    RWDT_RETURN_IF_ERROR(ConsumeStep());
    SkipSpace();
    if (Lit('!')) {
      if (Peek() == '=') return Error("unexpected '!='");
      RWDT_ASSIGN_OR_RETURN(const NodeIndex inner, ParseUnaryExpr());
      FilterExpr node;
      node.kind = FilterExpr::Kind::kNot;
      node.children = Children({inner});
      return AddFilter(node);
    }
    if (LitWord("NOT")) {
      if (!LitWord("EXISTS")) return Error("expected EXISTS after NOT");
      RWDT_ASSIGN_OR_RETURN(const NodeIndex p, ParseGroupGraphPattern());
      FilterExpr node;
      node.kind = FilterExpr::Kind::kNotExistsPattern;
      node.pattern = p;
      return AddFilter(node);
    }
    if (LitWord("EXISTS")) {
      RWDT_ASSIGN_OR_RETURN(const NodeIndex p, ParseGroupGraphPattern());
      FilterExpr node;
      node.kind = FilterExpr::Kind::kExistsPattern;
      node.pattern = p;
      return AddFilter(node);
    }
    if (Peek() == '(') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(const NodeIndex inner, ParseOrExpr());
      if (!Lit(')')) return Error("expected ')'");
      return inner;
    }
    return ParsePrimaryConstraint();
  }

  /// Appends `s` to the query's text buffer, as a range of it.
  IndexRange AddText(std::string_view s) {
    std::string& text = q_->text;
    const IndexRange range{static_cast<uint32_t>(text.size()),
                           static_cast<uint32_t>(s.size())};
    text.append(s);
    return range;
  }

  Result<NodeIndex> ParsePrimaryConstraint() {
    SkipSpace();
    // Function call or term, optionally compared to another.
    Term first_term;
    std::string_view function;
    if (Peek() == '?' || Peek() == '$' || Peek() == '"' || Peek() == '<' ||
        ascii::IsDigit(Peek())) {
      RWDT_ASSIGN_OR_RETURN(first_term, ParseTerm());
    } else {
      // Function name.
      const size_t start = pos_;
      SkipWordChars();
      function = input_.substr(start, pos_ - start);
      if (function.empty()) return Error("expected filter expression");
      if (!Lit('(')) {
        return Error("expected '(' after " + std::string(function));
      }
      // First term argument (if any), then skip to matching ')'.
      size_t depth = 1;
      while (pos_ < input_.size() && depth > 0) {
        const char ch = input_[pos_];
        if (ch == '(') {
          ++depth;
          ++pos_;
        } else if (ch == ')') {
          --depth;
          ++pos_;
        } else if ((ch == '?' || ch == '$') &&
                   first_term.kind == Term::Kind::kNone) {
          RWDT_ASSIGN_OR_RETURN(first_term, ParseTerm());
        } else {
          ++pos_;
        }
      }
    }
    // Comparison operator?
    SkipSpace();
    FilterExpr::CmpOp op = FilterExpr::CmpOp::kEq;
    bool has_cmp = true;
    if (input_.substr(pos_, 2) == "!=") {
      op = FilterExpr::CmpOp::kNe;
      pos_ += 2;
    } else if (input_.substr(pos_, 2) == "<=") {
      op = FilterExpr::CmpOp::kLe;
      pos_ += 2;
    } else if (input_.substr(pos_, 2) == ">=") {
      op = FilterExpr::CmpOp::kGe;
      pos_ += 2;
    } else if (Peek() == '=') {
      op = FilterExpr::CmpOp::kEq;
      ++pos_;
    } else if (Peek() == '<') {
      op = FilterExpr::CmpOp::kLt;
      ++pos_;
    } else if (Peek() == '>') {
      op = FilterExpr::CmpOp::kGt;
      ++pos_;
    } else {
      has_cmp = false;
    }
    FilterExpr node;
    if (!has_cmp) {
      node.kind = FilterExpr::Kind::kUnaryTest;
      node.operand = first_term;
      node.function = AddText(function.empty() ? "test" : function);
      return AddFilter(node);
    }
    // Right-hand side: term or function-wrapped term.
    Term rhs_term;
    SkipSpace();
    if (ascii::IsAlpha(Peek())) {
      // A name followed by '(' is a call: take its first term argument.
      const size_t mark = pos_;
      RWDT_ASSIGN_OR_RETURN(rhs_term, ParseTerm());
      SkipSpace();
      if (pos_ < input_.size() && input_[pos_] == '(') {
        pos_ = mark;
        RWDT_ASSIGN_OR_RETURN(rhs_term, ParseCallFirstArg());
      }
    } else {
      RWDT_ASSIGN_OR_RETURN(rhs_term, ParseTerm());
    }
    if (!function.empty()) {
      // fn(?x) = literal: model as a unary test on ?x when the rhs is a
      // constant; otherwise a comparison between the two variables.
      if (rhs_term.kind != Term::Kind::kVar) {
        node.kind = FilterExpr::Kind::kUnaryTest;
        node.operand = first_term;
        node.function = AddText(function);
        node.argument = AddText(rhs_term.id == kInvalidSymbol
                                    ? std::string_view()
                                    : std::string_view(
                                          dict_->Name(rhs_term.id)));
        return AddFilter(node);
      }
    }
    node.kind = FilterExpr::Kind::kComparison;
    node.cmp = op;
    node.lhs = first_term;
    node.rhs = rhs_term;
    return AddFilter(node);
  }

  // --- Solution modifiers ----------------------------------------------

  Status ParseSolutionModifiers(SolutionModifiers* mods) {
    for (;;) {
      if (LitWord("GROUP")) {
        if (!LitWord("BY")) return Error("expected BY after GROUP");
        for (;;) {
          SkipSpace();
          if (Peek() != '?' && Peek() != '$') break;
          RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
          mods->group_by.push_back(v);
        }
        continue;
      }
      if (LitWord("HAVING")) {
        RWDT_ASSIGN_OR_RETURN(mods->having, ParseConstraint());
        continue;
      }
      if (LitWord("ORDER")) {
        if (!LitWord("BY")) return Error("expected BY after ORDER");
        for (;;) {
          SkipSpace();
          bool desc = false;
          if (LitWord("DESC")) {
            desc = true;
            if (!Lit('(')) return Error("expected '(' after DESC");
          } else if (LitWord("ASC")) {
            if (!Lit('(')) return Error("expected '(' after ASC");
          } else if (Peek() == '?' || Peek() == '$') {
            RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
            mods->order_by.push_back(v);
            mods->order_desc.push_back(false);
            continue;
          } else {
            break;
          }
          RWDT_ASSIGN_OR_RETURN(Term v, ParseTerm());
          if (!Lit(')')) return Error("expected ')'");
          mods->order_by.push_back(v);
          mods->order_desc.push_back(desc);
        }
        continue;
      }
      if (LitWord("LIMIT")) {
        RWDT_ASSIGN_OR_RETURN(mods->limit, ParseNumber());
        continue;
      }
      if (LitWord("OFFSET")) {
        RWDT_ASSIGN_OR_RETURN(mods->offset, ParseNumber());
        continue;
      }
      return Status::Ok();
    }
  }

  Result<uint64_t> ParseNumber() {
    SkipSpace();
    uint64_t n = 0;
    bool any = false;
    while (pos_ < input_.size() && ascii::IsDigit(input_[pos_])) {
      n = n * 10 + static_cast<uint64_t>(input_[pos_] - '0');
      ++pos_;
      any = true;
    }
    if (!any) return Error("expected number");
    return n;
  }

  /// Advances over [A-Za-z0-9_], the characters of a variable name, a
  /// blank node label and a filter function name.
  void SkipWordChars() {
    while (pos_ < input_.size() &&
           (ascii::IsAlnum(input_[pos_]) || input_[pos_] == '_')) {
      ++pos_;
    }
  }

  std::string_view input_;
  Interner* dict_;
  ParseLimits limits_;
  size_t* steps_;  // shared budget, owned by the root ParseSparql call
  size_t depth_;   // open nesting levels, counting enclosing queries
  Query* q_;       // the arrays every node goes into
  size_t pos_ = 0;
  size_t blank_counter_ = 0;
};

}  // namespace internal

Status ParseLimits::Validate() const {
  if (max_query_bytes == 0) {
    return Status::InvalidArgument("ParseLimits: max_query_bytes must be > 0");
  }
  if (max_parser_steps == 0) {
    return Status::InvalidArgument(
        "ParseLimits: max_parser_steps must be > 0");
  }
  return Status::Ok();
}

Result<Query> ParseSparql(std::string_view input, Interner* dict) {
  return ParseSparql(input, dict, ParseLimits{});
}

Result<Query> ParseSparql(std::string_view input, Interner* dict,
                          const ParseLimits& limits) {
  Query query;
  RWDT_RETURN_IF_ERROR(ParseSparql(input, dict, limits, &query));
  return query;
}

Status ParseSparql(std::string_view input, Interner* dict,
                   const ParseLimits& limits, Query* out) {
  return internal::SparqlParser::ParseInto(input, dict, limits, out);
}

}  // namespace rwdt::sparql
