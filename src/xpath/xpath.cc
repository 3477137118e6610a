#include "xpath/xpath.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <functional>

#include "common/max_depth.h"

namespace rwdt::xpath {

std::string AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kSelf:
      return "self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kFollowing:
      return "following";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kAttribute:
      return "attribute";
  }
  return "?";
}

namespace {

size_t PredicateSize(const Predicate& p);

size_t PathSize(const Path& p) {
  size_t n = 0;
  for (const auto& step : p.steps) {
    n += 1;
    for (const auto& pred : step.predicates) n += PredicateSize(pred);
  }
  return n;
}

size_t PredicateSize(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kPath:
      return 1 + PathSize(p.path);
    default: {
      size_t n = 1;
      for (const auto& c : p.children) n += PredicateSize(c);
      return n;
    }
  }
}

void PredicateAxes(const Predicate& p, std::set<Axis>* out);

void PathAxes(const Path& p, std::set<Axis>* out) {
  for (const auto& step : p.steps) {
    out->insert(step.axis);
    for (const auto& pred : step.predicates) PredicateAxes(pred, out);
  }
}

void PredicateAxes(const Predicate& p, std::set<Axis>* out) {
  if (p.kind == Predicate::Kind::kPath) {
    PathAxes(p.path, out);
  } else {
    for (const auto& c : p.children) PredicateAxes(c, out);
  }
}

bool PredicateHasKind(const Predicate& p, Predicate::Kind kind) {
  if (p.kind == kind) return true;
  if (p.kind == Predicate::Kind::kPath) {
    for (const auto& step : p.path.steps) {
      for (const auto& pred : step.predicates) {
        if (PredicateHasKind(pred, kind)) return true;
      }
    }
    return false;
  }
  for (const auto& c : p.children) {
    if (PredicateHasKind(c, kind)) return true;
  }
  return false;
}

bool QueryHasKind(const Query& q, Predicate::Kind kind) {
  for (const auto& path : q.branches) {
    for (const auto& step : path.steps) {
      for (const auto& pred : step.predicates) {
        if (PredicateHasKind(pred, kind)) return true;
      }
    }
  }
  return false;
}

}  // namespace

size_t Query::Size() const {
  size_t n = 0;
  for (const auto& b : branches) n += PathSize(b);
  return n;
}

std::set<Axis> Query::AxesUsed() const {
  std::set<Axis> out;
  for (const auto& b : branches) PathAxes(b, &out);
  return out;
}

namespace {

class Parser {
 public:
  Parser(std::string_view input, Interner* dict)
      : input_(input), dict_(dict) {}

  Result<Query> Parse() {
    Query q;
    RWDT_ASSIGN_OR_RETURN(Path first, ParsePath());
    q.branches.push_back(std::move(first));
    while (Peek() == '|') {
      ++pos_;
      RWDT_ASSIGN_OR_RETURN(Path next, ParsePath());
      q.branches.push_back(std::move(next));
    }
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return q;
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
  bool Lit(std::string_view s) {
    SkipSpace();
    if (input_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  Result<Path> ParsePath() {
    Path path;
    Axis pending = Axis::kChild;
    if (Lit("//")) {
      path.absolute = true;
      pending = Axis::kDescendantOrSelf;
    } else if (Lit("/")) {
      path.absolute = true;
    }
    for (;;) {
      RWDT_ASSIGN_OR_RETURN(Step step, ParseStep(pending));
      path.steps.push_back(std::move(step));
      if (Lit("//")) {
        pending = Axis::kDescendantOrSelf;
      } else if (Lit("/")) {
        pending = Axis::kChild;
      } else {
        break;
      }
    }
    return path;
  }

  Result<Step> ParseStep(Axis default_axis) {
    Step step;
    step.axis = default_axis;
    // '//' before a named test is modeled as a descendant step directly
    // (descendant::t == descendant-or-self::*/child::t).
    if (step.axis == Axis::kDescendantOrSelf) step.axis = Axis::kDescendant;
    SkipSpace();
    if (Lit("..")) {
      step.axis = Axis::kParent;
      step.wildcard = true;
      return FinishStep(std::move(step));
    }
    if (Peek() == '.') {
      ++pos_;
      step.axis = Axis::kSelf;
      step.wildcard = true;
      return FinishStep(std::move(step));
    }
    if (Peek() == '@') {
      ++pos_;
      step.axis = Axis::kAttribute;
    } else {
      // Explicit axis?
      const size_t mark = pos_;
      std::string word = ParseNameToken();
      if (!word.empty() && Lit("::")) {
        auto axis = AxisFromName(word);
        if (!axis.has_value()) {
          return Status::ParseError("unknown axis '" + word + "'");
        }
        step.axis = *axis;
      } else {
        pos_ = mark;  // plain node test
      }
    }
    if (Peek() == '*') {
      ++pos_;
      step.wildcard = true;
      return FinishStep(std::move(step));
    }
    const std::string name = ParseNameToken();
    if (name.empty()) {
      return Status::ParseError("expected node test at offset " +
                                std::to_string(pos_));
    }
    step.label = dict_->Intern(name);
    return FinishStep(std::move(step));
  }

  Result<Step> FinishStep(Step step) {
    while (Peek() == '[') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(Predicate pred, ParseOr());
      --depth_;
      if (Peek() != ']') return Status::ParseError("expected ']'");
      ++pos_;
      step.predicates.push_back(std::move(pred));
    }
    return step;
  }

  Result<Predicate> ParseOr() {
    RWDT_ASSIGN_OR_RETURN(Predicate first, ParseAnd());
    std::vector<Predicate> parts = {std::move(first)};
    while (LitWord("or")) {
      RWDT_ASSIGN_OR_RETURN(Predicate next, ParseAnd());
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return parts[0];
    Predicate p;
    p.kind = Predicate::Kind::kOr;
    p.children = std::move(parts);
    return p;
  }

  Result<Predicate> ParseAnd() {
    RWDT_ASSIGN_OR_RETURN(Predicate first, ParseUnary());
    std::vector<Predicate> parts = {std::move(first)};
    while (LitWord("and")) {
      RWDT_ASSIGN_OR_RETURN(Predicate next, ParseUnary());
      parts.push_back(std::move(next));
    }
    if (parts.size() == 1) return parts[0];
    Predicate p;
    p.kind = Predicate::Kind::kAnd;
    p.children = std::move(parts);
    return p;
  }

  Result<Predicate> ParseUnary() {
    if (LitWord("not")) {
      if (Peek() != '(') return Status::ParseError("expected '(' after not");
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(Predicate inner, ParseOr());
      --depth_;
      if (Peek() != ')') return Status::ParseError("expected ')'");
      ++pos_;
      Predicate p;
      p.kind = Predicate::Kind::kNot;
      p.children.push_back(std::move(inner));
      return p;
    }
    if (Peek() == '(') {
      ++pos_;
      RWDT_RETURN_IF_ERROR(CheckDepth(++depth_));
      RWDT_ASSIGN_OR_RETURN(Predicate inner, ParseOr());
      --depth_;
      if (Peek() != ')') return Status::ParseError("expected ')'");
      ++pos_;
      return inner;
    }
    RWDT_ASSIGN_OR_RETURN(Path path, ParsePath());
    Predicate p;
    p.kind = Predicate::Kind::kPath;
    p.path = std::move(path);
    return p;
  }

  /// Matches a keyword not followed by a name character (so "order" is a
  /// node test, not "or" + "der").
  bool LitWord(std::string_view word) {
    SkipSpace();
    if (input_.substr(pos_, word.size()) != word) return false;
    const size_t after = pos_ + word.size();
    if (after < input_.size()) {
      const char c = input_[after];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-') {
        return false;
      }
    }
    pos_ = after;
    return true;
  }

  std::string ParseNameToken() {
    SkipSpace();
    std::string name;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == ':') {
        // Stop before '::' axis separator.
        if (c == ':' && pos_ + 1 < input_.size() &&
            input_[pos_ + 1] == ':') {
          break;
        }
        name += c;
        ++pos_;
      } else {
        break;
      }
    }
    return name;
  }

  static std::optional<Axis> AxisFromName(const std::string& name) {
    static const std::pair<const char*, Axis> kAxes[] = {
        {"child", Axis::kChild},
        {"descendant", Axis::kDescendant},
        {"descendant-or-self", Axis::kDescendantOrSelf},
        {"parent", Axis::kParent},
        {"ancestor", Axis::kAncestor},
        {"ancestor-or-self", Axis::kAncestorOrSelf},
        {"self", Axis::kSelf},
        {"following-sibling", Axis::kFollowingSibling},
        {"preceding-sibling", Axis::kPrecedingSibling},
        {"following", Axis::kFollowing},
        {"preceding", Axis::kPreceding},
        {"attribute", Axis::kAttribute},
    };
    for (const auto& [n, a] : kAxes) {
      if (name == n) return a;
    }
    return std::nullopt;
  }

  /// kResourceExhausted once `levels` exceeds the depth bound, the one
  /// the SPARQL and property-path parsers apply.
  Status CheckDepth(size_t levels) const {
    if (levels <= kDefaultMaxDepth) return Status::Ok();
    return Status::ResourceExhausted(
        "query nests deeper than " +
        std::to_string(kDefaultMaxDepth) + " levels");
  }

  std::string_view input_;
  Interner* dict_;
  size_t pos_ = 0;
  /// Open predicates, not(...) and parenthesized predicates. An error
  /// ends the parse, so only the success paths close a level.
  size_t depth_ = 0;
};

}  // namespace

Result<Query> ParseXPath(std::string_view input, Interner* dict) {
  return Parser(input, dict).Parse();
}

bool IsPositiveXPath(const Query& q) {
  return !QueryHasKind(q, Predicate::Kind::kNot);
}

bool IsCoreXPath1(const Query& q) {
  // Navigational core: no attribute steps (data access); all other axes
  // and boolean qualifiers are part of Core XPath 1.0.
  return q.AxesUsed().count(Axis::kAttribute) == 0;
}

bool IsDownwardXPath(const Query& q) {
  for (Axis a : q.AxesUsed()) {
    if (a != Axis::kChild && a != Axis::kDescendant &&
        a != Axis::kDescendantOrSelf && a != Axis::kSelf) {
      return false;
    }
  }
  return true;
}

namespace {

bool PredicateIsConjunctivePath(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kPath:
      for (const auto& step : p.path.steps) {
        if (p.path.absolute) return false;  // twigs branch downward only
        for (const auto& pred : step.predicates) {
          if (!PredicateIsConjunctivePath(pred)) return false;
        }
      }
      return true;
    case Predicate::Kind::kAnd:
      for (const auto& c : p.children) {
        if (!PredicateIsConjunctivePath(c)) return false;
      }
      return true;
    default:
      return false;
  }
}

}  // namespace

bool IsTreePattern(const Query& q) {
  if (q.branches.size() != 1) return false;
  if (!IsDownwardXPath(q)) return false;
  for (const auto& step : q.branches[0].steps) {
    for (const auto& pred : step.predicates) {
      if (!PredicateIsConjunctivePath(pred)) return false;
    }
  }
  return true;
}

namespace {

/// Node-set evaluator.
class Evaluator {
 public:
  Evaluator(const tree::Tree& t, const Interner& dict,
            const std::vector<std::pair<tree::NodeId, std::string>>& attrs)
      : tree_(t), dict_(dict), attrs_(attrs) {
    // Document order index = pre-order position.
    const auto order = t.PreOrder();
    doc_order_.resize(t.NumNodes());
    for (size_t i = 0; i < order.size(); ++i) doc_order_[order[i]] = i;
  }

  std::vector<tree::NodeId> EvalQuery(const Query& q) {
    std::set<tree::NodeId> out;
    for (const auto& path : q.branches) {
      for (tree::NodeId n : EvalPath(path, kVirtualRoot)) out.insert(n);
    }
    std::vector<tree::NodeId> sorted(out.begin(), out.end());
    std::sort(sorted.begin(), sorted.end(), [&](tree::NodeId a,
                                                tree::NodeId b) {
      return doc_order_[a] < doc_order_[b];
    });
    return sorted;
  }

 private:
  /// Sentinel context for the virtual document root (parent of the tree
  /// root), used for absolute paths.
  static constexpr tree::NodeId kVirtualRoot = tree::kNoNode;

  std::vector<tree::NodeId> EvalPath(const Path& path,
                                     tree::NodeId context) {
    std::set<tree::NodeId> current;
    if (path.absolute) {
      current.insert(kVirtualRoot);
    } else {
      current.insert(context);
    }
    for (const auto& step : path.steps) {
      std::set<tree::NodeId> next;
      for (tree::NodeId n : current) {
        for (tree::NodeId m : ApplyAxis(step, n)) {
          if (!MatchesTest(step, m)) continue;
          bool ok = true;
          for (const auto& pred : step.predicates) {
            if (!EvalPredicate(pred, m)) {
              ok = false;
              break;
            }
          }
          if (ok) next.insert(m);
        }
      }
      current = std::move(next);
      if (current.empty()) break;
    }
    return {current.begin(), current.end()};
  }

  bool EvalPredicate(const Predicate& p, tree::NodeId context) {
    switch (p.kind) {
      case Predicate::Kind::kPath:
        return !EvalPath(p.path, context).empty();
      case Predicate::Kind::kAnd:
        for (const auto& c : p.children) {
          if (!EvalPredicate(c, context)) return false;
        }
        return true;
      case Predicate::Kind::kOr:
        for (const auto& c : p.children) {
          if (EvalPredicate(c, context)) return true;
        }
        return false;
      case Predicate::Kind::kNot:
        return !EvalPredicate(p.children[0], context);
    }
    return false;
  }

  bool MatchesTest(const Step& step, tree::NodeId n) {
    if (step.axis == Axis::kAttribute) return true;  // checked in axis
    if (step.wildcard) return true;
    return tree_.node(n).label == step.label;
  }

  std::vector<tree::NodeId> ApplyAxis(const Step& step, tree::NodeId n) {
    std::vector<tree::NodeId> out;
    switch (step.axis) {
      case Axis::kChild:
        if (n == kVirtualRoot) {
          if (!tree_.empty()) out.push_back(tree_.root());
        } else {
          out = tree_.node(n).children;
        }
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        if (step.axis == Axis::kDescendantOrSelf && n != kVirtualRoot) {
          out.push_back(n);
        }
        std::vector<tree::NodeId> stack;
        if (n == kVirtualRoot) {
          if (!tree_.empty()) stack.push_back(tree_.root());
          if (step.axis == Axis::kDescendantOrSelf) {
            // virtual root itself is not a real node
          }
          // For the virtual root, descendants == all nodes incl. root.
          if (!tree_.empty()) out.push_back(tree_.root());
        } else {
          stack = tree_.node(n).children;
        }
        while (!stack.empty()) {
          const tree::NodeId m = stack.back();
          stack.pop_back();
          if (m != n && (n != kVirtualRoot || m != tree_.root())) {
            out.push_back(m);
          }
          for (tree::NodeId c : tree_.node(m).children) stack.push_back(c);
        }
        break;
      }
      case Axis::kParent:
        if (n != kVirtualRoot && tree_.node(n).parent != tree::kNoNode) {
          out.push_back(tree_.node(n).parent);
        }
        break;
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        if (n == kVirtualRoot) break;
        if (step.axis == Axis::kAncestorOrSelf) out.push_back(n);
        tree::NodeId cur = tree_.node(n).parent;
        while (cur != tree::kNoNode) {
          out.push_back(cur);
          cur = tree_.node(cur).parent;
        }
        break;
      }
      case Axis::kSelf:
        if (n != kVirtualRoot) out.push_back(n);
        break;
      case Axis::kFollowingSibling:
      case Axis::kPrecedingSibling: {
        if (n == kVirtualRoot) break;
        const tree::NodeId parent = tree_.node(n).parent;
        if (parent == tree::kNoNode) break;
        const auto& sibs = tree_.node(parent).children;
        const auto it = std::find(sibs.begin(), sibs.end(), n);
        if (step.axis == Axis::kFollowingSibling) {
          out.assign(it + 1, sibs.end());
        } else {
          out.assign(sibs.begin(), it);
        }
        break;
      }
      case Axis::kFollowing:
      case Axis::kPreceding: {
        if (n == kVirtualRoot) break;
        // Document-order comparison, excluding ancestors/descendants.
        for (tree::NodeId m = 0; m < tree_.NumNodes(); ++m) {
          if (m == n) continue;
          const bool after = doc_order_[m] > doc_order_[n];
          if (step.axis == Axis::kFollowing && after &&
              !IsAncestorOf(n, m)) {
            out.push_back(m);
          }
          if (step.axis == Axis::kPreceding && !after &&
              !IsAncestorOf(m, n)) {
            out.push_back(m);
          }
        }
        break;
      }
      case Axis::kAttribute: {
        if (n == kVirtualRoot) break;
        // Attribute steps keep the owning element when a matching
        // attribute exists (simplification: attributes are not nodes).
        for (const auto& [node, name] : attrs_) {
          if (node != n) continue;
          if (step.wildcard || name == dict_.Name(step.label)) {
            out.push_back(n);
            break;
          }
        }
        break;
      }
    }
    return out;
  }

  bool IsAncestorOf(tree::NodeId a, tree::NodeId b) {
    tree::NodeId cur = tree_.node(b).parent;
    while (cur != tree::kNoNode) {
      if (cur == a) return true;
      cur = tree_.node(cur).parent;
    }
    return false;
  }

  const tree::Tree& tree_;
  const Interner& dict_;
  const std::vector<std::pair<tree::NodeId, std::string>>& attrs_;
  std::vector<size_t> doc_order_;
};

}  // namespace

std::vector<tree::NodeId> Evaluate(
    const Query& q, const tree::Tree& t, const Interner& dict,
    const std::vector<std::pair<tree::NodeId, std::string>>& attributes) {
  Evaluator eval(t, dict, attributes);
  return eval.EvalQuery(q);
}

}  // namespace rwdt::xpath
