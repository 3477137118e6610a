#include "sparql/algebra.h"

namespace rwdt::sparql {
namespace {

/// Calls `add(id)` for every variable the node itself names, repeats
/// included: its terms and its VALUES header, not its children, filter
/// expression or subquery.
template <class Add>
void VisitTermVars(const Query& q, const Pattern& p, Add& add) {
  auto term = [&](const Term& t) {
    if (t.ActsAsVar()) add(t.id);
  };
  switch (p.op) {
    case Pattern::Op::kTriple:
      term(p.triple.s);
      term(p.triple.p);
      term(p.triple.o);
      break;
    case Pattern::Op::kPath:
      term(q.path(p).s);
      term(q.path(p).o);
      break;
    case Pattern::Op::kBind:
      term(p.bind_var);
      term(p.bind_source);
      break;
    case Pattern::Op::kValues:
      for (const Term& v : q.values_vars(p)) term(v);
      break;
    case Pattern::Op::kGraph:
    case Pattern::Op::kService:
      term(p.graph_name);
      break;
    case Pattern::Op::kSubquery:
      for (const SelectItem& item : q.subquery(p).projection) term(item.var);
      break;
    default:
      break;
  }
}

/// One definition of which variables a pattern or expression mentions,
/// for every collector below: `add` is called per mention, repeats
/// included, in no particular order. Starts from pattern node `pattern`
/// (with its children when `children` is set) and/or filter node
/// `filter`, and follows filter expressions, EXISTS bodies and the
/// patterns of SELECT * subqueries, over an explicit stack.
template <class Add>
void VisitVars(const Query& q, NodeIndex pattern, bool children,
               NodeIndex filter, Add& add) {
  struct Item {
    NodeIndex index;
    bool is_filter;
    bool children;
  };
  internal::WalkStack<Item> stack;
  if (pattern != nullptr) stack.push({pattern, false, children});
  if (filter != nullptr) stack.push({filter, true, true});
  while (!stack.empty()) {
    const Item item = stack.pop();
    if (item.is_filter) {
      const FilterExpr& f = q.filter(item.index);
      if (f.operand.ActsAsVar()) add(f.operand.id);
      if (f.lhs.ActsAsVar()) add(f.lhs.id);
      if (f.rhs.ActsAsVar()) add(f.rhs.id);
      for (const NodeIndex c : q.children(f)) stack.push({c, true, true});
      if (f.pattern != nullptr) stack.push({f.pattern, false, true});
      continue;
    }
    const Pattern& p = q.node(item.index);
    VisitTermVars(q, p, add);
    if (p.op == Pattern::Op::kSubquery) {
      const QueryHead& sub = q.subquery(p);
      if (sub.select_star && sub.pattern != nullptr) {
        stack.push({sub.pattern, false, true});
      }
    }
    if (p.op == Pattern::Op::kFilter && p.filter != nullptr) {
      stack.push({p.filter, true, true});
    }
    if (item.children) {
      for (const NodeIndex c : q.children(p)) stack.push({c, false, true});
    }
  }
}

}  // namespace

void QueryHead::Clear() {
  form = QueryForm::kSelect;
  select_star = false;
  projection.clear();
  pattern = NodeIndex();
  construct_template.clear();
  describe_terms.clear();
  modifiers.distinct = false;
  modifiers.reduced = false;
  modifiers.limit.reset();
  modifiers.offset.reset();
  modifiers.order_by.clear();
  modifiers.order_desc.clear();
  modifiers.group_by.clear();
  modifiers.having = NodeIndex();
}

void Query::Clear() {
  QueryHead::Clear();
  nodes.clear();
  filters.clear();
  links.clear();
  terms.clear();
  rows.clear();
  paths.clear();
  subqueries.clear();
  text.clear();
  open_nodes_.clear();
  open_filters_.clear();
}

void Query::CollectVars(NodeIndex root, std::set<SymbolId>* out) const {
  auto add = [out](SymbolId v) { out->insert(v); };
  VisitVars(*this, root, /*children=*/true, NodeIndex(), add);
}

void Query::AppendOwnVars(const Pattern& p,
                          std::vector<SymbolId>* out) const {
  auto add = [out](SymbolId v) { out->push_back(v); };
  VisitVars(*this, NodeIndex(&p - nodes.data()), /*children=*/false,
            NodeIndex(), add);
}

void Query::AppendVars(const FilterExpr& f,
                       std::vector<SymbolId>* out) const {
  auto add = [out](SymbolId v) { out->push_back(v); };
  VisitVars(*this, NodeIndex(), false, NodeIndex(&f - filters.data()), add);
}

bool Query::IsSafe(const FilterExpr& f) const {
  internal::WalkStack<const FilterExpr*> stack;
  stack.push(&f);
  while (!stack.empty()) {
    const FilterExpr& e = *stack.pop();
    switch (e.kind) {
      case FilterExpr::Kind::kUnaryTest:
        break;
      case FilterExpr::Kind::kComparison:
        if (e.cmp != FilterExpr::CmpOp::kEq) return false;
        break;
      case FilterExpr::Kind::kAnd:
      case FilterExpr::Kind::kOr:
        for (const NodeIndex c : children(e)) stack.push(&filter(c));
        break;
      default:
        return false;
    }
  }
  return true;
}

bool Query::IsSimple(const FilterExpr& f) const {
  if (f.kind == FilterExpr::Kind::kExistsPattern ||
      f.kind == FilterExpr::Kind::kNotExistsPattern) {
    return false;
  }
  // At most two distinct variables.
  SymbolId seen[2];
  size_t distinct = 0;
  bool more = false;
  auto add = [&](SymbolId v) {
    for (size_t i = 0; i < distinct; ++i) {
      if (seen[i] == v) return;
    }
    if (distinct < 2) {
      seen[distinct++] = v;
    } else {
      more = true;
    }
  };
  VisitVars(*this, NodeIndex(), false, NodeIndex(&f - filters.data()), add);
  return !more;
}

size_t Query::NumTriplePatterns() const {
  size_t n = 0;
  ForEachNode(*this, [&n](const Pattern& p) {
    if (p.op == Pattern::Op::kTriple || p.op == Pattern::Op::kPath) ++n;
  });
  return n;
}

}  // namespace rwdt::sparql
