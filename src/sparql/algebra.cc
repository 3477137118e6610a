#include "sparql/algebra.h"

namespace rwdt::sparql {
namespace {

// One definition of which variables a node or expression mentions, for
// every collector below. `add` is called per mention, repeats included.

template <class Add>
void VisitPatternVars(const Pattern& p, Add& add);

template <class Add>
void VisitFilterVars(const FilterExpr& f, Add& add) {
  if (f.operand.ActsAsVar()) add(f.operand.id);
  if (f.lhs.ActsAsVar()) add(f.lhs.id);
  if (f.rhs.ActsAsVar()) add(f.rhs.id);
  for (const auto& c : f.children) VisitFilterVars(*c, add);
  if (f.pattern != nullptr) VisitPatternVars(*f.pattern, add);
}

template <class Add>
void VisitOwnVars(const Pattern& p, Add& add) {
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
      term(p.path.s);
      term(p.path.o);
      break;
    case Pattern::Op::kBind:
      term(p.bind_var);
      term(p.bind_source);
      break;
    case Pattern::Op::kValues:
      for (const Term& v : p.values_vars) term(v);
      break;
    case Pattern::Op::kGraph:
    case Pattern::Op::kService:
      term(p.graph_name);
      break;
    case Pattern::Op::kSubquery:
      if (p.subquery != nullptr) {
        for (const auto& item : p.subquery->projection) term(item.var);
        if (p.subquery->select_star && p.subquery->pattern != nullptr) {
          VisitPatternVars(*p.subquery->pattern, add);
        }
      }
      break;
    default:
      break;
  }
  if (p.op == Pattern::Op::kFilter && p.filter != nullptr) {
    VisitFilterVars(*p.filter, add);
  }
}

template <class Add>
void VisitPatternVars(const Pattern& p, Add& add) {
  VisitOwnVars(p, add);
  for (const auto& c : p.children) VisitPatternVars(*c, add);
}

}  // namespace

namespace internal {

void WalkNodes(const Pattern& p, void (*visit)(void*, const Pattern&),
               void* visitor) {
  visit(visitor, p);
  for (const auto& c : p.children) WalkNodes(*c, visit, visitor);
  if (p.op == Pattern::Op::kSubquery && p.subquery != nullptr &&
      p.subquery->pattern != nullptr) {
    WalkNodes(*p.subquery->pattern, visit, visitor);
  }
}

}  // namespace internal

void FilterExpr::AppendVars(std::vector<SymbolId>* out) const {
  auto add = [out](SymbolId v) { out->push_back(v); };
  VisitFilterVars(*this, add);
}

bool FilterExpr::IsSafe() const {
  switch (kind) {
    case Kind::kUnaryTest:
      return true;
    case Kind::kComparison:
      return cmp == CmpOp::kEq;
    case Kind::kAnd:
    case Kind::kOr: {
      for (const auto& c : children) {
        if (!c->IsSafe()) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool FilterExpr::IsSimple() const {
  if (kind == Kind::kExistsPattern || kind == Kind::kNotExistsPattern) {
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
  VisitFilterVars(*this, add);
  return !more;
}

void Pattern::CollectVars(std::set<SymbolId>* out) const {
  auto add = [out](SymbolId v) { out->insert(v); };
  VisitPatternVars(*this, add);
}

void Pattern::AppendOwnVars(std::vector<SymbolId>* out) const {
  auto add = [out](SymbolId v) { out->push_back(v); };
  VisitOwnVars(*this, add);
}

size_t Pattern::NumTriplePatterns() const {
  size_t n = 0;
  ForEachNode(*this, [&n](const Pattern& p) {
    if (p.op == Op::kTriple || p.op == Op::kPath) ++n;
  });
  return n;
}

}  // namespace rwdt::sparql
