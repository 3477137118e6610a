#include "sparql/eval.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

namespace rwdt::sparql {

bool Compatible(const Binding& a, const Binding& b) {
  // One merge walk over the two variable-sorted pair arrays.
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (i->first < j->first) {
      ++i;
    } else if (j->first < i->first) {
      ++j;
    } else {
      if (i->second != j->second) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

// One merge walk, appending in ascending variable order.
Binding Merge(const Binding& a, const Binding& b) {
  Binding out;
  // At most one heap block: a union of two inline mappings fits the
  // first doubling, and once either input is bigger the union cannot
  // stay inline, so reserving both sizes costs nothing extra.
  if (std::max(a.size(), b.size()) > Binding::kInlineCapacity) {
    out.reserve(a.size() + b.size());
  }
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (j->first < i->first) {
      out.emplace_hint(out.end(), j->first, j->second);
      ++j;
    } else {
      if (j->first == i->first) ++j;
      out.emplace_hint(out.end(), i->first, i->second);
      ++i;
    }
  }
  for (; i != a.end(); ++i) out.emplace_hint(out.end(), i->first, i->second);
  for (; j != b.end(); ++j) out.emplace_hint(out.end(), j->first, j->second);
  return out;
}

Evaluator::Evaluator(const graph::TripleStore& store, Interner* dict,
                     const EvalLimits& limits)
    : store_(store), dict_(dict), limits_(limits) {}

Status Evaluator::Charge(uint64_t n) const {
  steps_ += n;
  if (steps_ > limits_.max_steps) {
    return Status::ResourceExhausted(
        "evaluation exceeded " + std::to_string(limits_.max_steps) +
        " steps");
  }
  return Status::Ok();
}

namespace {

/// True when the string names a literal (interned with quotes).
bool IsLiteralName(std::string_view name) {
  return !name.empty() && name[0] == '"';
}

/// Numeric value of a literal, if it parses.
bool NumericValue(std::string_view name, double* out) {
  std::string body(name);
  if (IsLiteralName(body) && body.size() >= 2) {
    body = body.substr(1, body.size() - 2);
  }
  if (body.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(body.c_str(), &end);
  return end == body.c_str() + body.size();
}

}  // namespace

Result<std::vector<Binding>> Evaluator::EvalTriple(
    const TriplePattern& t) const {
  const SymbolId s = t.s.ActsAsVar() ? kInvalidSymbol : t.s.id;
  const SymbolId p = t.p.ActsAsVar() ? kInvalidSymbol : t.p.id;
  const SymbolId o = t.o.ActsAsVar() ? kInvalidSymbol : t.o.id;
  std::vector<Binding> out;
  const auto matches = store_.Match(s, p, o);
  RWDT_RETURN_IF_ERROR(Charge(matches.size()));
  for (const auto& triple : matches) {
    Binding mu;
    bool consistent = true;
    auto bind = [&](const Term& term, SymbolId value) {
      if (!term.ActsAsVar()) return;
      auto [it, inserted] = mu.emplace(term.id, value);
      if (!inserted && it->second != value) consistent = false;
    };
    bind(t.s, triple.s);
    bind(t.p, triple.p);
    bind(t.o, triple.o);
    if (consistent) out.push_back(std::move(mu));
  }
  return out;
}

Result<std::vector<std::pair<SymbolId, SymbolId>>> Evaluator::EvalPathPairs(
    const paths::Path& path, SymbolId s, SymbolId o) const {
  RWDT_ASSIGN_OR_RETURN(const paths::PathNfa nfa, paths::CompilePathNfa(path));
  return EvalPathPairs(nfa, s, o);
}

Result<std::vector<std::pair<SymbolId, SymbolId>>> Evaluator::EvalPathPairs(
    const paths::PathNfa& nfa, SymbolId s, SymbolId o) const {
  return paths::EvalPathNfa(store_, nfa, s, o, &steps_, limits_.max_steps);
}

Result<std::vector<Binding>> Evaluator::EvalPath(const PathTriple& p) const {
  const SymbolId s = p.s.ActsAsVar() ? kInvalidSymbol : p.s.id;
  const SymbolId o = p.o.ActsAsVar() ? kInvalidSymbol : p.o.id;
  std::vector<Binding> out;
  RWDT_ASSIGN_OR_RETURN(const auto pairs, EvalPathPairs(*p.path, s, o));
  for (const auto& [x, y] : pairs) {
    Binding mu;
    bool consistent = true;
    if (p.s.ActsAsVar()) mu.insert_or_assign(p.s.id, x);
    if (p.o.ActsAsVar()) {
      auto [it, inserted] = mu.emplace(p.o.id, y);
      if (!inserted && it->second != y) consistent = false;
    }
    if (consistent) out.push_back(std::move(mu));
  }
  return out;
}

Result<std::vector<Binding>> Evaluator::Join(
    const std::vector<Binding>& a, const std::vector<Binding>& b) const {
  std::vector<Binding> out;
  for (const auto& mu1 : a) {
    RWDT_RETURN_IF_ERROR(Charge(b.size()));
    for (const auto& mu2 : b) {
      if (Compatible(mu1, mu2)) out.push_back(Merge(mu1, mu2));
    }
  }
  return out;
}

Result<std::vector<Binding>> Evaluator::LeftJoin(
    const std::vector<Binding>& a, const std::vector<Binding>& b) const {
  std::vector<Binding> out;
  for (const auto& mu1 : a) {
    RWDT_RETURN_IF_ERROR(Charge(b.size()));
    bool any = false;
    for (const auto& mu2 : b) {
      if (Compatible(mu1, mu2)) {
        out.push_back(Merge(mu1, mu2));
        any = true;
      }
    }
    if (!any) out.push_back(mu1);
  }
  return out;
}

Result<std::vector<Binding>> Evaluator::MinusOp(
    const std::vector<Binding>& a, const std::vector<Binding>& b) const {
  std::vector<Binding> out;
  for (const auto& mu1 : a) {
    RWDT_RETURN_IF_ERROR(Charge(b.size()));
    bool excluded = false;
    for (const auto& mu2 : b) {
      if (!Compatible(mu1, mu2)) continue;
      // MINUS requires a shared domain variable.
      for (const auto& [var, val] : mu2) {
        (void)val;
        if (mu1.count(var) > 0) {
          excluded = true;
          break;
        }
      }
      if (excluded) break;
    }
    if (!excluded) out.push_back(mu1);
  }
  return out;
}

Result<bool> Evaluator::EvalFilter(const Query& q, const FilterExpr& f,
                                   const Binding& mu) const {
  return EvalFilter(q, f, [&mu](SymbolId var) {
    auto it = mu.find(var);
    return it == mu.end() ? kInvalidSymbol : it->second;
  });
}

Result<bool> Evaluator::EvalFilter(const Query& q, const FilterExpr& f,
                                   const VarLookup& value_of) const {
  switch (f.kind) {
    case FilterExpr::Kind::kUnaryTest: {
      if (!f.operand.ActsAsVar()) return true;
      const SymbolId value = value_of(f.operand.id);
      const std::string_view function = q.function(f);
      const std::string argument(q.argument(f));
      if (function == "bound" || function == "BOUND") {
        return value != kInvalidSymbol;
      }
      if (value == kInvalidSymbol) return false;  // error -> not selected
      const std::string_view name = dict_->Name(value);
      if (function == "isIRI" || function == "isURI") {
        return !IsLiteralName(name) && name.substr(0, 2) != "_:";
      }
      if (function == "isLiteral") return IsLiteralName(name);
      if (function == "isBlank") return name.substr(0, 2) == "_:";
      if (function == "lang") {
        return name.find("@" + argument) != std::string_view::npos ||
               (argument.size() >= 2 &&
                name.find("@" + argument.substr(1, argument.size() - 2)) !=
                    std::string_view::npos);
      }
      if (function == "regex" || function == "contains" ||
          function == "strstarts" || function == "STRSTARTS" ||
          function == "CONTAINS" || function == "REGEX") {
        std::string needle = argument;
        if (needle.size() >= 2 && needle.front() == '"') {
          needle = needle.substr(1, needle.size() - 2);
        }
        return name.find(needle) != std::string_view::npos;
      }
      // Unknown unary tests pass when the variable is bound.
      return true;
    }
    case FilterExpr::Kind::kComparison: {
      auto value = [&](const Term& t, SymbolId* out) {
        if (t.kind == Term::Kind::kNone) return false;
        if (!t.ActsAsVar()) {
          *out = t.id;
          return true;
        }
        *out = value_of(t.id);
        return *out != kInvalidSymbol;
      };
      SymbolId l, r;
      if (!value(f.lhs, &l) || !value(f.rhs, &r)) return false;
      if (f.cmp == FilterExpr::CmpOp::kEq) return l == r;
      if (f.cmp == FilterExpr::CmpOp::kNe) return l != r;
      const std::string_view ln = dict_->Name(l);
      const std::string_view rn = dict_->Name(r);
      double lv, rv;
      int c;
      if (NumericValue(ln, &lv) && NumericValue(rn, &rv)) {
        c = lv < rv ? -1 : (lv > rv ? 1 : 0);
      } else {
        c = ln.compare(rn);
      }
      switch (f.cmp) {
        case FilterExpr::CmpOp::kLt:
          return c < 0;
        case FilterExpr::CmpOp::kLe:
          return c <= 0;
        case FilterExpr::CmpOp::kGt:
          return c > 0;
        case FilterExpr::CmpOp::kGe:
          return c >= 0;
        default:
          return false;
      }
    }
    case FilterExpr::Kind::kAnd:
      for (const NodeIndex c : q.children(f)) {
        RWDT_ASSIGN_OR_RETURN(const bool pass,
                              EvalFilter(q, q.filter(c), value_of));
        if (!pass) return false;
      }
      return true;
    case FilterExpr::Kind::kOr:
      for (const NodeIndex c : q.children(f)) {
        RWDT_ASSIGN_OR_RETURN(const bool pass,
                              EvalFilter(q, q.filter(c), value_of));
        if (pass) return true;
      }
      return false;
    case FilterExpr::Kind::kNot: {
      RWDT_ASSIGN_OR_RETURN(
          const bool pass,
          EvalFilter(q, q.filter(q.children(f)[0]), value_of));
      return !pass;
    }
    case FilterExpr::Kind::kExistsPattern:
    case FilterExpr::Kind::kNotExistsPattern: {
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> results,
                            EvalPatternImpl(q, q.node(f.pattern)));
      // Compatible(mu, mu2), read through the lookup: every variable mu2
      // binds is unbound in mu or bound to the same term.
      const bool exists = std::any_of(
          results.begin(), results.end(), [&](const Binding& mu2) {
            return std::all_of(mu2.begin(), mu2.end(), [&](const auto& kv) {
              const SymbolId value = value_of(kv.first);
              return value == kInvalidSymbol || value == kv.second;
            });
          });
      return f.kind == FilterExpr::Kind::kExistsPattern ? exists : !exists;
    }
  }
  return Status::Unsupported("unknown filter kind");
}

Result<std::vector<Binding>> Evaluator::EvalPattern(const Query& q,
                                                    NodeIndex p) const {
  steps_ = 0;
  return EvalPatternImpl(q, q.node(p));
}

Result<std::vector<Binding>> Evaluator::EvalPatternImpl(
    const Query& q, const Pattern& p) const {
  switch (p.op) {
    case Pattern::Op::kTriple:
      return EvalTriple(p.triple);
    case Pattern::Op::kPath:
      return EvalPath(q.path(p));
    case Pattern::Op::kAnd: {
      std::vector<Binding> acc = {Binding{}};
      for (const NodeIndex c : q.children(p)) {
        RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> rows,
                              EvalPatternImpl(q, q.node(c)));
        RWDT_ASSIGN_OR_RETURN(acc, Join(acc, rows));
        if (acc.empty()) break;
      }
      return acc;
    }
    case Pattern::Op::kFilter: {
      std::vector<Binding> out;
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> rows,
                            EvalPatternImpl(q, q.child(p, 0)));
      for (auto& mu : rows) {
        RWDT_ASSIGN_OR_RETURN(const bool pass,
                              EvalFilter(q, q.filter(p.filter), mu));
        if (pass) out.push_back(std::move(mu));
      }
      return out;
    }
    case Pattern::Op::kUnion: {
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> out,
                            EvalPatternImpl(q, q.child(p, 0)));
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> right,
                            EvalPatternImpl(q, q.child(p, 1)));
      for (auto& mu : right) out.push_back(std::move(mu));
      return out;
    }
    case Pattern::Op::kOptional: {
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> left,
                            EvalPatternImpl(q, q.child(p, 0)));
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> right,
                            EvalPatternImpl(q, q.child(p, 1)));
      return LeftJoin(left, right);
    }
    case Pattern::Op::kMinus: {
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> left,
                            EvalPatternImpl(q, q.child(p, 0)));
      RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> right,
                            EvalPatternImpl(q, q.child(p, 1)));
      return MinusOp(left, right);
    }
    case Pattern::Op::kGraph:
    case Pattern::Op::kService: {
      // Single default graph; a variable name binds to the default IRI.
      RWDT_ASSIGN_OR_RETURN(std::vector<Binding> inner,
                            EvalPatternImpl(q, q.child(p, 0)));
      if (p.graph_name.ActsAsVar()) {
        const SymbolId def = dict_->Intern("urn:rwdt:default");
        for (auto& mu : inner) mu.emplace(p.graph_name.id, def);
      }
      return inner;
    }
    case Pattern::Op::kBind: {
      std::vector<Binding> inner;
      if (p.children.size == 0) {
        inner = {Binding{}};
      } else {
        RWDT_ASSIGN_OR_RETURN(inner, EvalPatternImpl(q, q.child(p, 0)));
      }
      for (auto& mu : inner) {
        if (!p.bind_var.ActsAsVar()) continue;
        if (p.bind_source.kind == Term::Kind::kNone) continue;
        if (p.bind_source.ActsAsVar()) {
          auto it = mu.find(p.bind_source.id);
          if (it != mu.end()) mu.emplace(p.bind_var.id, it->second);
        } else {
          mu.emplace(p.bind_var.id, p.bind_source.id);
        }
      }
      return inner;
    }
    case Pattern::Op::kValues: {
      std::vector<Binding> out;
      const std::span<const Term> vars = q.values_vars(p);
      for (const IndexRange range : q.values_rows(p)) {
        const std::span<const Term> row = q.row(range);
        Binding mu;
        for (size_t i = 0; i < row.size() && i < vars.size(); ++i) {
          if (row[i].kind == Term::Kind::kNone) continue;  // UNDEF
          if (vars[i].ActsAsVar()) {
            mu.insert_or_assign(vars[i].id, row[i].id);
          }
        }
        out.push_back(std::move(mu));
      }
      return out;
    }
    case Pattern::Op::kSubquery:
      if (p.subquery == nullptr) {
        return Status::Internal("subquery pattern without a query");
      }
      return EvalQueryImpl(q, q.subquery(p));
  }
  return Status::Unsupported("unsupported pattern operator");
}

Result<std::vector<Binding>> Evaluator::ApplyModifiers(
    const Query& query, std::vector<Binding> rows) const {
  return ApplyModifiers(query, query, std::move(rows));
}

Result<std::vector<Binding>> Evaluator::ApplyModifiers(
    const Query& query, const QueryHead& q, std::vector<Binding> rows) const {
  // Grouping and aggregation for queries that use them.
  const bool has_aggregates = std::any_of(
      q.projection.begin(), q.projection.end(),
      [](const SelectItem& item) { return item.aggregate.has_value(); });
  if (has_aggregates || !q.modifiers.group_by.empty()) {
    // Group key = values of group-by variables.
    std::map<std::vector<SymbolId>, std::vector<Binding>> groups;
    for (auto& mu : rows) {
      std::vector<SymbolId> key;
      for (const Term& g : q.modifiers.group_by) {
        auto it = mu.find(g.id);
        key.push_back(it == mu.end() ? kInvalidSymbol : it->second);
      }
      groups[key].push_back(std::move(mu));
    }
    if (groups.empty() && q.modifiers.group_by.empty()) {
      groups[{}] = {};  // aggregates over the empty solution set
    }

    std::vector<Binding> grouped;
    for (auto& [key, members] : groups) {
      Binding mu;
      for (size_t i = 0; i < q.modifiers.group_by.size(); ++i) {
        if (key[i] != kInvalidSymbol) {
          mu.insert_or_assign(q.modifiers.group_by[i].id, key[i]);
        }
      }
      for (const auto& item : q.projection) {
        if (!item.aggregate.has_value()) continue;
        double acc = 0;
        uint64_t count = 0;
        bool first = true;
        for (const auto& member : members) {
          SymbolId value = kInvalidSymbol;
          if (item.aggregate_arg.kind == Term::Kind::kNone) {
            ++count;  // COUNT(*)
            continue;
          }
          auto it = member.find(item.aggregate_arg.id);
          if (it == member.end()) continue;
          value = it->second;
          ++count;
          double v = 0;
          std::string body(dict_->Name(value));
          if (!body.empty() && body[0] == '"' && body.size() >= 2) {
            body = body.substr(1, body.size() - 2);
          }
          char* end = nullptr;
          v = std::strtod(body.c_str(), &end);
          const bool numeric = end == body.c_str() + body.size() &&
                               !body.empty();
          switch (*item.aggregate) {
            case Aggregate::kCount:
              break;
            case Aggregate::kSum:
            case Aggregate::kAvg:
              if (numeric) acc += v;
              break;
            case Aggregate::kMin:
              if (numeric && (first || v < acc)) acc = v;
              break;
            case Aggregate::kMax:
              if (numeric && (first || v > acc)) acc = v;
              break;
          }
          first = false;
        }
        double result = acc;
        if (*item.aggregate == Aggregate::kCount) {
          result = static_cast<double>(count);
        } else if (*item.aggregate == Aggregate::kAvg && count > 0) {
          result = acc / static_cast<double>(count);
        }
        char buf[32];
        if (result == static_cast<uint64_t>(result)) {
          std::snprintf(buf, sizeof(buf), "\"%llu\"",
                        static_cast<unsigned long long>(result));
        } else {
          std::snprintf(buf, sizeof(buf), "\"%g\"", result);
        }
        if (item.var.ActsAsVar()) {
          mu.insert_or_assign(item.var.id, dict_->Intern(buf));
        }
      }
      grouped.push_back(std::move(mu));
    }
    rows = std::move(grouped);
  }

  if (q.modifiers.having != nullptr) {
    std::vector<Binding> kept;
    for (auto& mu : rows) {
      RWDT_ASSIGN_OR_RETURN(
          const bool pass,
          EvalFilter(query, query.filter(q.modifiers.having), mu));
      if (pass) kept.push_back(std::move(mu));
    }
    rows = std::move(kept);
  }

  // Projection (Select with explicit variables): the projected ids,
  // sorted and de-duplicated once, against each mapping's ascending
  // pairs in one merge walk.
  if (q.form == QueryForm::kSelect && !q.select_star &&
      !q.projection.empty()) {
    std::vector<SymbolId> keep;
    keep.reserve(q.projection.size());
    for (const auto& item : q.projection) keep.push_back(item.var.id);
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    for (auto& mu : rows) {
      Binding projected;
      projected.assign_sorted(
          std::min(mu.size(), keep.size()), [&](Binding::value_type* out) {
            size_t n = 0;
            auto k = keep.begin();
            for (auto it = mu.begin(); it != mu.end() && k != keep.end();) {
              if (it->first < *k) {
                ++it;
              } else if (*k < it->first) {
                ++k;
              } else {
                out[n++] = *it++;
                ++k;
              }
            }
            return n;
          });
      mu = std::move(projected);
    }
  }

  // Order by (term-name order; numeric literals numerically).
  if (!q.modifiers.order_by.empty()) {
    std::stable_sort(
        rows.begin(), rows.end(),
        [&](const Binding& a, const Binding& b) {
          for (size_t i = 0; i < q.modifiers.order_by.size(); ++i) {
            const SymbolId var = q.modifiers.order_by[i].id;
            auto ita = a.find(var);
            auto itb = b.find(var);
            const std::string_view na =
                ita == a.end() ? std::string_view() : dict_->Name(ita->second);
            const std::string_view nb =
                itb == b.end() ? std::string_view() : dict_->Name(itb->second);
            double va, vb;
            int c;
            if (NumericValue(na, &va) && NumericValue(nb, &vb)) {
              c = va < vb ? -1 : (va > vb ? 1 : 0);
            } else {
              c = na.compare(nb);
            }
            const bool desc = i < q.modifiers.order_desc.size() &&
                              q.modifiers.order_desc[i];
            if (c != 0) return desc ? c > 0 : c < 0;
          }
          return false;
        });
  }

  if (q.modifiers.distinct || q.modifiers.reduced) {
    std::set<Binding> seen;
    std::vector<Binding> unique;
    for (auto& mu : rows) {
      if (seen.insert(mu).second) unique.push_back(std::move(mu));
    }
    rows = std::move(unique);
  }

  const uint64_t offset = q.modifiers.offset.value_or(0);
  if (offset > 0) {
    if (offset >= rows.size()) {
      rows.clear();
    } else {
      rows.erase(rows.begin(), rows.begin() + static_cast<long>(offset));
    }
  }
  if (q.modifiers.limit.has_value() && rows.size() > *q.modifiers.limit) {
    rows.resize(*q.modifiers.limit);
  }
  return rows;
}

Result<std::vector<Binding>> Evaluator::EvalQuery(const Query& q) const {
  steps_ = 0;
  return EvalQueryImpl(q, q);
}

Result<std::vector<Binding>> Evaluator::EvalQueryImpl(
    const Query& query, const QueryHead& q) const {
  std::vector<Binding> rows;
  if (q.pattern != nullptr) {
    RWDT_ASSIGN_OR_RETURN(rows, EvalPatternImpl(query, query.node(q.pattern)));
  } else {
    rows = {Binding{}};
  }
  return ApplyModifiers(query, q, std::move(rows));
}

Result<bool> Evaluator::Ask(const Query& q) const {
  RWDT_ASSIGN_OR_RETURN(const std::vector<Binding> rows, EvalQuery(q));
  return !rows.empty();
}

}  // namespace rwdt::sparql
