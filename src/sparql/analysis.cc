#include "sparql/analysis.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace rwdt::sparql {

std::string FeatureName(Feature f) {
  switch (f) {
    case Feature::kDistinct:
      return "Distinct";
    case Feature::kLimit:
      return "Limit";
    case Feature::kOffset:
      return "Offset";
    case Feature::kOrderBy:
      return "Order By";
    case Feature::kFilter:
      return "Filter";
    case Feature::kAnd:
      return "And";
    case Feature::kOptional:
      return "Optional";
    case Feature::kUnion:
      return "Union";
    case Feature::kGraph:
      return "Graph";
    case Feature::kValues:
      return "Values";
    case Feature::kNotExists:
      return "Not Exists";
    case Feature::kMinus:
      return "Minus";
    case Feature::kExists:
      return "Exists";
    case Feature::kGroupBy:
      return "Group By";
    case Feature::kCount:
      return "Count";
    case Feature::kHaving:
      return "Having";
    case Feature::kAvg:
      return "Avg";
    case Feature::kMin:
      return "Min";
    case Feature::kMax:
      return "Max";
    case Feature::kSum:
      return "Sum";
    case Feature::kService:
      return "Service";
    case Feature::kPropertyPaths:
      return "property paths (RPQs)";
    case Feature::kBind:
      return "Bind";
    case Feature::kSubquery:
      return "Subquery";
  }
  return "?";
}

const std::vector<Feature>& AllFeatures() {
  static const std::vector<Feature>* kAll = new std::vector<Feature>{
      Feature::kDistinct,  Feature::kLimit,    Feature::kOffset,
      Feature::kOrderBy,   Feature::kFilter,   Feature::kAnd,
      Feature::kOptional,  Feature::kUnion,    Feature::kGraph,
      Feature::kValues,    Feature::kNotExists, Feature::kMinus,
      Feature::kExists,    Feature::kGroupBy,  Feature::kCount,
      Feature::kHaving,    Feature::kAvg,      Feature::kMin,
      Feature::kMax,       Feature::kSum,      Feature::kService,
      Feature::kPropertyPaths,
  };
  return *kAll;
}

namespace {

/// Exists / Not Exists anywhere in the expression rooted at `f`, not
/// inside the EXISTS bodies themselves.
void AddFilterFeatures(const Query& q, NodeIndex f, FeatureSet* out) {
  internal::WalkStack<NodeIndex> stack;
  stack.push(f);
  while (!stack.empty()) {
    const FilterExpr& e = q.filter(stack.pop());
    if (e.kind == FilterExpr::Kind::kExistsPattern) {
      out->insert(Feature::kExists);
    }
    if (e.kind == FilterExpr::Kind::kNotExistsPattern) {
      out->insert(Feature::kNotExists);
    }
    for (const NodeIndex c : q.children(e)) stack.push(c);
  }
}

/// True iff the subtree rooted at `root` holds a triple or path pattern,
/// subqueries included. A triple or path answers without a walk, so an
/// AND of triples costs no walk per conjunct.
bool HasTriplePatterns(const Query& q, NodeIndex root) {
  if (q.node(root).IsTripleOrPath()) return true;
  return !ForEachNode(q, root,
                      [](const Pattern& p) { return !p.IsTripleOrPath(); });
}

void AddPatternFeatures(const Query& q, const Pattern& p, FeatureSet* out) {
  switch (p.op) {
    case Pattern::Op::kAnd: {
      // "And" in the paper's sense: a genuine conjunction of triple
      // patterns, not a triple merely co-occurring with VALUES/BIND.
      size_t triple_bearing = 0;
      for (const NodeIndex c : q.children(p)) {
        if (HasTriplePatterns(q, c) && ++triple_bearing == 2) {
          out->insert(Feature::kAnd);
          break;
        }
      }
      break;
    }
    case Pattern::Op::kFilter:
      out->insert(Feature::kFilter);
      if (p.filter != nullptr) AddFilterFeatures(q, p.filter, out);
      break;
    case Pattern::Op::kUnion:
      out->insert(Feature::kUnion);
      break;
    case Pattern::Op::kOptional:
      out->insert(Feature::kOptional);
      break;
    case Pattern::Op::kGraph:
      out->insert(Feature::kGraph);
      break;
    case Pattern::Op::kValues:
      // The parser's synthetic unit table (one empty row, no vars) is
      // not a user-written VALUES.
      if (!q.values_vars(p).empty()) out->insert(Feature::kValues);
      break;
    case Pattern::Op::kMinus:
      out->insert(Feature::kMinus);
      break;
    case Pattern::Op::kService:
      out->insert(Feature::kService);
      break;
    case Pattern::Op::kBind:
      out->insert(Feature::kBind);
      break;
    case Pattern::Op::kPath:
      out->insert(Feature::kPropertyPaths);
      break;
    case Pattern::Op::kSubquery:
      out->insert(Feature::kSubquery);
      break;
    case Pattern::Op::kTriple:
      break;
  }
}

void AddModifierFeatures(const QueryHead& q, FeatureSet* out) {
  if (q.modifiers.distinct) out->insert(Feature::kDistinct);
  if (q.modifiers.limit.has_value()) out->insert(Feature::kLimit);
  if (q.modifiers.offset.has_value()) out->insert(Feature::kOffset);
  if (!q.modifiers.order_by.empty()) out->insert(Feature::kOrderBy);
  if (!q.modifiers.group_by.empty()) out->insert(Feature::kGroupBy);
  if (q.modifiers.having != nullptr) out->insert(Feature::kHaving);
  for (const auto& item : q.projection) {
    if (!item.aggregate.has_value()) continue;
    switch (*item.aggregate) {
      case Aggregate::kCount:
        out->insert(Feature::kCount);
        break;
      case Aggregate::kSum:
        out->insert(Feature::kSum);
        break;
      case Aggregate::kAvg:
        out->insert(Feature::kAvg);
        break;
      case Aggregate::kMin:
        out->insert(Feature::kMin);
        break;
      case Aggregate::kMax:
        out->insert(Feature::kMax);
        break;
    }
  }
}

/// The features of one node of the query's own pattern. A subquery node
/// adds its subquery's modifiers and own pattern's nodes, not those of
/// the subqueries further down.
void AddNodeFeatures(const Query& q, const Pattern& p, FeatureSet* out) {
  AddPatternFeatures(q, p, out);
  if (p.op != Pattern::Op::kSubquery) return;
  const QueryHead& level = q.subquery(p);
  AddModifierFeatures(level, out);
  ForEachNode(
      q, level.pattern,
      [&](const Pattern& sub) { AddPatternFeatures(q, sub, out); },
      Subqueries::kSkip);
}

/// The operator-set rule for one node of the query's own pattern.
void AddOperator(const Query& q, const Pattern& p, OperatorSet* out) {
  switch (p.op) {
    case Pattern::Op::kTriple:
      break;
    case Pattern::Op::kPath:
      out->uses_path = true;
      break;
    case Pattern::Op::kAnd:
      out->uses_and = true;
      break;
    case Pattern::Op::kFilter:
      out->uses_filter = true;
      break;
    case Pattern::Op::kValues:
      if (!q.values_vars(p).empty()) out->uses_other = true;
      break;
    default:
      out->uses_other = true;
      break;
  }
}

/// The AND/FILTER/OPTIONAL-only rule for one node of the query's own
/// pattern.
bool IsAndFilterOptional(const Query& q, const Pattern& p) {
  switch (p.op) {
    case Pattern::Op::kTriple:
    case Pattern::Op::kPath:
    case Pattern::Op::kAnd:
    case Pattern::Op::kFilter:
    case Pattern::Op::kOptional:
      return true;
    case Pattern::Op::kValues:
      return q.values_vars(p).empty();  // the parser's unit table
    default:
      return false;
  }
}

/// The filter of a FILTER node, or null for any other node.
const FilterExpr* FilterOf(const Query& q, const Pattern& p) {
  if (p.op != Pattern::Op::kFilter || p.filter == nullptr) return nullptr;
  return &q.filter(p.filter);
}

/// Appends the predicate of a triple pattern that is a variable.
void AddPredicateVar(const Pattern& p, std::vector<SymbolId>* out) {
  if (p.op == Pattern::Op::kTriple && p.triple.p.ActsAsVar()) {
    out->push_back(p.triple.p.id);
  }
}

/// IsGraphCqF's predicate rule: a variable predicate may be the
/// predicate of one triple only, and may not appear in any other triple
/// position. Sorts `predicate_vars`.
bool PredicateVarsStandAlone(const Query& q,
                             std::vector<SymbolId>* predicate_vars) {
  if (predicate_vars->empty()) return true;
  std::sort(predicate_vars->begin(), predicate_vars->end());
  if (std::adjacent_find(predicate_vars->begin(), predicate_vars->end()) !=
      predicate_vars->end()) {
    return false;
  }
  auto is_predicate_var = [&](const Term& t) {
    return t.ActsAsVar() && std::binary_search(predicate_vars->begin(),
                                               predicate_vars->end(), t.id);
  };
  return ForEachNode(q, [&](const Pattern& p) {
    return p.op != Pattern::Op::kTriple ||
           !(is_predicate_var(p.triple.s) || is_predicate_var(p.triple.o));
  });
}

}  // namespace

FeatureSet ExtractFeatures(const Query& q) {
  FeatureSet out;
  AddModifierFeatures(q, &out);
  ForEachNode(
      q, q.pattern, [&](const Pattern& p) { AddNodeFeatures(q, p, &out); },
      Subqueries::kSkip);
  return out;
}

OperatorSet ExtractOperatorSet(const Query& q) {
  OperatorSet out;
  ForEachNode(
      q, q.pattern, [&](const Pattern& p) { AddOperator(q, p, &out); },
      Subqueries::kSkip);
  return out;
}

namespace {

/// Checks the well-designedness condition on every OPTIONAL node,
/// vars(P2) ∩ vars(outside) ⊆ vars(P1), in one pass over the tree.
///
/// Nodes are numbered in pre-order over `children`, so every subtree is
/// an interval of numbers. Each variable keeps the sorted numbers of the
/// nodes that mention it themselves (Query::AppendOwnVars). A variable
/// of P2 is in P1 when one of its numbers lies in P1's interval, and
/// occurs outside the OPTIONAL when its first or last number lies
/// outside the OPTIONAL's interval.
///
/// Each OPTIONAL looks only at the mentions inside its own P2, so a
/// left-deep chain of OPTIONALs costs each mention one look; a mention
/// is looked at again only for each enclosing group that is some
/// OPTIONAL's P2, and the parser bounds that nesting.
///
/// The pattern must be AND/FILTER/OPTIONAL only (no subqueries), so that
/// ForEachNode walks exactly the `children` tree.
class OptionalCheck {
 public:
  OptionalCheck(const Query& q, WellDesignedScratch* scratch)
      : nodes_(scratch->nodes),
        mentions_(scratch->mentions),
        by_var_(scratch->by_var) {
    nodes_.clear();
    mentions_.clear();
    by_var_.clear();
    ForEachNode(q, [&](const Pattern& p) {
      nodes_.push_back({&p, 0, static_cast<uint32_t>(mentions_.size())});
      q.AppendOwnVars(p, &mentions_);
    });
    // A subtree is its root plus its children's subtrees, which follow
    // it one after another; so each node's end is known once its
    // children's are, going backwards.
    for (uint32_t i = static_cast<uint32_t>(nodes_.size()); i-- > 0;) {
      uint32_t end = i + 1;
      for (uint32_t c = 0; c < nodes_[i].pattern->children.size; ++c) {
        end = nodes_[end].end;
      }
      nodes_[i].end = end;
    }
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
      for (uint32_t m = nodes_[i].mentions; m < MentionsBefore(i + 1); ++m) {
        by_var_.emplace_back(mentions_[m], i);
      }
    }
    std::sort(by_var_.begin(), by_var_.end());
  }

  bool WellDesigned() const {
    for (uint32_t opt = 0; opt < nodes_.size(); ++opt) {
      const Pattern& p = *nodes_[opt].pattern;
      if (p.op != Pattern::Op::kOptional || p.children.size < 2) continue;
      const uint32_t p1 = opt + 1;         // P1 is [p1, p2)
      const uint32_t p2 = nodes_[p1].end;  // P2 is [p2, p2_end)
      const uint32_t p2_end = nodes_[p2].end;
      for (uint32_t m = MentionsBefore(p2); m < MentionsBefore(p2_end); ++m) {
        const auto [lo, hi] = std::equal_range(
            by_var_.begin(), by_var_.end(),
            std::make_pair(mentions_[m], uint32_t{0}), SameVar);
        const bool outside =
            lo->second < opt || std::prev(hi)->second >= nodes_[opt].end;
        if (!outside) continue;
        const auto in_p1 = std::lower_bound(
            lo, hi, std::make_pair(mentions_[m], p1));
        if (in_p1 == hi || in_p1->second >= p2) return false;
      }
    }
    return true;
  }

 private:
  static bool SameVar(const std::pair<SymbolId, uint32_t>& a,
                      const std::pair<SymbolId, uint32_t>& b) {
    return a.first < b.first;
  }

  /// Index of the first mention of node `i`, or of the end for i == n:
  /// the mentions of nodes [a, b) are [MentionsBefore(a),
  /// MentionsBefore(b)).
  uint32_t MentionsBefore(uint32_t i) const {
    return i < nodes_.size() ? nodes_[i].mentions
                             : static_cast<uint32_t>(mentions_.size());
  }

  std::vector<WellDesignedScratch::Node>& nodes_;
  std::vector<SymbolId>& mentions_;
  std::vector<std::pair<SymbolId, uint32_t>>& by_var_;
};

/// Well-designedness once the operators are known: an AFO-only query is
/// well designed unless one of its OPTIONALs breaks the condition.
bool WellDesignedGiven(const Query& q, bool afo_only, bool has_optional,
                       WellDesignedScratch* scratch) {
  return afo_only &&
         (!has_optional || OptionalCheck(q, scratch).WellDesigned());
}

}  // namespace

bool UsesOnlyAndFilterOptional(const Query& q) {
  if (q.pattern == nullptr) return false;
  return ForEachNode(
      q, q.pattern,
      [&](const Pattern& p) { return IsAndFilterOptional(q, p); },
      Subqueries::kSkip);
}

bool IsWellDesigned(const Query& q) {
  WellDesignedScratch scratch;
  return IsWellDesigned(q, &scratch);
}

bool IsWellDesigned(const Query& q, WellDesignedScratch* scratch) {
  if (!UsesOnlyAndFilterOptional(q)) return false;
  const bool has_optional = !ForEachNode(q, [](const Pattern& p) {
    return p.op != Pattern::Op::kOptional;
  });
  return WellDesignedGiven(q, true, has_optional, scratch);
}

bool HasOnlySafeFilters(const Query& q) {
  return ForEachNode(q, [&](const Pattern& p) {
    const FilterExpr* f = FilterOf(q, p);
    return f == nullptr || q.IsSafe(*f);
  });
}

bool HasOnlySimpleFilters(const Query& q) {
  return ForEachNode(q, [&](const Pattern& p) {
    const FilterExpr* f = FilterOf(q, p);
    return f == nullptr || q.IsSimple(*f);
  });
}

bool IsGraphCqF(const Query& q) {
  if (q.pattern == nullptr) return false;
  if (!ExtractOperatorSet(q).IsCqF()) return false;
  if (!HasOnlySimpleFilters(q)) return false;
  std::vector<SymbolId> predicate_vars;  // usually none
  ForEachNode(q,
              [&](const Pattern& p) { AddPredicateVar(p, &predicate_vars); });
  return PredicateVarsStandAlone(q, &predicate_vars);
}

void ExtractPatternFacts(const Query& q, PatternFacts* facts) {
  facts->features = FeatureSet();
  facts->ops = OperatorSet();
  facts->afo_only = q.pattern != nullptr;
  facts->triples = 0;
  facts->has_optional = false;
  facts->safe_filters = true;
  facts->simple_filters = true;
  facts->predicate_vars.clear();
  facts->paths.clear();

  // The level walk.
  AddModifierFeatures(q, &facts->features);
  ForEachNode(
      q, q.pattern,
      [&](const Pattern& p) {
        AddNodeFeatures(q, p, &facts->features);
        AddOperator(q, p, &facts->ops);
        facts->afo_only = facts->afo_only && IsAndFilterOptional(q, p);
      },
      Subqueries::kSkip);

  // The whole walk. A filter rule that has failed once is not asked
  // again.
  ForEachNode(q, [&](const Pattern& p) {
    if (p.IsTripleOrPath()) ++facts->triples;
    switch (p.op) {
      case Pattern::Op::kTriple:
        AddPredicateVar(p, &facts->predicate_vars);
        break;
      case Pattern::Op::kPath:
        facts->paths.push_back(&q.path(p));
        break;
      case Pattern::Op::kOptional:
        facts->has_optional = true;
        break;
      case Pattern::Op::kFilter:
        if (const FilterExpr* f = FilterOf(q, p)) {
          facts->safe_filters = facts->safe_filters && q.IsSafe(*f);
          facts->simple_filters = facts->simple_filters && q.IsSimple(*f);
        }
        break;
      default:
        break;
    }
  });
}

bool IsWellDesigned(const Query& q, const PatternFacts& facts,
                    WellDesignedScratch* scratch) {
  return WellDesignedGiven(q, facts.afo_only, facts.has_optional, scratch);
}

bool IsGraphCqF(const Query& q, PatternFacts* facts) {
  return q.pattern != nullptr && facts->ops.IsCqF() &&
         facts->simple_filters &&
         PredicateVarsStandAlone(q, &facts->predicate_vars);
}

}  // namespace rwdt::sparql
