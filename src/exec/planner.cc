#include "exec/planner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/json.h"
#include "common/max_depth.h"
#include "paths/automaton.h"

namespace rwdt::exec {
namespace {

/// Estimate for operators whose output size the planner cannot bound
/// cheaply (path closures, nested blocks). Large so scans win the
/// greedy order.
constexpr uint64_t kUnknownEstimate =
    std::numeric_limits<uint64_t>::max() / 2;

/// Conjunction flattening: nested ANDs join the same bag regardless of
/// association, so the planner works on the flat conjunct list.
void FlattenConjuncts(const sparql::Query& q, const sparql::Pattern& p,
                      std::vector<const sparql::Pattern*>* out) {
  if (p.op == sparql::Pattern::Op::kAnd) {
    for (const sparql::NodeIndex c : q.children(p)) {
      FlattenConjuncts(q, q.node(c), out);
    }
    return;
  }
  out->push_back(&p);
}

void TermVars(const sparql::Term& t, std::set<SymbolId>* out) {
  if (t.ActsAsVar()) out->insert(t.id);
}

}  // namespace

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kYannakakis:
      return "yannakakis";
    case Strategy::kHtwJoinOrder:
      return "htw_join_order";
    case Strategy::kNfaPathProduct:
      return "nfa_path_product";
    case Strategy::kPatternTree:
      return "pattern_tree";
    case Strategy::kFallback:
      return "fallback";
  }
  return "unknown";
}

std::string Plan::ToJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.StringField("strategy", StrategyName(strategy));
  w.StringField("fragment", verdict.FragmentName());
  w.StringField("form", verdict.FormName());
  w.UIntField("htw_le", verdict.HtwLe());
  w.BoolField("well_designed", verdict.analysis.well_designed);
  if (!verdict.analysis.path_types.empty()) {
    w.UIntField("paths", verdict.analysis.path_types.size());
    w.UIntField("paths_ste", verdict.analysis.ste);
  }
  w.StringField("reason", reason);
  w.Key("plan");
  if (root == nullptr) {
    w.Null();
  } else {
    root->Explain(&w);
  }
  w.EndObject();
  return out;
}

/// One built subtree plus what the planner knows about its rows:
/// `definite` vars are bound in every row, `possible` in some row
/// (definite == possible except below OPTIONAL). Hash joins require
/// the join vars to be definite on both sides; otherwise the planner
/// emits a nested-loop join that tests compatibility slot by slot.
struct Executor::Built {
  OperatorPtr op;
  std::set<SymbolId> definite;
  std::set<SymbolId> possible;
  uint64_t estimate = kUnknownEstimate;
};

Executor::Executor(const graph::TripleStore& store, Interner* dict,
                   ExecOptions options)
    : store_(store),
      dict_(dict),
      options_(options),
      eval_(store, dict, options.limits) {
  auto& reg = obs::MetricRegistry::Global();
  for (int i = 0; i < 5; ++i) {
    plans_by_strategy_[i] = reg.GetCounter(
        "rwdt_exec_plans_total",
        "Physical plans produced, by planner strategy.",
        {{"strategy", StrategyName(static_cast<Strategy>(i))}});
  }
  rows_total_ = reg.GetCounter("rwdt_exec_rows_total",
                               "Solution rows produced by the executor.");
  exec_seconds_ = reg.GetHistogram(
      "rwdt_exec_seconds", "Wall time per executed plan.",
      obs::Histogram::ExponentialBounds(1e-5, 4, 10));
}

core::QueryVerdict Executor::Classify(const sparql::Query& q) const {
  return core::Classify(q, options_.study);
}

Executor::Built Executor::MakeLeaf(OperatorPtr op, std::set<SymbolId> vars,
                                   uint64_t estimate) const {
  Built b;
  b.op = std::move(op);
  b.definite = vars;
  b.possible = std::move(vars);
  b.estimate = estimate;
  return b;
}

Executor::Built Executor::MakeJoin(const LayoutPtr& layout, Built left,
                                   Built right) const {
  std::vector<SymbolId> join_vars;
  std::set_intersection(left.possible.begin(), left.possible.end(),
                        right.possible.begin(), right.possible.end(),
                        std::back_inserter(join_vars));
  const bool hashable =
      std::all_of(join_vars.begin(), join_vars.end(), [&](SymbolId v) {
        return left.definite.count(v) > 0 && right.definite.count(v) > 0;
      });

  Built out;
  if (hashable) {
    // Build on the smaller side, probe with the larger.
    if (left.estimate < right.estimate) {
      out.op = std::make_unique<HashJoinOp>(layout, std::move(right.op),
                                            std::move(left.op), join_vars,
                                            *dict_);
    } else {
      out.op = std::make_unique<HashJoinOp>(layout, std::move(left.op),
                                            std::move(right.op), join_vars,
                                            *dict_);
    }
  } else {
    out.op = std::make_unique<NestedLoopJoinOp>(layout, std::move(left.op),
                                                std::move(right.op));
  }
  std::set_union(left.definite.begin(), left.definite.end(),
                 right.definite.begin(), right.definite.end(),
                 std::inserter(out.definite, out.definite.end()));
  std::set_union(left.possible.begin(), left.possible.end(),
                 right.possible.begin(), right.possible.end(),
                 std::inserter(out.possible, out.possible.end()));
  out.estimate = std::max(left.estimate, right.estimate);
  return out;
}

Result<Executor::Built> Executor::BuildAnd(const sparql::Query& q,
                                           const sparql::Pattern& p,
                                           const LayoutPtr& layout,
                                           size_t depth) const {
  std::vector<const sparql::Pattern*> conjuncts;
  FlattenConjuncts(q, p, &conjuncts);
  if (conjuncts.empty()) {
    // Empty AND: the evaluator's join identity, one empty binding.
    return MakeLeaf(std::make_unique<YannakakisOp>(
                        layout, store_, *dict_,
                        std::vector<sparql::TriplePattern>{}),
                    {}, 1);
  }

  // All-triple conjunctions whose variable hypergraph admits a GYO join
  // forest run as one Yannakakis semijoin program.
  const bool all_triples = std::all_of(
      conjuncts.begin(), conjuncts.end(), [](const sparql::Pattern* c) {
        return c->op == sparql::Pattern::Op::kTriple;
      });
  if (all_triples) {
    std::vector<sparql::TriplePattern> triples;
    std::vector<std::set<SymbolId>> varsets;
    std::set<SymbolId> vars;
    uint64_t estimate = kUnknownEstimate;
    for (const sparql::Pattern* c : conjuncts) {
      triples.push_back(c->triple);
      std::set<SymbolId> vs;
      TermVars(c->triple.s, &vs);
      TermVars(c->triple.p, &vs);
      TermVars(c->triple.o, &vs);
      vars.insert(vs.begin(), vs.end());
      varsets.push_back(std::move(vs));
      const auto& t = c->triple;
      estimate = std::min<uint64_t>(
          estimate,
          store_.CountMatch(t.s.ActsAsVar() ? kInvalidSymbol : t.s.id,
                            t.p.ActsAsVar() ? kInvalidSymbol : t.p.id,
                            t.o.ActsAsVar() ? kInvalidSymbol : t.o.id));
    }
    if (BuildJoinForest(varsets).ok) {
      return MakeLeaf(std::make_unique<YannakakisOp>(
                          layout, store_, *dict_, std::move(triples)),
                      std::move(vars), estimate);
    }
    // Cyclic: fall through to the greedy join order below.
  }

  std::vector<Built> built;
  built.reserve(conjuncts.size());
  for (const sparql::Pattern* c : conjuncts) {
    RWDT_ASSIGN_OR_RETURN(Built b, BuildPattern(q, *c, layout, depth + 1));
    built.push_back(std::move(b));
  }

  // Greedy bounded-width order: start from the smallest estimated
  // conjunct, then repeatedly take the smallest conjunct connected to
  // the accumulated variables (joins stay selective); cartesian products
  // only when no conjunct connects. Reordering is sound: bag join is
  // commutative and associative, and filters stay at their own
  // positions inside each conjunct.
  std::vector<bool> used(built.size(), false);
  size_t first = 0;
  for (size_t i = 1; i < built.size(); ++i) {
    if (built[i].estimate < built[first].estimate) first = i;
  }
  used[first] = true;
  Built acc = std::move(built[first]);
  for (size_t round = 1; round < built.size(); ++round) {
    size_t next = built.size();
    bool next_connected = false;
    for (size_t i = 0; i < built.size(); ++i) {
      if (used[i]) continue;
      const bool connected = std::any_of(
          built[i].possible.begin(), built[i].possible.end(),
          [&](SymbolId v) { return acc.possible.count(v) > 0; });
      const bool better =
          next == built.size() || (connected && !next_connected) ||
          (connected == next_connected &&
           built[i].estimate < built[next].estimate);
      if (better) {
        next = i;
        next_connected = connected;
      }
    }
    used[next] = true;
    acc = MakeJoin(layout, std::move(acc), std::move(built[next]));
  }
  return acc;
}

Result<Executor::Built> Executor::BuildPattern(
    const sparql::Query& q, const sparql::Pattern& p,
    const LayoutPtr& layout, size_t depth) const {
  using Op = sparql::Pattern::Op;
  if (depth > kDefaultMaxDepth) {
    return Status::ResourceExhausted("pattern nests deeper than " +
                                     std::to_string(kDefaultMaxDepth) +
                                     " levels");
  }
  switch (p.op) {
    case Op::kTriple: {
      std::set<SymbolId> vars;
      TermVars(p.triple.s, &vars);
      TermVars(p.triple.p, &vars);
      TermVars(p.triple.o, &vars);
      const auto& t = p.triple;
      const uint64_t estimate =
          store_.CountMatch(t.s.ActsAsVar() ? kInvalidSymbol : t.s.id,
                            t.p.ActsAsVar() ? kInvalidSymbol : t.p.id,
                            t.o.ActsAsVar() ? kInvalidSymbol : t.o.id);
      return MakeLeaf(
          std::make_unique<TripleScanOp>(layout, store_, *dict_, p.triple),
          std::move(vars), estimate);
    }
    case Op::kPath: {
      const sparql::PathTriple& path = q.path(p);
      std::set<SymbolId> vars;
      TermVars(path.s, &vars);
      TermVars(path.o, &vars);
      RWDT_ASSIGN_OR_RETURN(paths::PathNfa nfa,
                            paths::CompilePathNfa(*path.path));
      return MakeLeaf(std::make_unique<PathScanOp>(layout, eval_, *dict_,
                                                   path, std::move(nfa)),
                      std::move(vars), store_.size());
    }
    case Op::kAnd:
      return BuildAnd(q, p, layout, depth);
    case Op::kFilter: {
      RWDT_ASSIGN_OR_RETURN(Built child,
                            BuildPattern(q, q.child(p, 0), layout, depth + 1));
      child.op = std::make_unique<FilterOp>(layout, std::move(child.op), q,
                                            q.filter(p.filter), eval_);
      return child;
    }
    case Op::kOptional: {
      RWDT_ASSIGN_OR_RETURN(Built left,
                            BuildPattern(q, q.child(p, 0), layout, depth + 1));
      RWDT_ASSIGN_OR_RETURN(Built right,
                            BuildPattern(q, q.child(p, 1), layout, depth + 1));
      std::vector<SymbolId> join_vars;
      std::set_intersection(left.possible.begin(), left.possible.end(),
                            right.possible.begin(), right.possible.end(),
                            std::back_inserter(join_vars));
      const bool hashable = std::all_of(
          join_vars.begin(), join_vars.end(), [&](SymbolId v) {
            return left.definite.count(v) > 0 &&
                   right.definite.count(v) > 0;
          });
      Built out;
      out.definite = std::move(left.definite);
      std::set_union(left.possible.begin(), left.possible.end(),
                     right.possible.begin(), right.possible.end(),
                     std::inserter(out.possible, out.possible.end()));
      out.estimate = left.estimate;
      if (hashable) {
        out.op = std::make_unique<HashJoinOp>(
            layout, std::move(left.op), std::move(right.op), join_vars,
            *dict_, /*left_outer=*/true);
      } else {
        out.op = std::make_unique<NestedLoopJoinOp>(
            layout, std::move(left.op), std::move(right.op),
            /*left_outer=*/true);
      }
      return out;
    }
    default:
      return Status::Unsupported(
          std::string("pattern operator outside the certified fragments"));
  }
}

Result<Plan> Executor::MakePlan(const sparql::Query& q) const {
  return MakePlan(q, Classify(q));
}

Result<Plan> Executor::MakePlan(const sparql::Query& q,
                                const core::QueryVerdict& verdict) const {
  Plan plan;
  plan.verdict = verdict;
  plan.query = std::make_unique<const sparql::Query>(q);
  const sparql::Query& query = *plan.query;

  auto fallback = [&](std::string reason) {
    plan.strategy = Strategy::kFallback;
    plan.reason = std::move(reason);
    plan.root = nullptr;
    plans_by_strategy_[static_cast<int>(Strategy::kFallback)]->Increment();
    return std::move(plan);
  };

  if (q.pattern == nullptr) {
    return fallback("query has no pattern");
  }

  Strategy strategy;
  std::string reason;
  const core::QueryAnalysis& a = verdict.analysis;
  if (verdict.IsAcyclicCq()) {
    strategy = Strategy::kYannakakis;
    reason = "acyclic conjunctive query: Yannakakis semijoin program";
  } else if (verdict.IsLowWidthCqF()) {
    strategy = Strategy::kHtwJoinOrder;
    reason = "CQ+F with certified htw <= " +
             std::to_string(verdict.HtwLe()) +
             ": decomposition-guided join order";
  } else if (a.ops.IsC2RpqF() && verdict.AllPathsSimpleTransitive()) {
    strategy = Strategy::kNfaPathProduct;
    reason =
        "C2RPQ+F with simple transitive paths: NFA-product reachability";
  } else if (verdict.IsWellDesignedOptional()) {
    strategy = Strategy::kPatternTree;
    reason = "well-designed OPTIONAL: pattern-tree evaluation";
  } else {
    return fallback(std::string("no certified fragment applies (") +
                    verdict.FragmentName() + ")");
  }

  // One slot per variable of the pattern, shared by every operator. The
  // operators are built from the plan's own copy of the query, which
  // they may keep referring to.
  std::set<SymbolId> vars;
  query.CollectVars(query.pattern, &vars);
  Result<Built> built =
      BuildPattern(query, query.node(query.pattern),
                   std::make_shared<const SlotLayout>(vars), /*depth=*/1);
  if (!built.ok()) {
    return fallback("planner fallback: " + built.status().message());
  }
  plan.strategy = strategy;
  plan.reason = std::move(reason);
  plan.root = std::move(built.value().op);
  plans_by_strategy_[static_cast<int>(strategy)]->Increment();
  return plan;
}

Result<std::vector<Binding>> Executor::Execute(Plan& plan) const {
  const auto start = std::chrono::steady_clock::now();
  Result<std::vector<Binding>> rows = [&]() -> Result<std::vector<Binding>> {
    if (plan.root == nullptr) {
      return eval_.EvalQuery(*plan.query);
    }
    eval_.ResetSteps();  // per-query budget for EvalFilter / modifiers
    RWDT_ASSIGN_OR_RETURN(std::vector<Binding> pattern_rows,
                          plan.root->Drain());
    return eval_.ApplyModifiers(*plan.query, std::move(pattern_rows));
  }();
  exec_seconds_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  if (rows.ok()) rows_total_->Increment(rows.value().size());
  return rows;
}

Result<std::vector<Binding>> Executor::Run(const sparql::Query& q) const {
  RWDT_ASSIGN_OR_RETURN(Plan plan, MakePlan(q));
  return Execute(plan);
}

}  // namespace rwdt::exec
