#include "paths/automaton.h"

#include <string>

namespace rwdt::paths {
namespace {

/// The most states the epsilon-closure walks visit in all. A state in a
/// closure that carries no labeled edge costs a visit but writes no
/// transition, and each of a path's up to kDefaultMaxDepth nested `*`
/// or `?` adds two such states around every step it wraps; without
/// this bound a 32 KB path of 128 steps, each under 250 stars, walked
/// closures for 1.1 s before its transitions passed their cap.
constexpr size_t kMaxClosureVisits = 4 * kMaxNfaTransitions;

Status TooLarge() {
  return Status::ResourceExhausted(
      "property path automaton needs more than " +
      std::to_string(kMaxNfaTransitions) + " transitions");
}

/// The states NfaBuilder::Build makes for `p`: two per operator, none
/// for `^`.
size_t StatesOf(const Path& p) {
  size_t n = p.op() == PathOp::kInverse ? 0 : 2;
  for (const auto& c : p.children()) n += StatesOf(*c);
  return n;
}

/// Thompson construction over an epsilon-NFA; `inverted` compiles the
/// reversal with flipped step directions, which is exactly the relation
/// inverse `^e` (so nested `^` costs nothing at runtime).
class NfaBuilder {
 public:
  struct Frag {
    uint32_t in = 0;
    uint32_t out = 0;
  };

  Frag Build(const Path& p, bool inverted) {
    switch (p.op()) {
      case PathOp::kIri: {
        Frag f = NewFrag();
        AddEdge(f.in,
                {inverted ? PathNfa::EdgeKind::kInv : PathNfa::EdgeKind::kFwd,
                 p.iri(),
                 {},
                 f.out});
        return f;
      }
      case PathOp::kNegated: {
        // Forward-forbidden and inverse-forbidden sets: a set with only
        // inverse members steps backward only. Inversion swaps the roles
        // of the two components.
        std::vector<SymbolId> fwd, inv;
        for (const auto& [iri, is_inv] : p.negated_set()) {
          (is_inv ? inv : fwd).push_back(iri);
        }
        std::sort(fwd.begin(), fwd.end());
        std::sort(inv.begin(), inv.end());
        Frag f = NewFrag();
        const bool has_fwd_component = inv.empty() || !fwd.empty();
        if (has_fwd_component) {
          AddEdge(f.in, {inverted ? PathNfa::EdgeKind::kNegInv
                                  : PathNfa::EdgeKind::kNegFwd,
                         kInvalidSymbol, fwd, f.out});
        }
        if (!inv.empty()) {
          AddEdge(f.in, {inverted ? PathNfa::EdgeKind::kNegFwd
                                  : PathNfa::EdgeKind::kNegInv,
                         kInvalidSymbol, inv, f.out});
        }
        return f;
      }
      case PathOp::kInverse:
        return Build(*p.child(), !inverted);
      case PathOp::kSeq: {
        Frag whole = NewFrag();
        uint32_t cur = whole.in;
        const auto& kids = p.children();
        for (size_t i = 0; i < kids.size(); ++i) {
          // Reversal distributes over concatenation in reverse order.
          const auto& child =
              inverted ? *kids[kids.size() - 1 - i] : *kids[i];
          Frag f = Build(child, inverted);
          AddEps(cur, f.in);
          cur = f.out;
        }
        AddEps(cur, whole.out);
        return whole;
      }
      case PathOp::kAlt: {
        Frag whole = NewFrag();
        for (const auto& c : p.children()) {
          Frag f = Build(*c, inverted);
          AddEps(whole.in, f.in);
          AddEps(f.out, whole.out);
        }
        return whole;
      }
      case PathOp::kStar: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, f.in);
        AddEps(f.out, whole.out);
        AddEps(whole.in, whole.out);
        return whole;
      }
      case PathOp::kPlus: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, f.in);
        AddEps(f.out, whole.out);
        return whole;
      }
      case PathOp::kOptional: {
        Frag whole = NewFrag();
        Frag f = Build(*p.child(), inverted);
        AddEps(whole.in, f.in);
        AddEps(f.out, whole.out);
        AddEps(whole.in, whole.out);
        return whole;
      }
    }
    return NewFrag();  // unreachable
  }

  /// Epsilon elimination: the final NFA has, for each state, the labeled
  /// out-edges of its epsilon closure, and accepts wherever the closure
  /// contains `top.out`. Refused once the copied edges pass
  /// kMaxNfaTransitions, or the closure walks pass kMaxClosureVisits
  /// states in all. The walks share one stamp array and one queue, so a
  /// walk costs its closure, not a bit per state.
  Result<PathNfa> Finish(Frag top) {
    PathNfa nfa;
    const size_t n = edges_.size();
    nfa.adj.resize(n);
    nfa.accept.assign(n, false);
    nfa.start = top.in;
    // closure_of[r] == q + 1 while r is in the closure of q.
    std::vector<uint32_t> closure_of(n, 0);
    std::vector<uint32_t> queue;
    size_t transitions = 0;
    size_t visits = 0;
    for (uint32_t q = 0; q < n; ++q) {
      auto& adj = nfa.adj[q];
      queue.assign(1, q);
      closure_of[q] = q + 1;
      for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t r = queue[head];
        if (r == top.out) nfa.accept[q] = true;
        transitions += edges_[r].size();
        if (transitions > kMaxNfaTransitions ||
            ++visits > kMaxClosureVisits) {
          return TooLarge();
        }
        adj.insert(adj.end(), edges_[r].begin(), edges_[r].end());
        for (uint32_t nxt : eps_[r]) {
          if (closure_of[nxt] != q + 1) {
            closure_of[nxt] = q + 1;
            queue.push_back(nxt);
          }
        }
      }
      // Distinct epsilon paths can copy the same labeled edge several
      // times; duplicates would multiply product-sweep work.
      std::sort(adj.begin(), adj.end(),
                [](const PathNfa::Edge& a, const PathNfa::Edge& b) {
                  if (a.kind != b.kind) return a.kind < b.kind;
                  if (a.iri != b.iri) return a.iri < b.iri;
                  if (a.to != b.to) return a.to < b.to;
                  return a.negated < b.negated;
                });
      adj.erase(std::unique(adj.begin(), adj.end(),
                            [](const PathNfa::Edge& a, const PathNfa::Edge& b) {
                              return a.kind == b.kind && a.iri == b.iri &&
                                     a.to == b.to && a.negated == b.negated;
                            }),
                adj.end());
    }
    nfa.nullable = nfa.accept[nfa.start];
    return nfa;
  }

 private:
  uint32_t NewState() {
    edges_.emplace_back();
    eps_.emplace_back();
    return static_cast<uint32_t>(edges_.size() - 1);
  }
  Frag NewFrag() { return {NewState(), NewState()}; }
  void AddEdge(uint32_t from, PathNfa::Edge e) {
    edges_[from].push_back(std::move(e));
  }
  void AddEps(uint32_t from, uint32_t to) { eps_[from].push_back(to); }

  std::vector<std::vector<PathNfa::Edge>> edges_;
  std::vector<std::vector<uint32_t>> eps_;
};

/// Successor lists over term ranks (TripleStore::Terms) for one labeled
/// step in the direction a sweep walks it: from the term of rank t the
/// step reaches the ranks targets[offsets[t], offsets[t + 1]).
struct RankSteps {
  std::vector<uint32_t> offsets;  // num_ranks + 1 entries
  std::vector<uint32_t> targets;
};

/// The lists of the triples (x, iri, y), keyed by x and reaching y when
/// `from_subject`, else keyed by y and reaching x; one pass over the
/// ranks of RangeP(iri), which the store built with its indexes.
RankSteps BuildRankSteps(const graph::TripleStore& store, SymbolId iri,
                         bool from_subject, size_t num_ranks) {
  RankSteps d;
  d.offsets.assign(num_ranks + 1, 0);
  const auto [lo, hi] = store.RanksP(iri);
  for (const auto* r = lo; r != hi; ++r) {
    ++d.offsets[from_subject ? r->s : r->o];
  }
  // Running sums make offsets[t] the end of t's list; placing triples
  // back to front then moves it to the start, keeping index order.
  uint32_t total = 0;
  for (uint32_t& end : d.offsets) {
    total += end;
    end = total;
  }
  d.targets.resize(total);
  for (const auto* r = hi; r != lo;) {
    --r;
    const uint32_t key = from_subject ? r->s : r->o;
    d.targets[--d.offsets[key]] = from_subject ? r->o : r->s;
  }
  return d;
}

/// One EvalPathNfa call: its flat step table, rank lists and stamps, and
/// the pairs found so far.
///
/// The product's terms are store terms, indexed by rank in Terms(), so
/// its arrays grow with the store, not the dictionary. The one term that
/// may lie outside is the bound endpoint a sweep starts from (the seed);
/// it takes the rank past the store's, where nothing steps.
class ProductSweep {
 public:
  using Rank = uint32_t;
  using Pairs = std::vector<std::pair<SymbolId, SymbolId>>;

  ProductSweep(const graph::TripleStore& store, const PathNfa& nfa,
               SymbolId s, SymbolId o, uint64_t charged, uint64_t max_steps)
      : store_(store),
        nfa_(nfa),
        terms_(store.Terms()),
        ns_(static_cast<uint32_t>(nfa.num_states())),
        nt_(static_cast<Rank>(store.Terms().size())),
        // Bound s, or nothing bound: forward sweeps. Bound o alone: one
        // backward sweep over the reversed product.
        forward_(s != kInvalidSymbol || o == kInvalidSymbol),
        seed_(forward_ ? s : o),
        o_(o),
        charged_(charged),
        max_steps_(max_steps) {
    size_t num_ranks = nt_;
    if (seed_ != kInvalidSymbol) {
      seed_rank_ = store.RankOf(seed_);
      if (seed_rank_ == kNoRank) seed_rank_ = static_cast<Rank>(num_ranks++);
    }
    // A forward sweep with o bound emits only at o's rank; kNoRank
    // matches none.
    any_o_ = !forward_ || o == kInvalidSymbol;
    if (!any_o_) o_rank_ = o == s ? seed_rank_ : store.RankOf(o);
    BuildSteps(num_ranks);
    visited_.assign(num_ranks * ns_, 0);
    emitted_.assign(num_ranks, 0);
  }

  /// Bound s: one forward sweep from it. Bound o alone: one backward
  /// sweep from it. Nothing bound: one forward sweep per store term.
  void Run() {
    if (forward_) {
      if (seed_ != kInvalidSymbol) {
        Start<true>(seed_rank_, seed_);
        return;
      }
      for (Rank t = 0; t < nt_ && !exhausted_; ++t) Start<true>(t, terms_[t]);
      return;
    }
    Start<false>(seed_rank_, seed_);
  }

  uint64_t charged() const { return charged_; }
  bool exhausted() const { return exhausted_; }
  Pairs TakePairs() { return std::move(out_); }

 private:
  static constexpr Rank kNoRank = graph::TripleStore::kNoRank;
  static constexpr uint32_t kNoList = 0xffffffffu;

  /// A product step out of a state in the sweep's direction: to state
  /// `next`, through a labeled edge's rank list (from rank t, the ranks
  /// targets[offsets[t], offsets[t + 1])), or, when `edge` is set,
  /// through a negated edge's range scan.
  struct Step {
    uint32_t next = 0;
    const uint32_t* offsets = nullptr;
    const uint32_t* targets = nullptr;
    const PathNfa::Edge* edge = nullptr;
  };

  /// The flat step table (state q's steps are table_[first_[q],
  /// first_[q + 1]), in the order of nfa_.adj) and one rank list per
  /// distinct labeled step: a kFwd edge walked forward and a kInv edge
  /// walked backward both go from subject to object, so one list serves
  /// every edge with the same (iri, direction).
  void BuildSteps(size_t num_ranks) {
    first_.assign(ns_ + 1, 0);
    for (uint32_t q = 0; q < ns_; ++q) {
      for (const auto& e : nfa_.adj[q]) ++first_[(forward_ ? q : e.to) + 1];
    }
    for (uint32_t q = 0; q < ns_; ++q) first_[q + 1] += first_[q];
    table_.resize(first_[ns_]);
    std::vector<uint32_t> fill(first_.begin(), first_.end() - 1);
    std::vector<uint32_t> list_of(table_.size(), kNoList);
    std::vector<std::pair<SymbolId, bool>> keys;  // (iri, from_subject)
    for (uint32_t q = 0; q < ns_; ++q) {
      for (const auto& e : nfa_.adj[q]) {
        const uint32_t k = fill[forward_ ? q : e.to]++;
        table_[k].next = forward_ ? e.to : q;
        if (e.kind != PathNfa::EdgeKind::kFwd &&
            e.kind != PathNfa::EdgeKind::kInv) {
          table_[k].edge = &e;
          continue;
        }
        const std::pair<SymbolId, bool> key = {e.iri,
                                               StepFromSubject(e, forward_)};
        list_of[k] = static_cast<uint32_t>(
            std::find(keys.begin(), keys.end(), key) - keys.begin());
        if (list_of[k] == keys.size()) keys.push_back(key);
      }
    }
    lists_.reserve(keys.size());
    for (const auto& [iri, from_subject] : keys) {
      lists_.push_back(BuildRankSteps(store_, iri, from_subject, num_ranks));
    }
    for (size_t k = 0; k < table_.size(); ++k) {
      if (list_of[k] == kNoList) continue;
      table_[k].offsets = lists_[list_of[k]].offsets.data();
      table_[k].targets = lists_[list_of[k]].targets.data();
    }
    // A forward sweep emits (seed, y) at every accepting node, the seed
    // included (zero-length matches when nullable); a backward sweep
    // reaching the start state at x emits (x, o).
    emits_.resize(ns_);
    for (uint32_t q = 0; q < ns_; ++q) {
      emits_[q] = forward_ ? nfa_.accept[q] : q == nfa_.start;
    }
  }

  /// One sweep from the term of rank `t` (id `from`) with fresh stamps:
  /// forward from the start state, or backward from every accepting one.
  /// The loop reads the stamps, the budget and the step table through
  /// locals.
  template <bool kForward>
  void Start(Rank t, SymbolId from) {
    const uint32_t epoch = ++epoch_;
    const uint32_t ns = ns_;
    uint32_t* const visited = visited_.data();
    uint32_t* const emitted = emitted_.data();
    const uint8_t* const emits = emits_.data();
    const uint32_t* const first = first_.data();
    const Step* const table = table_.data();
    const bool any_o = any_o_;
    const Rank o_rank = o_rank_;
    const uint64_t max_steps = max_steps_;
    const SymbolId* const terms = terms_.data();
    const Rank nt = nt_;
    const SymbolId seed = seed_;
    const SymbolId o = o_;
    uint64_t charged = charged_;
    bool exhausted = false;
    auto id_of = [&](Rank r) { return r < nt ? terms[r] : seed; };
    work_.clear();
    // Marks (term, state) visited, charging one step when it is new; a
    // sweep stops at the first node past the budget.
    auto visit = [&](Rank term, uint32_t state) __attribute__((always_inline)) {
      uint32_t& stamp = visited[static_cast<size_t>(term) * ns + state];
      if (stamp == epoch) return;
      if (++charged > max_steps) {
        exhausted = true;
        return;
      }
      stamp = epoch;
      work_.emplace_back(term, state);
      if (!emits[state] || (kForward && !any_o && term != o_rank) ||
          emitted[term] == epoch) {
        return;
      }
      emitted[term] = epoch;
      if (kForward) {
        out_.emplace_back(from, id_of(term));
      } else {
        out_.emplace_back(id_of(term), o);
      }
    };
    if (kForward) {
      visit(t, nfa_.start);
    } else {
      for (uint32_t q = 0; q < ns; ++q) {
        if (nfa_.accept[q]) visit(t, q);
      }
    }
    // Traversal order is immaterial for reachability, so the worklist
    // is a stack.
    while (!work_.empty() && !exhausted) {
      const auto [term, state] = work_.back();
      work_.pop_back();
      for (const Step* st = table + first[state];
           st != table + first[state + 1]; ++st) {
        if (st->edge == nullptr) {
          for (uint32_t i = st->offsets[term]; i < st->offsets[term + 1];
               ++i) {
            visit(st->targets[i], st->next);
          }
        } else {
          ForEachStep(store_, *st->edge, kForward, id_of(term),
                      [&](SymbolId y, const graph::Triple&) {
                        visit(store_.RankOf(y), st->next);
                      });
        }
      }
    }
    charged_ = charged;
    exhausted_ = exhausted;
  }

  const graph::TripleStore& store_;
  const PathNfa& nfa_;
  const std::vector<SymbolId>& terms_;
  const uint32_t ns_;
  const Rank nt_;
  const bool forward_;
  const SymbolId seed_;  // kInvalidSymbol: a sweep per store term
  const SymbolId o_;
  Rank seed_rank_ = kNoRank;
  Rank o_rank_ = kNoRank;
  bool any_o_ = true;

  std::vector<uint32_t> first_;
  std::vector<Step> table_;
  std::vector<RankSteps> lists_;
  std::vector<uint8_t> emits_;

  // Epoch stamps over (rank x state) and over ranks replace per-sweep
  // sets.
  std::vector<uint32_t> visited_;
  std::vector<uint32_t> emitted_;
  uint32_t epoch_ = 0;
  std::vector<std::pair<Rank, uint32_t>> work_;
  uint64_t charged_;
  const uint64_t max_steps_;
  bool exhausted_ = false;
  Pairs out_;
};

}  // namespace

Result<PathNfa> CompilePathNfa(const Path& path) {
  // The closure of each fragment's entry state reaches a step, so every
  // other state writes at least one transition: a path with more states
  // than twice the cap cannot fit, and is refused before it is built.
  if (StatesOf(path) > 2 * kMaxNfaTransitions) return TooLarge();
  NfaBuilder b;
  NfaBuilder::Frag top = b.Build(path, /*inverted=*/false);
  return b.Finish(top);
}

Result<std::vector<std::pair<SymbolId, SymbolId>>> EvalPathNfa(
    const graph::TripleStore& store, const PathNfa& nfa, SymbolId s,
    SymbolId o, uint64_t* steps, uint64_t max_steps) {
  if (nfa.num_states() == 0) return ProductSweep::Pairs{};
  ProductSweep sweep(store, nfa, s, o, *steps, max_steps);
  sweep.Run();
  *steps = sweep.charged();
  if (sweep.exhausted()) {
    return Status::ResourceExhausted("evaluation exceeded " +
                                     std::to_string(max_steps) + " steps");
  }
  return sweep.TakePairs();
}

}  // namespace rwdt::paths
