#include "exec/operators.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace rwdt::exec {
namespace {

/// Renders one pattern term for Explain output. Variable names are
/// interned with their leading "?" already.
std::string TermString(const sparql::Term& t, const Interner& dict) {
  if (t.kind == sparql::Term::Kind::kNone) return "_";
  return std::string(dict.Name(t.id));
}

std::string TripleString(const sparql::TriplePattern& t,
                         const Interner& dict) {
  return TermString(t.s, dict) + " " + TermString(t.p, dict) + " " +
         TermString(t.o, dict);
}

SymbolId ConstantOrWildcard(const sparql::Term& t) {
  return t.ActsAsVar() ? kInvalidSymbol : t.id;
}

/// The narrowest index range holding every match of (s, p, o), where
/// kInvalidSymbol is a wildcard; callers still test each triple.
graph::TripleStore::TripleRange MatchRange(const graph::TripleStore& store,
                                           SymbolId s, SymbolId p,
                                           SymbolId o) {
  if (s != kInvalidSymbol) {
    return p != kInvalidSymbol ? store.RangeSP(s, p) : store.RangeS(s);
  }
  if (o != kInvalidSymbol) {
    return p != kInvalidSymbol ? store.RangePO(p, o) : store.RangeO(o);
  }
  if (p != kInvalidSymbol) return store.RangeP(p);
  const std::vector<graph::Triple>& all = store.triples();
  return {all.data(), all.data() + all.size()};
}

/// Evaluator::EvalTriple's bindings as rows, straight from the store's
/// index ranges; shared by the scan and the Yannakakis relation loader.
void ScanTriple(const graph::TripleStore& store, const SlotLayout& layout,
                const sparql::TriplePattern& t, RowBuffer* out) {
  const SymbolId s = ConstantOrWildcard(t.s);
  const SymbolId p = ConstantOrWildcard(t.p);
  const SymbolId o = ConstantOrWildcard(t.o);
  const uint32_t s_slot = layout.SlotOf(t.s);
  const uint32_t p_slot = layout.SlotOf(t.p);
  const uint32_t o_slot = layout.SlotOf(t.o);
  // A variable at two positions (`?x p ?x`) binds one slot, so a triple
  // must hold one value at both. Decided once per scan: position i
  // repeats position same[i] (itself when it repeats none), and
  // `?x ?x ?x` chains o to p to s.
  const uint32_t slots[3] = {s_slot, p_slot, o_slot};
  size_t same[3] = {0, 1, 2};
  for (size_t i = 1; i < 3; ++i) {
    if (slots[i] == kNoSlot) continue;
    if (slots[i - 1] == slots[i]) {
      same[i] = i - 1;
    } else if (slots[0] == slots[i]) {
      same[i] = 0;
    }
  }
  const bool repeats = same[1] != 1 || same[2] != 2;
  const auto [lo, hi] = MatchRange(store, s, p, o);
  for (const graph::Triple* tr = lo; tr != hi; ++tr) {
    const SymbolId v[3] = {tr->s, tr->p, tr->o};
    if ((s != kInvalidSymbol && v[0] != s) ||
        (p != kInvalidSymbol && v[1] != p) ||
        (o != kInvalidSymbol && v[2] != o) ||
        (repeats && (v[same[1]] != v[1] || v[same[2]] != v[2]))) {
      continue;
    }
    SymbolId* row = out->Append();
    for (size_t i = 0; i < 3; ++i) {
      if (slots[i] != kNoSlot) row[slots[i]] = v[i];
    }
  }
}

/// Evaluator::EvalPath's bindings as rows, from a pair set. `?x p* ?x`
/// binds one slot, so only pairs that start where they end are kept.
void BindPathPairs(const std::vector<std::pair<SymbolId, SymbolId>>& pairs,
                   const SlotLayout& layout, const sparql::PathTriple& p,
                   RowBuffer* out) {
  const uint32_t s_slot = layout.SlotOf(p.s);
  const uint32_t o_slot = layout.SlotOf(p.o);
  const bool repeat = s_slot != kNoSlot && s_slot == o_slot;
  for (const auto& [x, y] : pairs) {
    if (repeat && x != y) continue;
    SymbolId* row = out->Append();
    if (s_slot != kNoSlot) row[s_slot] = x;
    if (o_slot != kNoSlot) row[o_slot] = y;
  }
}

std::vector<uint32_t> SlotsOf(const SlotLayout& layout,
                              const std::vector<SymbolId>& vars) {
  std::vector<uint32_t> slots;
  slots.reserve(vars.size());
  for (SymbolId v : vars) slots.push_back(layout.SlotOf(v));
  return slots;
}

/// Hash joins key on variables the planner guarantees are bound in
/// every row; a key slot the layout lacks or a row leaves unbound is a
/// planner bug, not a data condition.
Status NonDefiniteKey() {
  return Status::Internal("hash join planned over a non-definite variable");
}

bool KeyBound(const SymbolId* row, const std::vector<uint32_t>& slots) {
  return std::none_of(slots.begin(), slots.end(), [row](uint32_t slot) {
    return row[slot] == kInvalidSymbol;
  });
}

void ExplainJoinVars(const std::vector<SymbolId>& vars, const Interner& dict,
                     JsonWriter* w) {
  w->Key("join_vars").BeginArray();
  for (SymbolId v : vars) w->String(dict.Name(v));
  w->EndArray();
}

}  // namespace

// --- Rows ------------------------------------------------------------

SlotLayout::SlotLayout(const std::set<SymbolId>& vars)
    : vars_(vars.begin(), vars.end()) {}

uint32_t SlotLayout::SlotOf(SymbolId var) const {
  const auto it = std::lower_bound(vars_.begin(), vars_.end(), var);
  if (it == vars_.end() || *it != var) return kNoSlot;
  return static_cast<uint32_t>(it - vars_.begin());
}

void SlotLayout::ToBinding(const SymbolId* row, Binding* mu) const {
  // Slots ascend with variable ids, so the bound slots are the mapping's
  // pairs in order, written once; more than the inline pairs take one
  // heap block of exactly their number.
  const size_t width = vars_.size();
  const size_t bound = static_cast<size_t>(
      width - std::count(row, row + width, kInvalidSymbol));
  mu->assign_sorted(bound, [&](Binding::value_type* out) {
    for (size_t i = 0; i < width; ++i) {
      if (row[i] != kInvalidSymbol) *out++ = {vars_[i], row[i]};
    }
    return bound;
  });
}

void RowBuffer::Grow() {
  const size_t capacity = std::max((rows_ + 1) * width_, 2 * capacity_);
  std::unique_ptr<SymbolId[]> grown(new SymbolId[capacity]);
  std::copy_n(ids_.get(), rows_ * width_, grown.get());
  ids_ = std::move(grown);
  capacity_ = capacity;
}

void RowBuffer::RowOutOfRange(size_t i, size_t rows) {
  std::fprintf(stderr, "RowBuffer: row %zu read past the last of %zu rows\n",
               i, rows);
  std::abort();
}

bool CompatibleRows(const SymbolId* a, const SymbolId* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (a[i] != kInvalidSymbol && b[i] != kInvalidSymbol && a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

void MergeRows(const SymbolId* a, const SymbolId* b, size_t width,
               SymbolId* out) {
  for (size_t i = 0; i < width; ++i) {
    out[i] = a[i] != kInvalidSymbol ? a[i] : b[i];
  }
}

// --- JoinIndex -------------------------------------------------------

namespace {

uint64_t KeyHash(const SymbolId* row, const std::vector<uint32_t>& slots) {
  uint64_t h = 0;
  for (uint32_t slot : slots) {
    h = (h ^ row[slot]) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

Status JoinIndex::Build(const RowBuffer& rows,
                        const std::vector<uint32_t>& key_slots) {
  if (rows.size() >= kEnd) {
    return Status::ResourceExhausted("join input exceeds 2^32 rows");
  }
  rows_ = &rows;
  key_slots_ = key_slots;
  // Power-of-two bucket count, at least twice the rows: short chains.
  size_t buckets = 1;
  while (buckets < 2 * rows.size()) buckets <<= 1;
  mask_ = buckets - 1;
  heads_.assign(buckets, kEnd);
  next_.resize(rows.size());
  // Insert back to front so each chain lists its rows in input order.
  for (size_t i = rows.size(); i-- > 0;) {
    const SymbolId* row = rows[i];
    if (!KeyBound(row, key_slots_)) return NonDefiniteKey();
    uint32_t& head = heads_[KeyHash(row, key_slots_) & mask_];
    next_[i] = head;
    head = static_cast<uint32_t>(i);
  }
  return Status::Ok();
}

uint32_t JoinIndex::Match(uint32_t row, const SymbolId* probe) const {
  for (; row != kEnd; row = next_[row]) {
    const SymbolId* candidate = (*rows_)[row];
    const bool equal = std::all_of(
        key_slots_.begin(), key_slots_.end(),
        [&](uint32_t slot) { return candidate[slot] == probe[slot]; });
    if (equal) return row;
  }
  return kEnd;
}

uint32_t JoinIndex::First(const SymbolId* probe) const {
  return Match(heads_[KeyHash(probe, key_slots_) & mask_], probe);
}

uint32_t JoinIndex::Next(uint32_t row, const SymbolId* probe) const {
  return Match(next_[row], probe);
}

// --- Operator --------------------------------------------------------

Result<std::vector<Binding>> Operator::Drain() {
  RowBuffer rows(width());
  RWDT_RETURN_IF_ERROR(Fill(&rows));
  std::vector<Binding> out;
  out.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    layout_->ToBinding(rows[i], &out.emplace_back());
  }
  return out;
}

// --- TripleScanOp ----------------------------------------------------

TripleScanOp::TripleScanOp(LayoutPtr layout, const graph::TripleStore& store,
                           const Interner& dict,
                           sparql::TriplePattern pattern)
    : Operator(std::move(layout)),
      store_(store),
      dict_(dict),
      pattern_(std::move(pattern)) {}

Status TripleScanOp::Fill(RowBuffer* out) {
  ScanTriple(store_, layout(), pattern_, out);
  return Status::Ok();
}

void TripleScanOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->StringField("pattern", TripleString(pattern_, dict_));
  w->EndObject();
}

// --- PathScanOp ------------------------------------------------------

PathScanOp::PathScanOp(LayoutPtr layout, const sparql::Evaluator& eval,
                       const Interner& dict, sparql::PathTriple pattern,
                       paths::PathNfa nfa)
    : Operator(std::move(layout)),
      eval_(eval),
      dict_(dict),
      pattern_(std::move(pattern)),
      nfa_(std::move(nfa)) {}

Status PathScanOp::Fill(RowBuffer* out) {
  RWDT_ASSIGN_OR_RETURN(const auto pairs,
                        eval_.EvalPathPairs(nfa_,
                                            ConstantOrWildcard(pattern_.s),
                                            ConstantOrWildcard(pattern_.o)));
  BindPathPairs(pairs, layout(), pattern_, out);
  return Status::Ok();
}

void PathScanOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->StringField("pattern", TermString(pattern_.s, dict_) + " " +
                                pattern_.path->ToString(dict_) + " " +
                                TermString(pattern_.o, dict_));
  w->UIntField("nfa_states", nfa_.num_states());
  w->EndObject();
}

// --- HashJoinOp ------------------------------------------------------

HashJoinOp::HashJoinOp(LayoutPtr layout, OperatorPtr left, OperatorPtr right,
                       std::vector<SymbolId> join_vars, const Interner& dict,
                       bool left_outer)
    : Operator(std::move(layout)),
      left_(std::move(left)),
      right_(std::move(right)),
      join_vars_(std::move(join_vars)),
      join_slots_(SlotsOf(*layout_, join_vars_)),
      dict_(dict),
      left_outer_(left_outer),
      build_(width()),
      probe_(width()) {}

Status HashJoinOp::Fill(RowBuffer* out) {
  if (std::find(join_slots_.begin(), join_slots_.end(), kNoSlot) !=
      join_slots_.end()) {
    return NonDefiniteKey();
  }
  build_.Clear();
  RWDT_RETURN_IF_ERROR(right_->Fill(&build_));
  RWDT_RETURN_IF_ERROR(index_.Build(build_, join_slots_));
  probe_.Clear();
  RWDT_RETURN_IF_ERROR(left_->Fill(&probe_));
  const size_t w = width();
  for (size_t i = 0; i < probe_.size(); ++i) {
    const SymbolId* row = probe_[i];
    uint32_t match = index_.First(row);
    if (match == JoinIndex::kEnd) {
      // Every indexed key is bound, so only a probe that matched nothing
      // can leave a key slot unbound.
      if (!KeyBound(row, join_slots_)) return NonDefiniteKey();
      if (left_outer_) std::copy_n(row, w, out->Append());
      continue;
    }
    for (; match != JoinIndex::kEnd; match = index_.Next(match, row)) {
      MergeRows(row, build_[match], w, out->Append());
    }
  }
  return Status::Ok();
}

void HashJoinOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  ExplainJoinVars(join_vars_, dict_, w);
  w->Key("left");
  left_->Explain(w);
  w->Key("right");
  right_->Explain(w);
  w->EndObject();
}

// --- NestedLoopJoinOp ------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(LayoutPtr layout, OperatorPtr left,
                                   OperatorPtr right, bool left_outer)
    : Operator(std::move(layout)),
      left_(std::move(left)),
      right_(std::move(right)),
      left_outer_(left_outer),
      build_(width()),
      probe_(width()) {}

Status NestedLoopJoinOp::Fill(RowBuffer* out) {
  build_.Clear();
  RWDT_RETURN_IF_ERROR(right_->Fill(&build_));
  probe_.Clear();
  RWDT_RETURN_IF_ERROR(left_->Fill(&probe_));
  const size_t w = width();
  for (size_t i = 0; i < probe_.size(); ++i) {
    const SymbolId* row = probe_[i];
    bool matched = false;
    for (size_t j = 0; j < build_.size(); ++j) {
      const SymbolId* other = build_[j];
      if (CompatibleRows(row, other, w)) {
        matched = true;
        MergeRows(row, other, w, out->Append());
      }
    }
    if (left_outer_ && !matched) std::copy_n(row, w, out->Append());
  }
  return Status::Ok();
}

void NestedLoopJoinOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("left");
  left_->Explain(w);
  w->Key("right");
  right_->Explain(w);
  w->EndObject();
}

// --- FilterOp --------------------------------------------------------

FilterOp::FilterOp(LayoutPtr layout, OperatorPtr child,
                   const sparql::Query& query,
                   const sparql::FilterExpr& filter,
                   const sparql::Evaluator& eval)
    : Operator(std::move(layout)),
      child_(std::move(child)),
      query_(query),
      filter_(filter),
      eval_(eval) {}

Status FilterOp::Fill(RowBuffer* out) {
  const size_t first = out->size();
  RWDT_RETURN_IF_ERROR(child_->Fill(out));
  const size_t w = width();
  const SymbolId* row = nullptr;
  const sparql::VarLookup value_of = [&](SymbolId var) {
    const uint32_t slot = layout().SlotOf(var);
    return slot == kNoSlot ? kInvalidSymbol : row[slot];
  };
  size_t kept = first;
  for (size_t i = first; i < out->size(); ++i) {
    row = std::as_const(*out)[i];
    RWDT_ASSIGN_OR_RETURN(const bool pass,
                          eval_.EvalFilter(query_, filter_, value_of));
    if (!pass) continue;
    if (kept != i) std::copy_n(row, w, (*out)[kept]);
    ++kept;
  }
  out->Truncate(kept);
  return Status::Ok();
}

void FilterOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("child");
  child_->Explain(w);
  w->EndObject();
}

// --- YannakakisOp ----------------------------------------------------

JoinForest BuildJoinForest(const std::vector<std::set<SymbolId>>& varsets) {
  const size_t n = varsets.size();
  JoinForest forest;
  forest.parent.assign(n, -1);
  if (n <= 1) {
    forest.ok = true;
    return forest;
  }
  std::vector<bool> removed(n, false);
  for (size_t round = 0; round + 1 < n; ++round) {
    bool found = false;
    for (size_t i = 0; i < n && !found; ++i) {
      if (removed[i]) continue;
      // Boundary: variables of i shared with any other live relation.
      std::set<SymbolId> boundary;
      for (size_t k = 0; k < n; ++k) {
        if (k == i || removed[k]) continue;
        for (SymbolId v : varsets[i]) {
          if (varsets[k].count(v) > 0) boundary.insert(v);
        }
      }
      for (size_t j = 0; j < n; ++j) {
        if (j == i || removed[j]) continue;
        const bool covers = std::includes(
            varsets[j].begin(), varsets[j].end(), boundary.begin(),
            boundary.end());
        if (covers) {
          forest.parent[i] = static_cast<int>(j);
          forest.order.push_back(i);
          removed[i] = true;
          found = true;
          break;
        }
      }
    }
    if (!found) return forest;  // cyclic: no ear
  }
  forest.ok = true;
  return forest;
}

namespace {

std::vector<uint32_t> SharedSlots(const SlotLayout& layout,
                                  const std::set<SymbolId>& a,
                                  const std::set<SymbolId>& b) {
  std::vector<SymbolId> shared;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(shared));
  return SlotsOf(layout, shared);
}

/// rel := rel semijoin other (keep rows with >= 1 partner on `slots`).
Status Semijoin(RowBuffer* rel, const RowBuffer& other,
                const std::vector<uint32_t>& slots, JoinIndex* index) {
  RWDT_RETURN_IF_ERROR(index->Build(other, slots));
  const size_t width = rel->width();
  size_t kept = 0;
  for (size_t i = 0; i < rel->size(); ++i) {
    const SymbolId* row = std::as_const(*rel)[i];
    if (index->First(row) == JoinIndex::kEnd) continue;
    if (kept != i) std::copy_n(row, width, (*rel)[kept]);
    ++kept;
  }
  rel->Truncate(kept);
  return Status::Ok();
}

}  // namespace

YannakakisOp::YannakakisOp(LayoutPtr layout, const graph::TripleStore& store,
                           const Interner& dict,
                           std::vector<sparql::TriplePattern> triples)
    : Operator(std::move(layout)),
      store_(store),
      dict_(dict),
      triples_(std::move(triples)),
      acc_(width()),
      next_acc_(width()) {
  const size_t n = triples_.size();
  std::vector<std::set<SymbolId>> varsets(n);
  for (size_t i = 0; i < n; ++i) {
    for (const sparql::Term* term :
         {&triples_[i].s, &triples_[i].p, &triples_[i].o}) {
      if (term->ActsAsVar()) varsets[i].insert(term->id);
    }
  }
  forest_ = BuildJoinForest(varsets);
  if (!forest_.ok || n == 0) return;  // Fill handles both

  for (size_t i = 0; i < n; ++i) {
    if (forest_.parent[i] == -1) root_ = i;
  }
  parent_slots_.resize(n);
  join_slots_.resize(n);
  for (size_t i : forest_.order) {
    parent_slots_[i] =
        SharedSlots(*layout_, varsets[i],
                    varsets[static_cast<size_t>(forest_.parent[i])]);
  }
  // The join runs root first, in reverse removal order. The GYO ear
  // property keeps each relation's overlap with the accumulated result
  // inside its parent's variables, so every join is a definite-key
  // hash join.
  std::set<SymbolId> acc_vars = varsets[root_];
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    join_slots_[*it] = SharedSlots(*layout_, varsets[*it], acc_vars);
    acc_vars.insert(varsets[*it].begin(), varsets[*it].end());
  }
  rel_.reserve(n);
  for (size_t i = 0; i < n; ++i) rel_.emplace_back(width());
}

Status YannakakisOp::Fill(RowBuffer* out) {
  if (!forest_.ok) {
    return Status::Internal("yannakakis planned for a cyclic join");
  }
  const size_t n = triples_.size();
  if (n == 0) {
    out->Append();  // the join identity: one empty mapping
    return Status::Ok();
  }
  if (n == 1) {
    ScanTriple(store_, layout(), triples_[0], out);
    return Status::Ok();
  }

  for (size_t i = 0; i < n; ++i) {
    rel_[i].Clear();
    ScanTriple(store_, layout(), triples_[i], &rel_[i]);
  }

  // Semijoin reduction: leaves to root, then root to leaves. Removal
  // order guarantees every child of i has already reduced rel_[i] when i
  // reduces its own parent.
  for (size_t i : forest_.order) {
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    RWDT_RETURN_IF_ERROR(
        Semijoin(&rel_[j], rel_[i], parent_slots_[i], &index_));
  }
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    const size_t i = *it;
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    RWDT_RETURN_IF_ERROR(
        Semijoin(&rel_[i], rel_[j], parent_slots_[i], &index_));
  }

  // Join along the forest, root first; the last join writes to `out`.
  const RowBuffer* acc = &rel_[root_];
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    if (acc->empty()) break;
    const bool last = std::next(it) == forest_.order.rend();
    RowBuffer* dst = last ? out : &next_acc_;
    if (!last) next_acc_.Clear();
    const RowBuffer& rel = rel_[*it];
    RWDT_RETURN_IF_ERROR(index_.Build(rel, join_slots_[*it]));
    for (size_t a = 0; a < acc->size(); ++a) {
      const SymbolId* row = (*acc)[a];
      for (uint32_t r = index_.First(row); r != JoinIndex::kEnd;
           r = index_.Next(r, row)) {
        MergeRows(row, rel[r], width(), dst->Append());
      }
    }
    if (!last) {
      std::swap(acc_, next_acc_);
      acc = &acc_;
    }
  }
  return Status::Ok();
}

void YannakakisOp::Explain(JsonWriter* w) const {
  w->BeginObject();
  w->StringField("op", Name());
  w->Key("relations").BeginArray();
  for (const auto& t : triples_) w->String(TripleString(t, dict_));
  w->EndArray();
  w->EndObject();
}

}  // namespace rwdt::exec
