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

/// Writes the values of a pattern's variable positions into rows: the
/// (position, slot) pairs are decided once per scan, so a row costs one
/// store per variable position and no test.
class SlotWriter {
 public:
  /// `slots[i]` is the slot of position i, kNoSlot for a constant. A
  /// position that repeats an earlier one's slot writes nothing more.
  SlotWriter(const uint32_t* slots, size_t positions) {
    for (size_t i = 0; i < positions; ++i) {
      if (slots[i] == kNoSlot ||
          std::find(slots, slots + i, slots[i]) != slots + i) {
        continue;
      }
      pos_[n_] = static_cast<uint8_t>(i);
      slot_[n_++] = slots[i];
    }
  }
  void Write(const SymbolId* values, SymbolId* row) const {
    for (size_t k = 0; k < n_; ++k) row[slot_[k]] = values[pos_[k]];
  }

 private:
  size_t n_ = 0;
  uint8_t pos_[3] = {};
  uint32_t slot_[3] = {};
};

/// Evaluator::EvalTriple's bindings as rows, straight from the store's
/// index ranges; shared by the scan and the Yannakakis relation loader.
/// The rows are appended as one unbound batch as long as the range, and
/// the batch is cut to the rows kept.
void ScanTriple(const graph::TripleStore& store, const SlotLayout& layout,
                const sparql::TriplePattern& t, RowBuffer* out) {
  const SymbolId s = ConstantOrWildcard(t.s);
  const SymbolId p = ConstantOrWildcard(t.p);
  const SymbolId o = ConstantOrWildcard(t.o);
  // A variable at two positions (`?x p ?x`) binds one slot, so a triple
  // must hold one value at both. Decided once per scan: position i
  // repeats position same[i] (itself when it repeats none), and
  // `?x ?x ?x` chains o to p to s.
  const uint32_t slots[3] = {layout.SlotOf(t.s), layout.SlotOf(t.p),
                             layout.SlotOf(t.o)};
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
  const SlotWriter writer(slots, 3);
  const auto [lo, hi] = MatchRange(store, s, p, o);
  const size_t first = out->size();
  const size_t w = out->width();
  SymbolId* row = out->AppendUnbound(static_cast<size_t>(hi - lo));
  size_t kept = 0;
  for (const graph::Triple* tr = lo; tr != hi; ++tr) {
    const SymbolId v[3] = {tr->s, tr->p, tr->o};
    if ((s != kInvalidSymbol && v[0] != s) ||
        (p != kInvalidSymbol && v[1] != p) ||
        (o != kInvalidSymbol && v[2] != o) ||
        (repeats && (v[same[1]] != v[1] || v[same[2]] != v[2]))) {
      continue;
    }
    writer.Write(v, row + kept * w);
    ++kept;
  }
  out->Truncate(first + kept);
}

/// Evaluator::EvalPath's bindings as rows, from a pair set, appended as
/// one unbound batch. `?x p* ?x` binds one slot, so only pairs that
/// start where they end are kept.
void BindPathPairs(const std::vector<std::pair<SymbolId, SymbolId>>& pairs,
                   const SlotLayout& layout, const sparql::PathTriple& p,
                   RowBuffer* out) {
  const uint32_t slots[2] = {layout.SlotOf(p.s), layout.SlotOf(p.o)};
  const bool repeat = slots[0] != kNoSlot && slots[0] == slots[1];
  const SlotWriter writer(slots, 2);
  const size_t first = out->size();
  const size_t w = out->width();
  SymbolId* row = out->AppendUnbound(pairs.size());
  size_t kept = 0;
  for (const auto& [x, y] : pairs) {
    if (repeat && x != y) continue;
    const SymbolId v[2] = {x, y};
    writer.Write(v, row + kept * w);
    ++kept;
  }
  out->Truncate(first + kept);
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

SymbolId* RowBuffer::AppendUnbound(size_t n) {
  if (rows_ + n > capacity_) Grow(rows_ + n);
  SymbolId* first = ids_.get() + rows_ * width_;
  std::fill_n(first, n * width_, kInvalidSymbol);
  rows_ += n;
  return first;
}

void RowBuffer::Grow(size_t rows) {
  const size_t capacity = std::max(rows, 2 * capacity_);
  std::unique_ptr<SymbolId[]> grown(new SymbolId[capacity * width_]);
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

Status JoinIndex::Build(const RowBuffer& rows,
                        const std::vector<uint32_t>& key_slots) {
  if (rows.size() >= 0xffffffffu) {
    return Status::ResourceExhausted("join input exceeds 2^32 rows");
  }
  rows_ = &rows;
  key_slots_ = key_slots;
  const size_t n = rows.size();
  // Power-of-two bucket count, at least the rows: about one entry a
  // bucket.
  size_t buckets = 1;
  while (buckets < n) buckets <<= 1;
  mask_ = buckets - 1;
  // Count the entries of each bucket, turn the counts into bucket ends,
  // then place rows back to front, which leaves each bucket's start in
  // starts_ and its rows in input order.
  starts_.assign(buckets + 1, 0);
  hashes_.resize(n);
  entries_.resize(n);
  const bool one_slot = key_slots_.size() == 1;
  if (one_slot) {
    const uint32_t slot = key_slots_[0];
    for (size_t i = 0; i < n; ++i) {
      const SymbolId key = rows[i][slot];
      if (key == kInvalidSymbol) return NonDefiniteKey();
      hashes_[i] = Mix(0, key);
      ++starts_[hashes_[i] & mask_];
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const SymbolId* row = rows[i];
      if (!KeyBound(row, key_slots_)) return NonDefiniteKey();
      hashes_[i] = KeyHash(row);
      ++starts_[hashes_[i] & mask_];
    }
  }
  uint32_t total = 0;
  for (uint32_t& end : starts_) {
    total += end;
    end = total;
  }
  // An entry's key is the id itself for a one-slot key, else the tag.
  for (size_t i = n; i-- > 0;) {
    const uint64_t h = hashes_[i];
    const SymbolId key = one_slot ? rows[i][key_slots_[0]] : Tag(h);
    entries_[--starts_[h & mask_]] = {key, static_cast<uint32_t>(i)};
  }
  return Status::Ok();
}

bool JoinIndex::Contains(const SymbolId* probe) const {
  if (key_slots_.size() == 1) {
    const SymbolId key = probe[key_slots_[0]];
    const auto [lo, hi] = BucketOf(Mix(0, key));
    return std::any_of(lo, hi, [key](const Entry& e) { return e.key == key; });
  }
  const uint64_t hash = KeyHash(probe);
  const auto [lo, hi] = BucketOf(hash);
  return std::any_of(lo, hi, [&](const Entry& e) {
    return e.key == Tag(hash) && KeyEquals(e.row, probe);
  });
}

// --- Operator --------------------------------------------------------

namespace {

/// Sorted, distinct, and without kNoSlot.
std::vector<uint32_t> SlotSet(std::vector<uint32_t> slots) {
  slots.erase(std::remove(slots.begin(), slots.end(), kNoSlot), slots.end());
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

std::vector<uint32_t> UnionOf(const Operator& a, const Operator& b) {
  std::vector<uint32_t> out;
  std::set_union(a.slots().begin(), a.slots().end(), b.slots().begin(),
                 b.slots().end(), std::back_inserter(out));
  return out;
}

/// The probe loop of a hash join, for rows of `width` (WithWidth): each
/// match is written once, as the probe row followed by the build row's
/// values at `build_only` slots; `shared` slots (no planned tree has
/// any) take the build's value where the probe leaves them unbound. A
/// probe row with no match is kept unchanged when `left_outer`.
template <typename Width>
Status ProbeJoin(Width width, const RowBuffer& probe, const RowBuffer& build,
                 const JoinIndex& index, const std::vector<uint32_t>& keys,
                 const std::vector<uint32_t>& build_only,
                 const std::vector<uint32_t>& shared, bool left_outer,
                 RowBuffer* out) {
  for (size_t i = 0; i < probe.size(); ++i) {
    const SymbolId* row = probe[i];
    bool matched = false;
    index.ForEachMatch(row, [&](uint32_t match) {
      matched = true;
      SymbolId* dst = out->AppendRow();
      CopyRow(width, row, dst);
      const SymbolId* other = build[match];
      for (uint32_t slot : build_only) dst[slot] = other[slot];
      for (uint32_t slot : shared) {
        if (dst[slot] == kInvalidSymbol) dst[slot] = other[slot];
      }
    });
    if (matched) continue;
    // Every indexed key is bound, so only a probe that matched nothing
    // can leave a key slot unbound.
    if (!KeyBound(row, keys)) return NonDefiniteKey();
    if (left_outer) CopyRow(width, row, out->AppendRow());
  }
  return Status::Ok();
}

/// Keeps the rows of `rows` from `first` on for which `keep(row)` holds,
/// moved down in order over the dropped ones.
template <typename Keep>
void CompactRows(RowBuffer* rows, size_t first, Keep&& keep) {
  WithWidth(rows->width(), [&](auto width) {
    size_t kept = first;
    for (size_t i = first; i < rows->size(); ++i) {
      const SymbolId* row = std::as_const(*rows)[i];
      if (!keep(row)) continue;
      if (kept != i) CopyRow(width, row, (*rows)[kept]);
      ++kept;
    }
    rows->Truncate(kept);
  });
}

}  // namespace

Operator::Operator(LayoutPtr layout, std::vector<uint32_t> slots)
    : layout_(std::move(layout)), slots_(SlotSet(std::move(slots))) {}

Result<std::vector<Binding>> Operator::Drain() {
  RowBuffer rows(width());
  RWDT_RETURN_IF_ERROR(Fill(&rows));
  std::vector<Binding> out;
  out.reserve(rows.size());
  WithWidth(width(), [&](auto w) {
    for (size_t i = 0; i < rows.size(); ++i) {
      layout_->ToBinding(w, rows[i], &out.emplace_back());
    }
  });
  return out;
}

// --- TripleScanOp ----------------------------------------------------

TripleScanOp::TripleScanOp(LayoutPtr layout, const graph::TripleStore& store,
                           const Interner& dict,
                           sparql::TriplePattern pattern)
    : Operator(layout, {layout->SlotOf(pattern.s), layout->SlotOf(pattern.p),
                        layout->SlotOf(pattern.o)}),
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
    : Operator(layout, {layout->SlotOf(pattern.s), layout->SlotOf(pattern.o)}),
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
    : Operator(std::move(layout), UnionOf(*left, *right)),
      left_(std::move(left)),
      right_(std::move(right)),
      join_vars_(std::move(join_vars)),
      join_slots_(SlotsOf(*layout_, join_vars_)),
      dict_(dict),
      left_outer_(left_outer),
      build_(width()),
      probe_(width()) {
  const std::vector<uint32_t> keys = SlotSet(join_slots_);
  std::vector<uint32_t> both;
  std::set_difference(right_->slots().begin(), right_->slots().end(),
                      left_->slots().begin(), left_->slots().end(),
                      std::back_inserter(build_only_slots_));
  std::set_intersection(right_->slots().begin(), right_->slots().end(),
                        left_->slots().begin(), left_->slots().end(),
                        std::back_inserter(both));
  std::set_difference(both.begin(), both.end(), keys.begin(), keys.end(),
                      std::back_inserter(shared_slots_));
}

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
  return WithWidth(width(), [&](auto w) {
    return ProbeJoin(w, probe_, build_, index_, join_slots_,
                     build_only_slots_, shared_slots_, left_outer_, out);
  });
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
    : Operator(std::move(layout), UnionOf(*left, *right)),
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
        MergeRows(row, other, w, out->AppendRow());
      }
    }
    if (left_outer_ && !matched) std::copy_n(row, w, out->AppendRow());
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
    : Operator(std::move(layout), child->slots()),
      child_(std::move(child)),
      query_(query),
      filter_(filter),
      eval_(eval) {
  std::vector<SymbolId> vars;
  query_.AppendVars(filter_, &vars);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  var_slots_.reserve(vars.size());
  for (SymbolId v : vars) var_slots_.emplace_back(v, layout_->SlotOf(v));
}

Status FilterOp::Fill(RowBuffer* out) {
  const size_t first = out->size();
  RWDT_RETURN_IF_ERROR(child_->Fill(out));
  const SymbolId* row = nullptr;
  const sparql::VarLookup value_of = [&](SymbolId var) {
    const auto it = std::find_if(
        var_slots_.begin(), var_slots_.end(),
        [var](const std::pair<SymbolId, uint32_t>& vs) {
          return vs.first == var;
        });
    // Every variable the expression mentions was resolved; the layout
    // answers for any other.
    const uint32_t slot =
        it != var_slots_.end() ? it->second : layout().SlotOf(var);
    return slot == kNoSlot ? kInvalidSymbol : row[slot];
  };
  Status status = Status::Ok();
  CompactRows(out, first, [&](const SymbolId* r) {
    if (!status.ok()) return false;
    row = r;
    Result<bool> pass = eval_.EvalFilter(query_, filter_, value_of);
    if (!pass.ok()) {
      status = pass.status();
      return false;
    }
    return pass.value();
  });
  return status;
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
  CompactRows(rel, 0,
              [index](const SymbolId* row) { return index->Contains(row); });
  return Status::Ok();
}

/// The slots of the variables of `triples`, as Operator takes them.
std::vector<uint32_t> TriplesSlots(
    const SlotLayout& layout,
    const std::vector<sparql::TriplePattern>& triples) {
  std::vector<uint32_t> slots;
  for (const auto& t : triples) {
    for (const sparql::Term* term : {&t.s, &t.p, &t.o}) {
      slots.push_back(layout.SlotOf(*term));
    }
  }
  return slots;
}

}  // namespace

YannakakisOp::YannakakisOp(LayoutPtr layout, const graph::TripleStore& store,
                           const Interner& dict,
                           std::vector<sparql::TriplePattern> triples)
    : Operator(layout, TriplesSlots(*layout, triples)),
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
  new_slots_.resize(n);
  // The join runs root first, in reverse removal order, so relation i
  // meets the root and every relation removed after it: those still
  // live when GYO removed i. The ear property keeps i's variables
  // shared with them inside its parent's, so i joins on exactly the
  // slots it shares with its parent, a definite-key hash join, and adds
  // the slots of its other variables.
  std::set<SymbolId> acc_vars = varsets[root_];
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    const size_t i = *it;
    parent_slots_[i] =
        SharedSlots(*layout_, varsets[i],
                    varsets[static_cast<size_t>(forest_.parent[i])]);
    std::vector<SymbolId> added;
    std::set_difference(varsets[i].begin(), varsets[i].end(),
                        acc_vars.begin(), acc_vars.end(),
                        std::back_inserter(added));
    new_slots_[i] = SlotsOf(*layout_, added);
    acc_vars.insert(varsets[i].begin(), varsets[i].end());
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

  // Semijoin reduction, leaves to root. Removal order guarantees every
  // child of i has already reduced rel_[i] when i reduces its own
  // parent, so afterwards every row of a relation extends to its whole
  // subtree, and the root's rows to full answers.
  for (size_t i : forest_.order) {
    const size_t j = static_cast<size_t>(forest_.parent[i]);
    RWDT_RETURN_IF_ERROR(
        Semijoin(&rel_[j], rel_[i], parent_slots_[i], &index_));
  }

  // Join along the forest, root first; the last join writes to `out`.
  // Each accumulated row meets its parent's row, which has a partner in
  // every child, so every join extends every row it is given.
  static const std::vector<uint32_t> kNone;
  const RowBuffer* acc = &rel_[root_];
  for (auto it = forest_.order.rbegin(); it != forest_.order.rend(); ++it) {
    if (acc->empty()) break;
    const bool last = std::next(it) == forest_.order.rend();
    RowBuffer* dst = last ? out : &next_acc_;
    if (!last) next_acc_.Clear();
    const RowBuffer& rel = rel_[*it];
    RWDT_RETURN_IF_ERROR(index_.Build(rel, parent_slots_[*it]));
    RWDT_RETURN_IF_ERROR(WithWidth(width(), [&](auto w) {
      return ProbeJoin(w, *acc, rel, index_, parent_slots_[*it],
                       new_slots_[*it], kNone, /*left_outer=*/false, dst);
    }));
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
