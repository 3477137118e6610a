#ifndef RWDT_EXEC_OPERATORS_H_
#define RWDT_EXEC_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/json.h"
#include "common/status.h"
#include "graph/rdf.h"
#include "paths/automaton.h"
#include "sparql/algebra.h"
#include "sparql/eval.h"

namespace rwdt::exec {

using sparql::Binding;

/// Slot index of a pattern position that binds no variable.
inline constexpr uint32_t kNoSlot = 0xffffffffu;

/// The column assignment of one plan. Every variable the plan's pattern
/// mentions gets a slot, in ascending id order, and every row the plan's
/// operators exchange is `width()` SymbolIds, one per slot;
/// kInvalidSymbol marks a variable the row leaves unbound (OPTIONAL).
class SlotLayout {
 public:
  explicit SlotLayout(const std::set<SymbolId>& vars);

  size_t width() const { return vars_.size(); }
  /// The slot of `var`, or kNoSlot when the plan never binds it.
  uint32_t SlotOf(SymbolId var) const;
  /// The slot a pattern term binds: kNoSlot for a constant.
  uint32_t SlotOf(const sparql::Term& t) const {
    return t.ActsAsVar() ? SlotOf(t.id) : kNoSlot;
  }
  /// Replaces `mu` with the solution mapping of one row: its bound
  /// slots, which ascend with their variables, written in one pass.
  void ToBinding(const SymbolId* row, Binding* mu) const {
    ToBinding(width(), row, mu);
  }
  /// The same for a row of `width` ids, a compile-time constant when
  /// WithWidth hands it, so the pass unrolls. Every slot's pair is
  /// stored and an unbound one is overwritten by the next: no branch.
  /// More than the inline pairs of slots take one heap block of the
  /// layout's width.
  template <typename Width>
  void ToBinding(Width width, const SymbolId* row, Binding* mu) const {
    const SymbolId* vars = vars_.data();
    mu->assign_sorted(width, [&](Binding::value_type* out) {
      size_t n = 0;
      for (size_t i = 0; i < width; ++i) {
        out[n] = {vars[i], row[i]};
        n += row[i] != kInvalidSymbol;
      }
      return n;
    });
  }

 private:
  std::vector<SymbolId> vars_;  // slot -> variable, ascending
};

using LayoutPtr = std::shared_ptr<const SlotLayout>;

/// Rows of one width stored back to back. The storage grows
/// geometrically and keeps its capacity through Truncate and Clear, so
/// an operator that refills its buffer on every call stops allocating
/// once it has seen its largest input. Only the first size() rows are
/// live: with _GLIBCXX_ASSERTIONS defined, the row accessors abort on
/// an index past them, a read ASan cannot see inside the spare
/// capacity.
class RowBuffer {
 public:
  explicit RowBuffer(size_t width = 0) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  const SymbolId* operator[](size_t i) const {
    return ids_.get() + Offset(i);
  }
  SymbolId* operator[](size_t i) { return ids_.get() + Offset(i); }
  /// Appends an all-unbound row and returns it for filling; the pointer
  /// is valid until the next append.
  SymbolId* Append() { return AppendUnbound(1); }
  /// Appends `n` all-unbound rows with one fill and returns the first;
  /// the pointer is valid until the next append. A scan appends as many
  /// rows as its index range holds, writes the ones it keeps, and
  /// truncates the rest.
  SymbolId* AppendUnbound(size_t n);
  /// Appends one row whose every slot the caller writes, and returns
  /// it; the pointer is valid until the next append.
  SymbolId* AppendRow() {
    if (rows_ == capacity_) Grow(rows_ + 1);
    return ids_.get() + rows_++ * width_;
  }
  /// Keeps the first `n` rows.
  void Truncate(size_t n) { rows_ = std::min(rows_, n); }
  void Clear() { rows_ = 0; }

 private:
  size_t Offset(size_t i) const {
#ifdef _GLIBCXX_ASSERTIONS
    if (i >= rows_) RowOutOfRange(i, rows_);
#endif
    return i * width_;
  }
  /// Makes room for `rows` rows, at least doubling the storage.
  void Grow(size_t rows);
  [[noreturn]] static void RowOutOfRange(size_t i, size_t rows);

  size_t width_;
  size_t rows_ = 0;
  size_t capacity_ = 0;  // rows
  // Not value-initialized: only rows an append handed out are written,
  // so the pages of the spare capacity stay untouched.
  std::unique_ptr<SymbolId[]> ids_;
};

/// Row widths up to this one are compile-time constants in the row
/// kernels (WithWidth), so their per-row copies unroll.
inline constexpr size_t kUnrolledWidth = 8;

/// Calls `body(w)` with `width` as a std::integral_constant when it is
/// at most kUnrolledWidth, else as a size_t: one dispatch per operator
/// call, so a loop over rows copies a fixed number of ids.
template <typename Body>
decltype(auto) WithWidth(size_t width, Body&& body) {
  switch (width) {
    case 1: return body(std::integral_constant<size_t, 1>{});
    case 2: return body(std::integral_constant<size_t, 2>{});
    case 3: return body(std::integral_constant<size_t, 3>{});
    case 4: return body(std::integral_constant<size_t, 4>{});
    case 5: return body(std::integral_constant<size_t, 5>{});
    case 6: return body(std::integral_constant<size_t, 6>{});
    case 7: return body(std::integral_constant<size_t, 7>{});
    case 8: return body(std::integral_constant<size_t, 8>{});
    default: return body(width);
  }
}

/// Copies one row of `width` ids, as WithWidth hands it.
template <typename Width>
void CopyRow(Width width, const SymbolId* from, SymbolId* to) {
  for (size_t i = 0; i < width; ++i) to[i] = from[i];
}

/// True when rows `a` and `b` agree on every slot both bind.
bool CompatibleRows(const SymbolId* a, const SymbolId* b, size_t width);

/// Writes the merge of two compatible rows to `out`: each slot takes
/// `a`'s value when `a` binds it, else `b`'s (for compatible rows the
/// two agree wherever both bind, so the choice is immaterial).
void MergeRows(const SymbolId* a, const SymbolId* b, size_t width,
               SymbolId* out);

/// A hash index over the rows of a RowBuffer, keyed on the values of
/// some slots. Its entries sit in one flat array grouped by bucket, in
/// input order within a bucket. An entry holds a row's index and, for a
/// one-slot key, the key itself, so a probe compares ids without
/// reading the indexed rows; for a wider key it holds a hash tag, and a
/// matching tag is confirmed slot by slot. Lookups compare keys
/// exactly, so a hash collision never pairs rows whose keys differ. The
/// indexed buffer must outlive the index and stay unchanged while it is
/// used.
class JoinIndex {
 public:
  /// Indexes `rows` on `key_slots`. Equal keys are compatible bindings
  /// only when bound, so the pass that hashes the keys returns kInternal
  /// on a row that leaves a key slot unbound.
  Status Build(const RowBuffer& rows, const std::vector<uint32_t>& key_slots);

  /// Calls `visit(row)` for every indexed row whose key equals
  /// `probe`'s, in input order; a probe that leaves a key slot unbound
  /// matches no row.
  template <typename Visit>
  void ForEachMatch(const SymbolId* probe, Visit&& visit) const {
    if (key_slots_.size() == 1) {
      const SymbolId key = probe[key_slots_[0]];
      const auto [lo, hi] = BucketOf(Mix(0, key));
      for (const Entry* e = lo; e != hi; ++e) {
        if (e->key == key) visit(e->row);
      }
      return;
    }
    const uint64_t hash = KeyHash(probe);
    const auto [lo, hi] = BucketOf(hash);
    for (const Entry* e = lo; e != hi; ++e) {
      if (e->key == Tag(hash) && KeyEquals(e->row, probe)) visit(e->row);
    }
  }
  /// Whether some indexed row's key equals `probe`'s.
  bool Contains(const SymbolId* probe) const;

 private:
  /// A row of the index: its key (one slot) or hash tag (wider keys).
  struct Entry {
    SymbolId key;
    uint32_t row;
  };

  static uint64_t Mix(uint64_t h, SymbolId v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
  }
  static SymbolId Tag(uint64_t hash) {
    return static_cast<SymbolId>(hash >> 32);
  }
  uint64_t KeyHash(const SymbolId* row) const {
    uint64_t h = 0;
    for (uint32_t slot : key_slots_) h = Mix(h, row[slot]);
    return h;
  }
  bool KeyEquals(uint32_t row, const SymbolId* probe) const {
    const SymbolId* indexed = (*rows_)[row];
    for (uint32_t slot : key_slots_) {
      if (indexed[slot] != probe[slot]) return false;
    }
    return true;
  }
  std::pair<const Entry*, const Entry*> BucketOf(uint64_t hash) const {
    const uint64_t b = hash & mask_;
    return {entries_.data() + starts_[b], entries_.data() + starts_[b + 1]};
  }

  const RowBuffer* rows_ = nullptr;
  std::vector<uint32_t> key_slots_;
  std::vector<uint32_t> starts_;   // bucket -> first entry; one past the end
  std::vector<Entry> entries_;     // grouped by bucket
  std::vector<uint64_t> hashes_;   // Build's per-row hashes, kept for capacity
  uint64_t mask_ = 0;
};

/// A set-at-a-time rowsource: one call appends the operator's whole
/// output to a caller's buffer. Operators are single-threaded and
/// reusable: each Fill recomputes the output from the store, and the
/// buffers an operator keeps between calls hold only capacity.
///
/// Every operator of a plan shares the plan's SlotLayout, and a row is
/// `width()` SymbolIds in that layout. The semantic contract is strict:
/// every operator produces exactly the multiset the reference
/// `sparql::Evaluator` produces for the pattern it was planned from (row
/// order is unspecified). The differential property test enforces this
/// against random graphs and queries.
class Operator {
 public:
  /// `slots` are the slots some output row may bind (any order, repeats
  /// allowed); every other slot of every output row stays unbound.
  Operator(LayoutPtr layout, std::vector<uint32_t> slots);
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Appends every output row to `out`, whose width is width(); the
  /// rows `out` already holds stay as they are.
  virtual Status Fill(RowBuffer* out) = 0;

  virtual const char* Name() const = 0;
  /// Appends this operator subtree as one JSON object (Plan::ToJson).
  virtual void Explain(JsonWriter* w) const = 0;

  const SlotLayout& layout() const { return *layout_; }
  size_t width() const { return layout_->width(); }
  /// The slots some output row may bind, ascending: the operator's own
  /// pattern positions or the union of its children's, worked out when
  /// it is built, so a tree built by hand has them too.
  const std::vector<uint32_t>& slots() const { return slots_; }

  /// The output as solution mappings: the one place a plan builds a
  /// Binding, in place, once per output row.
  Result<std::vector<Binding>> Drain();

 protected:
  LayoutPtr layout_;

 private:
  std::vector<uint32_t> slots_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Leaf scan over one triple pattern; binds the pattern's variable
/// positions exactly like Evaluator::EvalTriple (including repeated-
/// variable consistency, e.g. `?x p ?x`).
class TripleScanOp : public Operator {
 public:
  TripleScanOp(LayoutPtr layout, const graph::TripleStore& store,
               const Interner& dict, sparql::TriplePattern pattern);

  Status Fill(RowBuffer* out) override;
  const char* Name() const override { return "triple_scan"; }
  void Explain(JsonWriter* w) const override;

 private:
  const graph::TripleStore& store_;
  const Interner& dict_;
  sparql::TriplePattern pattern_;
};

/// Leaf scan over one property-path pattern: the path's automaton
/// (paths::PathNfa), compiled once when the plan is built, swept through
/// the evaluator's EvalPathPairs, so the scan charges the evaluator's
/// step budget and binds exactly the pairs the evaluator does.
class PathScanOp : public Operator {
 public:
  PathScanOp(LayoutPtr layout, const sparql::Evaluator& eval,
             const Interner& dict, sparql::PathTriple pattern,
             paths::PathNfa nfa);

  Status Fill(RowBuffer* out) override;
  const char* Name() const override { return "path_nfa_scan"; }
  void Explain(JsonWriter* w) const override;

 private:
  const sparql::Evaluator& eval_;
  const Interner& dict_;
  sparql::PathTriple pattern_;
  paths::PathNfa nfa_;
};

/// Hash join on an explicit variable list. Fill indexes the right
/// (build) child's rows on the join variables' slots, then probes the
/// index once per row of the left (probe) child. The planner only emits
/// this when every join variable is definitely bound on both sides, in
/// which case key equality is exactly binding compatibility. As a left
/// (outer) join, a probe row with no build match is emitted unchanged —
/// SPARQL OPTIONAL semantics.
///
/// A match is written as the probe row plus the slots only the build
/// side binds (`slots()` of the right child less those of the left). A
/// non-key slot both children may bind, which no planned tree has, is
/// merged as MergeRows would: the probe's value when it binds one.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(LayoutPtr layout, OperatorPtr left, OperatorPtr right,
             std::vector<SymbolId> join_vars, const Interner& dict,
             bool left_outer = false);

  Status Fill(RowBuffer* out) override;
  const char* Name() const override {
    return left_outer_ ? "hash_left_join" : "hash_join";
  }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  std::vector<SymbolId> join_vars_;
  std::vector<uint32_t> join_slots_;
  std::vector<uint32_t> build_only_slots_;
  std::vector<uint32_t> shared_slots_;  // non-key slots both sides bind
  const Interner& dict_;
  bool left_outer_;
  // Both inputs, refilled by every Fill.
  RowBuffer build_, probe_;
  JoinIndex index_;
};

/// Nested-loop join testing compatibility slot by slot; the safe join
/// for inputs that may produce partially-bound rows (OPTIONAL below
/// either side). Fill holds both children's rows and pairs every probe
/// (left) row with every build (right) row.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(LayoutPtr layout, OperatorPtr left, OperatorPtr right,
                   bool left_outer = false);

  Status Fill(RowBuffer* out) override;
  const char* Name() const override {
    return left_outer_ ? "nl_left_join" : "nl_join";
  }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr left_, right_;
  bool left_outer_;
  // Both inputs, refilled by every Fill.
  RowBuffer build_, probe_;
};

/// Filter at its exact pattern position; delegates the predicate to
/// Evaluator::EvalFilter, reading the row through a variable lookup, so
/// filter semantics (unbound-variable handling, EXISTS against the full
/// store) cannot drift from the reference. The slots of the variables
/// the expression mentions are resolved once, when the operator is
/// built. Fill appends the child's rows and compacts the passing ones in
/// place. `filter` is a node of `query`, which must outlive the
/// operator.
class FilterOp : public Operator {
 public:
  FilterOp(LayoutPtr layout, OperatorPtr child, const sparql::Query& query,
           const sparql::FilterExpr& filter, const sparql::Evaluator& eval);

  Status Fill(RowBuffer* out) override;
  const char* Name() const override { return "filter"; }
  void Explain(JsonWriter* w) const override;

 private:
  OperatorPtr child_;
  const sparql::Query& query_;
  const sparql::FilterExpr& filter_;
  const sparql::Evaluator& eval_;
  // (variable, slot) for each variable the expression mentions, EXISTS
  // bodies included; kNoSlot for one the layout lacks.
  std::vector<std::pair<SymbolId, uint32_t>> var_slots_;
};

/// GYO ear removal over relation variable sets. `parent[i]` is the
/// forest parent of relation i (or -1 for the root); `order` lists
/// relations in removal order (leaves first, root excluded). `ok` is
/// false when no ear exists — the hypergraph is cyclic.
struct JoinForest {
  std::vector<int> parent;
  std::vector<size_t> order;
  bool ok = false;
};

JoinForest BuildJoinForest(const std::vector<std::set<SymbolId>>& varsets);

/// The Yannakakis semijoin program for an acyclic conjunction of triple
/// scans: Fill materializes each relation, runs the leaf-to-root
/// semijoin pass over the GYO join forest, and joins along the forest
/// root first, the last join straight into the caller's buffer. After
/// that pass every row left in a relation extends to a full answer of
/// its subtree, so each join of the root-first order extends every row
/// it is given: no intermediate row is dangling, and intermediate
/// results never exceed the final output — the acyclic-CQ guarantee,
/// for which a root-first join needs no second, root-to-leaf pass.
/// Produces the same bag as the evaluator's left-fold of nested-loop
/// joins.
class YannakakisOp : public Operator {
 public:
  YannakakisOp(LayoutPtr layout, const graph::TripleStore& store,
               const Interner& dict,
               std::vector<sparql::TriplePattern> triples);

  Status Fill(RowBuffer* out) override;
  const char* Name() const override { return "yannakakis"; }
  void Explain(JsonWriter* w) const override;

 private:
  const graph::TripleStore& store_;
  const Interner& dict_;
  std::vector<sparql::TriplePattern> triples_;
  JoinForest forest_;
  size_t root_ = 0;
  // Per relation i != root: the slots i shares with its forest parent,
  // which are those it shares with the accumulated join when it is
  // joined in, and the slots it adds to that join.
  std::vector<std::vector<uint32_t>> parent_slots_;
  std::vector<std::vector<uint32_t>> new_slots_;
  // Capacity reused across Fills.
  std::vector<RowBuffer> rel_;
  RowBuffer acc_, next_acc_;
  JoinIndex index_;
};

}  // namespace rwdt::exec

#endif  // RWDT_EXEC_OPERATORS_H_
