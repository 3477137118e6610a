#ifndef RWDT_SPARQL_BINDING_H_
#define RWDT_SPARQL_BINDING_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <utility>

#include "common/interner.h"

namespace rwdt::sparql {

/// A solution mapping mu: variables -> RDF terms (interned ids), held as
/// (variable, value) pairs sorted by variable. Real queries are small
/// (paper Figure 3), so up to kInlineCapacity pairs live inside the
/// object and a larger mapping takes one heap block.
///
/// The interface is the part of std::map<SymbolId, SymbolId> the
/// evaluator and the executor use, with the same results: iteration in
/// ascending variable order, find/count, emplace (never overwrites),
/// and lexicographic == and <. Iterators are read-only and there is no
/// operator[], so a read can never insert a binding; writes go through
/// emplace, insert_or_assign or assign_sorted. Any write invalidates
/// iterators. A caller that knows a mapping's final size can reserve it,
/// or write it whole with assign_sorted, so the mapping takes at most
/// one heap block.
class Binding {
 public:
  using value_type = std::pair<SymbolId, SymbolId>;
  using const_iterator = const value_type*;

  static constexpr uint32_t kInlineCapacity = 4;

  Binding() = default;
  Binding(std::initializer_list<value_type> pairs) {
    insert(pairs.begin(), pairs.end());
  }
  Binding(const Binding& other) { CopyFrom(other); }
  Binding(Binding&& other) noexcept { MoveFrom(&other); }
  Binding& operator=(const Binding& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Binding& operator=(Binding&& other) noexcept {
    if (this != &other) MoveFrom(&other);
    return *this;
  }

  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const_iterator find(SymbolId var) const {
    const_iterator it = LowerBound(var);
    return it != end() && it->first == var ? it : end();
  }
  size_t count(SymbolId var) const { return find(var) != end() ? 1 : 0; }

  /// Binds `var` to `value` unless `var` is already bound; returns the
  /// pair for `var` and whether it was inserted.
  std::pair<const_iterator, bool> emplace(SymbolId var, SymbolId value) {
    const_iterator it = LowerBound(var);
    if (it != end() && it->first == var) return {it, false};
    return {InsertAt(static_cast<uint32_t>(it - begin()), var, value), true};
  }
  /// emplace, in O(1) when `var` belongs right before `hint` (appending
  /// in ascending order with hint end()).
  const_iterator emplace_hint(const_iterator hint, SymbolId var,
                              SymbolId value) {
    if ((hint == begin() || (hint - 1)->first < var) &&
        (hint == end() || var < hint->first)) {
      return InsertAt(static_cast<uint32_t>(hint - begin()), var, value);
    }
    return emplace(var, value).first;
  }
  /// emplace of every pair in [first, last).
  template <class InputIt>
  void insert(InputIt first, InputIt last) {
    for (; first != last; ++first) emplace(first->first, first->second);
  }
  /// Binds `var` to `value`, overwriting an existing value.
  std::pair<const_iterator, bool> insert_or_assign(SymbolId var,
                                                   SymbolId value) {
    auto [it, inserted] = emplace(var, value);
    if (!inserted) data()[it - begin()].second = value;
    return {it, inserted};
  }
  /// Replaces every pair with those `write(out)` stores from `out` on,
  /// in the manner of std::string::resize_and_overwrite: `write` stores
  /// at most `max_pairs` pairs, ascending strictly by variable, and
  /// returns how many it stored. The pairs are written once, where they
  /// stay: no search, no shift, and a heap block only when `max_pairs`
  /// exceeds the capacity (one block of `max_pairs`; a mapping refilled
  /// with fewer pairs keeps the storage it has). `out` is fresh storage
  /// or this mapping's own, so `write` must not read this mapping.
  /// With _GLIBCXX_ASSERTIONS defined, pairs out of order or more than
  /// `max_pairs` abort.
  template <class Write>
  void assign_sorted(size_t max_pairs, Write write) {
    if (max_pairs > capacity_) {
      heap_ = std::make_unique<value_type[]>(max_pairs);
      capacity_ = static_cast<uint32_t>(max_pairs);
    }
    const size_t n = write(data());
#ifdef _GLIBCXX_ASSERTIONS
    CheckSorted(n, max_pairs);
#endif
    size_ = static_cast<uint32_t>(n);
  }
  /// Makes room for `n` pairs, so that growing to `n` takes at most one
  /// heap block.
  void reserve(size_t n) {
    if (n <= capacity_) return;
    auto grown = std::make_unique<value_type[]>(n);
    std::copy(begin(), end(), grown.get());
    heap_ = std::move(grown);
    capacity_ = static_cast<uint32_t>(n);
  }

  friend bool operator==(const Binding& a, const Binding& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator<(const Binding& a, const Binding& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  value_type* data() { return heap_ ? heap_.get() : inline_; }
  const value_type* data() const { return heap_ ? heap_.get() : inline_; }

  const_iterator LowerBound(SymbolId var) const {
    return std::partition_point(
        begin(), end(), [var](const value_type& kv) { return kv.first < var; });
  }

  /// Inserts (var, value) at index `pos`, moving to a heap block of
  /// twice the capacity when the current one is full.
  const_iterator InsertAt(uint32_t pos, SymbolId var, SymbolId value) {
    if (size_ == capacity_) reserve(2 * capacity_);
    value_type* d = data();
    std::copy_backward(d + pos, d + size_, d + size_ + 1);
    d[pos] = {var, value};
    ++size_;
    return d + pos;
  }

  /// Aborts unless the first `n` pairs ascend strictly by variable and
  /// `n` is at most `max_pairs`: assign_sorted's contract.
  void CheckSorted(size_t n, size_t max_pairs) const {
    const value_type* d = data();
    bool ok = n <= max_pairs;
    for (size_t i = 1; ok && i < n; ++i) ok = d[i - 1].first < d[i].first;
    if (!ok) {
      std::fprintf(stderr,
                   "Binding::assign_sorted: %zu pairs written (at most %zu "
                   "allowed) or not in strictly ascending order\n",
                   n, max_pairs);
      std::abort();
    }
  }

  void CopyFrom(const Binding& other) {
    if (other.size_ > capacity_) {
      heap_ = std::make_unique<value_type[]>(other.capacity_);
      capacity_ = other.capacity_;
    }
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
  }

  /// Takes `other`'s pairs and leaves it empty.
  void MoveFrom(Binding* other) {
    if (other->heap_) {
      heap_ = std::move(other->heap_);
      capacity_ = other->capacity_;
    } else {
      heap_.reset();
      capacity_ = kInlineCapacity;
      std::copy(other->begin(), other->end(), inline_);
    }
    size_ = other->size_;
    other->size_ = 0;
    other->capacity_ = kInlineCapacity;
  }

  value_type inline_[kInlineCapacity];
  std::unique_ptr<value_type[]> heap_;  // set once a mapping outgrows inline_
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
};

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_BINDING_H_
