#include "graph/rdf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/stats.h"

namespace rwdt::graph {

void TripleStore::Add(SymbolId s, SymbolId p, SymbolId o) {
  spo_.push_back({s, p, o});
  dirty_ = true;
}

namespace {

/// The radix passes' digit: 11 bits, so ids below 2^11 sort in one
/// pass and any 32-bit id in three.
constexpr unsigned kDigitBits = 11;
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;

/// One stable counting pass: `out` takes `in` ordered by the digit of
/// key(x) at `shift`.
template <typename T, typename Key>
void RadixPass(const std::vector<T>& in, std::vector<T>* out, Key key,
               unsigned shift) {
  std::vector<uint32_t> start(kDigitMask + 2, 0);
  for (const T& x : in) ++start[((key(x) >> shift) & kDigitMask) + 1];
  for (size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  out->resize(in.size());
  for (const T& x : in) (*out)[start[(key(x) >> shift) & kDigitMask]++] = x;
}

/// Stable LSD radix sort of `v` on the 32-bit key(x), one pass per
/// digit: a digit that is zero in every key would move nothing, so it
/// is skipped. `scratch` is the passes' second buffer.
template <typename T, typename Key>
void RadixSort(std::vector<T>* v, std::vector<T>* scratch, Key key) {
  uint32_t used = 0;
  for (const T& x : *v) used |= key(x);
  for (unsigned shift = 0; shift < 32; shift += kDigitBits) {
    if (((used >> shift) & kDigitMask) == 0) continue;
    RadixPass(*v, scratch, key, shift);
    v->swap(*scratch);
  }
}

}  // namespace

const std::vector<Triple>& TripleStore::EnsureSorted() const {
  if (dirty_) {
    // SPO: stable passes on o, then p, then s. Equal triples end up
    // side by side, the only duplicates.
    {
      std::vector<Triple> scratch;
      RadixSort(&spo_, &scratch, [](const Triple& t) { return t.o; });
      RadixSort(&spo_, &scratch, [](const Triple& t) { return t.p; });
      RadixSort(&spo_, &scratch, [](const Triple& t) { return t.s; });
    }
    spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
    const size_t n = spo_.size();
    // The kept arrays are sized before the passes' scratch, which is
    // then the last to be allocated and the first to be freed.
    osp_.resize(n);
    pos_.resize(n);
    pos_ranks_.resize(n);

    // OSP is SPO stably ordered on o, and POS is OSP stably ordered on
    // p. Both are sorted as permutations of row numbers, so the rank of
    // a POS triple's subject can be looked up by its SPO row.
    std::vector<uint32_t> osp_rows(n), pos_rows(n), scratch;
    std::iota(osp_rows.begin(), osp_rows.end(), 0u);
    RadixSort(&osp_rows, &scratch, [this](uint32_t i) { return spo_[i].o; });
    for (size_t k = 0; k < n; ++k) osp_[k] = spo_[osp_rows[k]];
    std::iota(pos_rows.begin(), pos_rows.end(), 0u);
    RadixSort(&pos_rows, &scratch, [this](uint32_t j) { return osp_[j].p; });

    // spo_ lists subjects and osp_ lists objects in ascending order, so
    // merging the two streams yields every term in order; equal
    // neighbours are the only duplicates. A first merge counts them.
    auto merge_terms = [&](auto&& emit) {
      SymbolId last = kInvalidSymbol;
      bool any = false;
      for (size_t i = 0, j = 0; i < n || j < n;) {
        const SymbolId next =
            j == n || (i < n && spo_[i].s <= osp_[j].o) ? spo_[i++].s
                                                        : osp_[j++].o;
        if (!any || next != last) emit(next);
        any = true;
        last = next;
      }
    };
    size_t distinct = 0;
    merge_terms([&](SymbolId) { ++distinct; });
    terms_.clear();
    terms_.reserve(distinct);
    merge_terms([&](SymbolId t) { terms_.push_back(t); });

    // Ranks: the same two streams ascend, so one forward walk over the
    // terms ranks each. Subject ranks by SPO row, object ranks by OSP
    // row; POS takes both through its permutation.
    std::vector<uint32_t> s_rank(n), o_rank(n);
    for (size_t i = 0, r = 0; i < n; ++i) {
      while (terms_[r] < spo_[i].s) ++r;
      s_rank[i] = static_cast<uint32_t>(r);
    }
    for (size_t j = 0, r = 0; j < n; ++j) {
      while (terms_[r] < osp_[j].o) ++r;
      o_rank[j] = static_cast<uint32_t>(r);
    }
    for (size_t k = 0; k < n; ++k) {
      const uint32_t j = pos_rows[k];
      pos_[k] = osp_[j];
      pos_ranks_[k] = {s_rank[osp_rows[j]], o_rank[j]};
    }
    dirty_ = false;
  }
  return spo_;
}

std::vector<Triple> TripleStore::Match(SymbolId s, SymbolId p,
                                       SymbolId o) const {
  EnsureSorted();
  std::vector<Triple> out;
  auto scan = [&](const std::vector<Triple>& index, auto lo_key,
                  auto in_range) {
    auto it = std::lower_bound(index.begin(), index.end(), Triple{},
                               lo_key);
    for (; it != index.end() && in_range(*it); ++it) {
      if ((s == kInvalidSymbol || it->s == s) &&
          (p == kInvalidSymbol || it->p == p) &&
          (o == kInvalidSymbol || it->o == o)) {
        out.push_back(*it);
      }
    }
  };
  if (s != kInvalidSymbol) {
    scan(
        spo_,
        [&](const Triple& a, const Triple&) { return a.s < s; },
        [&](const Triple& t) { return t.s == s; });
  } else if (p != kInvalidSymbol) {
    scan(
        pos_,
        [&](const Triple& a, const Triple&) { return a.p < p; },
        [&](const Triple& t) { return t.p == p; });
  } else if (o != kInvalidSymbol) {
    scan(
        osp_,
        [&](const Triple& a, const Triple&) { return a.o < o; },
        [&](const Triple& t) { return t.o == o; });
  } else {
    out = spo_;
  }
  return out;
}

size_t TripleStore::CountMatch(SymbolId s, SymbolId p, SymbolId o) const {
  EnsureSorted();
  const bool sb = s != kInvalidSymbol;
  const bool pb = p != kInvalidSymbol;
  const bool ob = o != kInvalidSymbol;
  if (sb && pb && ob) return Contains(s, p, o) ? 1 : 0;
  if (!sb && !pb && !ob) return spo_.size();

  if (sb && pb) {
    auto [lo, hi] = std::equal_range(
        spo_.begin(), spo_.end(), Triple{s, p, 0},
        [](const Triple& a, const Triple& b) {
          if (a.s != b.s) return a.s < b.s;
          return a.p < b.p;
        });
    return static_cast<size_t>(hi - lo);
  }
  if (pb && ob) {
    auto [lo, hi] = std::equal_range(
        pos_.begin(), pos_.end(), Triple{0, p, o},
        [](const Triple& a, const Triple& b) {
          if (a.p != b.p) return a.p < b.p;
          return a.o < b.o;
        });
    return static_cast<size_t>(hi - lo);
  }
  if (sb && ob) {
    // (s, ?, o): scan the subject's SPO range.
    auto [lo, hi] = std::equal_range(
        spo_.begin(), spo_.end(), Triple{s, 0, 0},
        [](const Triple& a, const Triple& b) { return a.s < b.s; });
    size_t n = 0;
    for (auto it = lo; it != hi; ++it) n += it->o == o ? 1 : 0;
    return n;
  }
  if (sb) {
    auto [lo, hi] = std::equal_range(
        spo_.begin(), spo_.end(), Triple{s, 0, 0},
        [](const Triple& a, const Triple& b) { return a.s < b.s; });
    return static_cast<size_t>(hi - lo);
  }
  if (pb) {
    auto [lo, hi] = std::equal_range(
        pos_.begin(), pos_.end(), Triple{0, p, 0},
        [](const Triple& a, const Triple& b) { return a.p < b.p; });
    return static_cast<size_t>(hi - lo);
  }
  auto [lo, hi] = std::equal_range(
      osp_.begin(), osp_.end(), Triple{0, 0, o},
      [](const Triple& a, const Triple& b) { return a.o < b.o; });
  return static_cast<size_t>(hi - lo);
}

TripleStore::TripleRange TripleStore::RangeSP(SymbolId s, SymbolId p) const {
  EnsureSorted();
  auto [lo, hi] = std::equal_range(spo_.begin(), spo_.end(), Triple{s, p, 0},
                                   [](const Triple& a, const Triple& b) {
                                     if (a.s != b.s) return a.s < b.s;
                                     return a.p < b.p;
                                   });
  return {spo_.data() + (lo - spo_.begin()), spo_.data() + (hi - spo_.begin())};
}

TripleStore::TripleRange TripleStore::RangePO(SymbolId p, SymbolId o) const {
  EnsureSorted();
  auto [lo, hi] = std::equal_range(pos_.begin(), pos_.end(), Triple{0, p, o},
                                   [](const Triple& a, const Triple& b) {
                                     if (a.p != b.p) return a.p < b.p;
                                     return a.o < b.o;
                                   });
  return {pos_.data() + (lo - pos_.begin()), pos_.data() + (hi - pos_.begin())};
}

TripleStore::TripleRange TripleStore::RangeP(SymbolId p) const {
  EnsureSorted();
  auto [lo, hi] = std::equal_range(
      pos_.begin(), pos_.end(), Triple{0, p, 0},
      [](const Triple& a, const Triple& b) { return a.p < b.p; });
  return {pos_.data() + (lo - pos_.begin()), pos_.data() + (hi - pos_.begin())};
}

TripleStore::TripleRange TripleStore::RangeS(SymbolId s) const {
  EnsureSorted();
  auto [lo, hi] = std::equal_range(
      spo_.begin(), spo_.end(), Triple{s, 0, 0},
      [](const Triple& a, const Triple& b) { return a.s < b.s; });
  return {spo_.data() + (lo - spo_.begin()), spo_.data() + (hi - spo_.begin())};
}

TripleStore::TripleRange TripleStore::RangeO(SymbolId o) const {
  EnsureSorted();
  auto [lo, hi] = std::equal_range(
      osp_.begin(), osp_.end(), Triple{0, 0, o},
      [](const Triple& a, const Triple& b) { return a.o < b.o; });
  return {osp_.data() + (lo - osp_.begin()), osp_.data() + (hi - osp_.begin())};
}

std::vector<SymbolId> TripleStore::Objects(SymbolId s, SymbolId p) const {
  std::vector<SymbolId> out;
  for (const Triple& t : Match(s, p, kInvalidSymbol)) out.push_back(t.o);
  return out;
}

std::vector<SymbolId> TripleStore::Subjects(SymbolId p, SymbolId o) const {
  std::vector<SymbolId> out;
  for (const Triple& t : Match(kInvalidSymbol, p, o)) out.push_back(t.s);
  return out;
}

bool TripleStore::Contains(SymbolId s, SymbolId p, SymbolId o) const {
  EnsureSorted();
  return std::binary_search(spo_.begin(), spo_.end(), Triple{s, p, o});
}

const std::vector<SymbolId>& TripleStore::Terms() const {
  EnsureSorted();
  return terms_;
}

uint32_t TripleStore::RankOf(SymbolId t) const {
  EnsureSorted();
  const auto it = std::lower_bound(terms_.begin(), terms_.end(), t);
  if (it == terms_.end() || *it != t) return kNoRank;
  return static_cast<uint32_t>(it - terms_.begin());
}

std::pair<const TripleStore::TermRanks*, const TripleStore::TermRanks*>
TripleStore::RanksP(SymbolId p) const {
  const auto [lo, hi] = RangeP(p);
  const TermRanks* ranks = pos_ranks_.data();
  return {ranks + (lo - pos_.data()), ranks + (hi - pos_.data())};
}

std::set<SymbolId> TripleStore::SubjectSet() const {
  std::set<SymbolId> out;
  for (const Triple& t : EnsureSorted()) out.insert(t.s);
  return out;
}

std::set<SymbolId> TripleStore::PredicateSet() const {
  std::set<SymbolId> out;
  for (const Triple& t : EnsureSorted()) out.insert(t.p);
  return out;
}

std::set<SymbolId> TripleStore::ObjectSet() const {
  std::set<SymbolId> out;
  for (const Triple& t : EnsureSorted()) out.insert(t.o);
  return out;
}

RdfStructureStats AnalyzeRdfStructure(const TripleStore& store) {
  RdfStructureStats stats;
  const auto& triples = store.triples();
  stats.num_triples = triples.size();

  const auto subjects = store.SubjectSet();
  const auto predicates = store.PredicateSet();
  const auto objects = store.ObjectSet();
  stats.num_subjects = subjects.size();
  stats.num_predicates = predicates.size();
  stats.num_objects = objects.size();

  auto jaccard = [](const std::set<SymbolId>& a,
                    const std::set<SymbolId>& b) {
    size_t inter = 0;
    for (SymbolId x : a) inter += b.count(x);
    const size_t uni = a.size() + b.size() - inter;
    return uni == 0 ? 0.0
                    : static_cast<double>(inter) / static_cast<double>(uni);
  };
  stats.predicate_subject_overlap = jaccard(predicates, subjects);
  stats.predicate_object_overlap = jaccard(predicates, objects);

  // Degrees.
  std::map<SymbolId, uint64_t> out_degree, in_degree;
  std::map<SymbolId, std::set<SymbolId>> predicate_list;
  std::map<std::pair<SymbolId, SymbolId>, uint64_t> sp_count, po_count;
  std::map<SymbolId, std::set<SymbolId>> predicates_of_object;
  for (const Triple& t : triples) {
    out_degree[t.s]++;
    in_degree[t.o]++;
    predicate_list[t.s].insert(t.p);
    sp_count[{t.s, t.p}]++;
    po_count[{t.p, t.o}]++;
    predicates_of_object[t.o].insert(t.p);
  }
  auto degree_stats = [](const std::map<SymbolId, uint64_t>& degrees,
                         double* mean, double* max, double* alpha) {
    std::vector<uint64_t> values;
    values.reserve(degrees.size());
    for (const auto& [node, d] : degrees) {
      (void)node;
      values.push_back(d);
    }
    const Summary s = Summarize(values);
    *mean = s.mean;
    *max = static_cast<double>(s.max);
    *alpha = PowerLawAlpha(values, 2);
  };
  degree_stats(out_degree, &stats.out_degree_mean, &stats.out_degree_max,
               &stats.out_degree_alpha);
  degree_stats(in_degree, &stats.in_degree_mean, &stats.in_degree_max,
               &stats.in_degree_alpha);

  std::set<std::set<SymbolId>> distinct_lists;
  for (const auto& [s, list] : predicate_list) {
    (void)s;
    distinct_lists.insert(list);
  }
  stats.distinct_predicate_lists = distinct_lists.size();
  stats.predicate_list_ratio =
      stats.num_subjects == 0
          ? 0
          : static_cast<double>(distinct_lists.size()) /
                static_cast<double>(stats.num_subjects);

  auto mean_of = [](const std::map<std::pair<SymbolId, SymbolId>, uint64_t>&
                        counts) {
    if (counts.empty()) return 0.0;
    double sum = 0;
    for (const auto& [k, v] : counts) {
      (void)k;
      sum += static_cast<double>(v);
    }
    return sum / static_cast<double>(counts.size());
  };
  stats.objects_per_sp = mean_of(sp_count);
  stats.subjects_per_po = mean_of(po_count);
  {
    double var = 0;
    for (const auto& [k, v] : po_count) {
      (void)k;
      const double d = static_cast<double>(v) - stats.subjects_per_po;
      var += d * d;
    }
    stats.subjects_per_po_stddev =
        po_count.empty() ? 0
                         : std::sqrt(var / static_cast<double>(
                                               po_count.size()));
  }
  if (!predicates_of_object.empty()) {
    double sum = 0;
    for (const auto& [o, preds] : predicates_of_object) {
      (void)o;
      sum += static_cast<double>(preds.size());
    }
    stats.predicates_per_object =
        sum / static_cast<double>(predicates_of_object.size());
  }
  return stats;
}

}  // namespace rwdt::graph
