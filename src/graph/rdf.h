#ifndef RWDT_GRAPH_RDF_H_
#define RWDT_GRAPH_RDF_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"

namespace rwdt::graph {

/// An RDF triple (s, p, o) over dictionary-encoded terms (paper
/// Section 7). The abstraction is an edge-labeled directed graph: an edge
/// from s to o with label p.
struct Triple {
  SymbolId s = kInvalidSymbol;
  SymbolId p = kInvalidSymbol;
  SymbolId o = kInvalidSymbol;

  bool operator<(const Triple& other) const {
    if (s != other.s) return s < other.s;
    if (p != other.p) return p < other.p;
    return o < other.o;
  }
  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

/// A set-semantics triple store with SPO / POS / OSP orderings for
/// pattern lookups. Terms are interned in a caller-owned dictionary.
class TripleStore {
 public:
  /// Inserts a triple; duplicates are ignored. Invalidates iterators.
  void Add(SymbolId s, SymbolId p, SymbolId o);
  void Add(const Triple& t) { Add(t.s, t.p, t.o); }

  size_t size() const { return EnsureSorted().size(); }

  /// All triples matching a pattern; kInvalidSymbol is a wildcard.
  std::vector<Triple> Match(SymbolId s, SymbolId p, SymbolId o) const;

  /// |Match(s, p, o)| without materializing the matches. Prefix-bound
  /// patterns (s / s,p / p / p,o / o / o,s / all / none) are answered by
  /// binary search on the right index; the one non-prefix shape (s,o)
  /// scans the subject's range. The planner's cardinality estimates
  /// lean on this.
  size_t CountMatch(SymbolId s, SymbolId p, SymbolId o) const;

  /// Objects o with (s, p, o); the hot path of query evaluation.
  std::vector<SymbolId> Objects(SymbolId s, SymbolId p) const;
  /// Subjects s with (s, p, o).
  std::vector<SymbolId> Subjects(SymbolId p, SymbolId o) const;

  /// Non-materializing range lookups: a contiguous [first, last) view
  /// into the matching index, valid until the next Add. The zero-copy
  /// counterparts of Objects / Subjects / Match for tight loops
  /// (paths::ForEachStep walks a property-path automaton's edges
  /// through these; paths::EvalPathNfa reads RangeP once per label).
  using TripleRange = std::pair<const Triple*, const Triple*>;
  /// (s, p, *) in SPO order.
  TripleRange RangeSP(SymbolId s, SymbolId p) const;
  /// (*, p, o) in POS order.
  TripleRange RangePO(SymbolId p, SymbolId o) const;
  /// (*, p, *) in POS order.
  TripleRange RangeP(SymbolId p) const;
  /// (s, *, *) in SPO order.
  TripleRange RangeS(SymbolId s) const;
  /// (*, *, o) in OSP order.
  TripleRange RangeO(SymbolId o) const;

  bool Contains(SymbolId s, SymbolId p, SymbolId o) const;

  const std::vector<Triple>& triples() const { return EnsureSorted(); }

  /// Every term in subject or object position, sorted and distinct.
  /// Built once with the indexes and, like them, valid until the next
  /// Add. Path evaluation seeds its unbound sweeps and zero-length
  /// matches from it, and indexes its product by a term's rank here.
  const std::vector<SymbolId>& Terms() const;

  /// RankOf's answer for a term no triple holds.
  static constexpr uint32_t kNoRank = 0xffffffffu;
  /// The index of `t` in Terms(), or kNoRank; a binary search.
  uint32_t RankOf(SymbolId t) const;

  /// The ranks in Terms() of one triple's subject and object.
  struct TermRanks {
    uint32_t s = 0;
    uint32_t o = 0;
  };
  /// The ranks of the triples of RangeP(p), parallel to it: entry i
  /// belongs to the range's i-th triple. Built with the indexes, so a
  /// caller that walks a predicate's triples by rank searches for none.
  std::pair<const TermRanks*, const TermRanks*> RanksP(SymbolId p) const;

  std::set<SymbolId> SubjectSet() const;
  std::set<SymbolId> PredicateSet() const;
  std::set<SymbolId> ObjectSet() const;

 private:
  const std::vector<Triple>& EnsureSorted() const;

  mutable std::vector<Triple> spo_;   // sorted (s,p,o)
  mutable std::vector<Triple> pos_;   // sorted by (p,o,s)
  mutable std::vector<Triple> osp_;   // sorted by (o,s,p)
  mutable std::vector<SymbolId> terms_;  // see Terms()
  mutable std::vector<TermRanks> pos_ranks_;  // parallel to pos_
  mutable bool dirty_ = false;
};

/// Structure metrics from the practical studies of Section 7.1
/// (Ding-Finin, Bachlechner-Strang, Fernandez et al.).
struct RdfStructureStats {
  size_t num_triples = 0;
  size_t num_subjects = 0;
  size_t num_predicates = 0;
  size_t num_objects = 0;

  /// |P ∩ S| / |P ∪ S| and |P ∩ O| / |P ∪ O| — near zero in practice,
  /// justifying the edge-labeled-graph abstraction (Fernandez et al.).
  double predicate_subject_overlap = 0;
  double predicate_object_overlap = 0;

  /// Out-degree (triples per subject) and in-degree (triples per object).
  double out_degree_mean = 0, out_degree_max = 0;
  double in_degree_mean = 0, in_degree_max = 0;
  /// Power-law MLE exponents of the degree distributions.
  double out_degree_alpha = 0, in_degree_alpha = 0;

  /// Predicate lists L_s (Section 7.1.2): distinct predicate sets over
  /// subjects; the ratio is near 0.01 in practice ("subjects almost
  /// always have the same set of labels").
  size_t distinct_predicate_lists = 0;
  double predicate_list_ratio = 0;  // distinct lists / subjects

  /// Mean objects per (s,p) pair and subjects per (p,o) pair; both are
  /// close to 1 in real data, the latter with high variance.
  double objects_per_sp = 0;
  double subjects_per_po = 0;
  double subjects_per_po_stddev = 0;
  /// Mean predicates per object (close to 1 in the wild).
  double predicates_per_object = 0;
};

RdfStructureStats AnalyzeRdfStructure(const TripleStore& store);

}  // namespace rwdt::graph

#endif  // RWDT_GRAPH_RDF_H_
