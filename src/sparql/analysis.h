#ifndef RWDT_SPARQL_ANALYSIS_H_
#define RWDT_SPARQL_ANALYSIS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sparql/algebra.h"

namespace rwdt::sparql {

/// Per-query feature flags, the row dimensions of the paper's Table 3.
enum class Feature {
  kDistinct,
  kLimit,
  kOffset,
  kOrderBy,
  kFilter,
  kAnd,
  kOptional,
  kUnion,
  kGraph,
  kValues,
  kNotExists,
  kMinus,
  kExists,
  kGroupBy,
  kCount,
  kHaving,
  kAvg,
  kMin,
  kMax,
  kSum,
  kService,
  kPropertyPaths,
  kBind,
  kSubquery,
};

inline constexpr size_t kNumFeatures =
    static_cast<size_t>(Feature::kSubquery) + 1;

/// A set of Features, one bit per enumerator, with the std::set-like
/// interface its callers use. Iteration is in enum order, which is the
/// order of every rendered feature list (serve's verdict JSON).
class FeatureSet {
 public:
  class Iterator {
   public:
    explicit Iterator(uint32_t rest) : rest_(rest) {}
    Feature operator*() const {
      return static_cast<Feature>(std::countr_zero(rest_));
    }
    Iterator& operator++() {
      rest_ &= rest_ - 1;  // drop the lowest member
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    uint32_t rest_ = 0;  // members not yet visited
  };

  void insert(Feature f) { bits_ |= Bit(f); }
  size_t count(Feature f) const { return (bits_ & Bit(f)) != 0 ? 1 : 0; }
  size_t size() const { return static_cast<size_t>(std::popcount(bits_)); }
  bool empty() const { return bits_ == 0; }
  Iterator begin() const { return Iterator(bits_); }
  Iterator end() const { return Iterator(0); }
  bool operator==(const FeatureSet&) const = default;

 private:
  static uint32_t Bit(Feature f) {
    return uint32_t{1} << static_cast<unsigned>(f);
  }
  uint32_t bits_ = 0;
};
static_assert(kNumFeatures <= 32, "FeatureSet holds one bit per Feature");

std::string FeatureName(Feature f);

/// All Table 3 features, in the paper's row order.
const std::vector<Feature>& AllFeatures();

/// Extracts the set of features a query uses.
FeatureSet ExtractFeatures(const Query& q);

/// Pattern-operator sets for Tables 4 and 5: which of And / Filter /
/// property-path (2RPQ) / "other" operators the pattern uses.
struct OperatorSet {
  bool uses_and = false;
  bool uses_filter = false;
  bool uses_path = false;   // 2RPQ
  bool uses_other = false;  // Union/Optional/Graph/Values/...: leaves
                            // the CQ+F / C2RPQ+F fragments

  /// CQ per Section 9.4: the pattern only uses And (or nothing).
  bool IsCq() const { return !uses_filter && !uses_path && !uses_other; }
  /// CQ+F: only And and Filter.
  bool IsCqF() const { return !uses_path && !uses_other; }
  /// C2RPQ+F: only And, Filter, and property paths.
  bool IsC2RpqF() const { return !uses_other; }
};

OperatorSet ExtractOperatorSet(const Query& q);

/// Well-designedness (Perez et al., Section 9.1): the query may use only
/// And, Filter, and Optional, and for every OPTIONAL subpattern
/// (P1 OPT P2), every variable of P2 that occurs elsewhere in the query
/// outside the subpattern also occurs in P1. Returns false when the
/// query uses other operators (callers should first check
/// UsesOnlyAndFilterOptional).
bool UsesOnlyAndFilterOptional(const Query& q);
bool IsWellDesigned(const Query& q);

/// The arrays IsWellDesigned fills for one query. A caller that checks
/// query after query (each engine shard) keeps one and passes it in, so
/// they are allocated once, not per query.
struct WellDesignedScratch {
  struct Node {
    const Pattern* pattern;
    uint32_t end;       // one past the last number in the subtree
    uint32_t mentions;  // index of the node's first own mention
  };
  std::vector<Node> nodes;                             // in pre-order
  std::vector<SymbolId> mentions;                      // node by node
  std::vector<std::pair<SymbolId, uint32_t>> by_var;  // (var, node)
};
bool IsWellDesigned(const Query& q, WellDesignedScratch* scratch);

/// CQ+F queries "suitable for graph analysis" (Section 9.5): every
/// triple pattern's predicate is an IRI or a variable not shared with
/// other triple positions, and all filters are simple (<= 2 variables).
bool IsGraphCqF(const Query& q);

/// Safe filters only (unary or ?x = ?y), keeping the query conjunctive.
bool HasOnlySafeFilters(const Query& q);
bool HasOnlySimpleFilters(const Query& q);

}  // namespace rwdt::sparql

#endif  // RWDT_SPARQL_ANALYSIS_H_
