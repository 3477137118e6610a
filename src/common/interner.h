#ifndef RWDT_COMMON_INTERNER_H_
#define RWDT_COMMON_INTERNER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash.h"

namespace rwdt {

/// Dense integer id for an interned string. Ids start at 0 and are assigned
/// in first-seen order, so they are stable for a fixed insertion sequence.
using SymbolId = uint32_t;

inline constexpr SymbolId kInvalidSymbol = 0xffffffffu;

/// Bidirectional string <-> dense-id dictionary: an open-addressing table
/// over strings copied into a bump arena.
///
/// The one symbol table of the library: the label dictionary for trees,
/// the IRI/literal dictionary for RDF stores, the alphabet for regular
/// expressions, the variable/IRI/literal dictionary of every SPARQL and
/// property-path parse, and the engine's per-shard dedup table.
/// Interning makes all downstream algorithms operate on small integers.
///
///  * **Hash-once.** `InternWithHash` accepts a precomputed
///    `common::Hash64`, so the engine hashes each query text exactly once
///    (in Feed routing) and threads the hash through dedup instead of
///    re-hashing it.
///  * **Allocation-free steady state.** Strings are copied into an
///    `Arena`; `Clear()` recycles both the slot table and the arena
///    blocks, so a worker reusing one interner per query stops touching
///    the heap once warmed up.
///  * **Flat probing.** Linear probing over a power-of-two slot array of
///    (hash, id) pairs: one cache line per probe, no pointer chasing.
///
/// Movable, not copyable. Not thread-safe; each engine shard/worker owns
/// its own instance.
class Interner {
 public:
  Interner() = default;

  /// Returns the id for `s`, interning it if new.
  SymbolId Intern(std::string_view s) { return InternWithHash(Hash64(s), s); }

  /// Same, with the caller-provided `Hash64(s)` (hash-once fast path).
  /// `hash` must equal `Hash64(s)` with the default seed.
  SymbolId InternWithHash(uint64_t hash, std::string_view s);

  /// Returns the id for `s`, or kInvalidSymbol when absent.
  SymbolId Lookup(std::string_view s) const {
    return LookupWithHash(Hash64(s), s);
  }
  SymbolId LookupWithHash(uint64_t hash, std::string_view s) const;

  /// Returns the string for an id. Requires `id < size()`. The view
  /// points into the arena, so later Intern calls leave it valid; only
  /// Clear() (or destroying the interner) invalidates it.
  std::string_view Name(SymbolId id) const { return names_[id].text; }

  size_t size() const { return names_.size(); }

  /// Bytes reserved by the slot table, the arena blocks, and the name
  /// index — the interner's resident footprint. Clear() keeps reserved
  /// memory, so this is a high-water mark, which is exactly what the
  /// occupancy gauges on /metrics want to show.
  size_t bytes_reserved() const {
    return slots_.capacity() * sizeof(Slot) + arena_.bytes_reserved() +
           names_.capacity() * sizeof(Entry);
  }

  /// Forgets all symbols but keeps the slot table and arena blocks, so
  /// the next fill cycle allocates nothing (resize-across-clear: a table
  /// grown by one query stays grown for the next). Resets only the slots
  /// in use, so a table grown by one large query does not make every
  /// later Clear pay for its size.
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    SymbolId id = kInvalidSymbol;  // kInvalidSymbol == empty slot
  };
  struct Entry {
    std::string_view text;  // arena-backed
    uint64_t slot;          // index of the symbol's slot in slots_
  };

  void Grow();

  /// Max load factor 1/2: slots_.size() >= 2 * size() + 1.
  std::vector<Slot> slots_;  // power-of-two sized; empty until first use
  uint64_t mask_ = 0;        // slots_.size() - 1
  Arena arena_;
  std::vector<Entry> names_;  // id -> text and slot
};

}  // namespace rwdt

#endif  // RWDT_COMMON_INTERNER_H_
