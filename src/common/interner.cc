#include "common/interner.h"

namespace rwdt {

SymbolId Interner::InternWithHash(uint64_t hash, std::string_view s) {
  if (slots_.empty()) Grow();
  uint64_t i = hash & mask_;
  while (true) {
    Slot& slot = slots_[i];
    if (slot.id == kInvalidSymbol) {
      const SymbolId id = static_cast<SymbolId>(names_.size());
      names_.push_back({arena_.Copy(s), i});
      slot.hash = hash;
      slot.id = id;
      if (2 * names_.size() > slots_.size()) Grow();
      return id;
    }
    if (slot.hash == hash && names_[slot.id].text == s) return slot.id;
    i = (i + 1) & mask_;
  }
}

SymbolId Interner::LookupWithHash(uint64_t hash, std::string_view s) const {
  if (slots_.empty()) return kInvalidSymbol;
  uint64_t i = hash & mask_;
  while (true) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidSymbol) return kInvalidSymbol;
    if (slot.hash == hash && names_[slot.id].text == s) return slot.id;
    i = (i + 1) & mask_;
  }
}

void Interner::Grow() {
  const size_t new_size = slots_.empty() ? 64 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_size, Slot{});
  mask_ = new_size - 1;
  // Reinsert from the stored hashes; the texts are untouched, so ids and
  // names_ stay exactly as assigned.
  for (const Slot& slot : old) {
    if (slot.id == kInvalidSymbol) continue;
    uint64_t i = slot.hash & mask_;
    while (slots_[i].id != kInvalidSymbol) i = (i + 1) & mask_;
    slots_[i] = slot;
    names_[slot.id].slot = i;
  }
}

void Interner::Clear() {
  for (const Entry& name : names_) slots_[name.slot] = Slot{};
  names_.clear();
  arena_.Clear();
}

}  // namespace rwdt
