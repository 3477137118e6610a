#ifndef RWDT_COMMON_FLAT_INTERNER_H_
#define RWDT_COMMON_FLAT_INTERNER_H_

#include "common/interner.h"

namespace rwdt {

/// The former name of the arena-backed interner, kept for code that
/// still spells it.
using FlatInterner = Interner;

}  // namespace rwdt

#endif  // RWDT_COMMON_FLAT_INTERNER_H_
