#ifndef RWDT_COMMON_SWAR_H_
#define RWDT_COMMON_SWAR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

// Wide scanning primitives for the ingest hot path: find a delimiter
// byte (newline, tab) and learn in the same pass whether any byte
// before it is >= 0x80, or find the end of an ASCII run, without
// touching bytes one at a time. Three tiers, best available picked at
// compile time:
//
//   * SSE2 (x86-64 baseline): 16 bytes per compare via _mm_cmpeq_epi8 +
//     movemask.
//   * NEON (aarch64 baseline): 16 bytes per compare via vceqq_u8 and a
//     64-bit narrowing fold.
//   * SWAR fallback (any 64-bit target): 8 bytes per step with the
//     broadcast-XOR zero-byte trick — portable C++, no intrinsics.
//
// Define RWDT_SWAR_FORCE_GENERIC to compile the SWAR tier everywhere.
// common_test checks the compiled tier and the SWAR tier against naive
// scans, and CI builds common_test, ingest_test and engine_test once
// more with the macro defined, so the SWAR tier also runs end to end.
//
// All loads go through std::memcpy, so unaligned input is fine on every
// target. Match positions are derived with countr_zero, which assumes
// little-endian byte order — same assumption common/hash.h already
// bakes in.

#if !defined(RWDT_SWAR_FORCE_GENERIC)
#if defined(__SSE2__)
#define RWDT_SWAR_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define RWDT_SWAR_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace rwdt::swar {

inline constexpr uint64_t kLowBits = 0x0101010101010101ull;
inline constexpr uint64_t kHighBits = 0x8080808080808080ull;

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// A word whose lowest set bit is the high bit of the first zero byte
/// of `w` (none when no byte is zero). The `& ~w` term removes the
/// classic trick's false positives below the first zero byte; above
/// it, a borrow can still flag a 0x01 byte, so callers read only the
/// lowest set bit.
inline uint64_t ZeroByteMask(uint64_t w) {
  return (w - kLowBits) & ~w & kHighBits;
}

/// ZeroByteMask for the bytes of `w` equal to `b`: its lowest set bit
/// marks the first of them.
inline uint64_t ByteEqMask(uint64_t w, char b) {
  const uint64_t pattern = kLowBits * static_cast<uint8_t>(b);
  return ZeroByteMask(w ^ pattern);
}

/// Where ScanToByte stopped: the offset of the delimiter (or n), and
/// whether every byte before that offset is ASCII (< 0x80).
struct ByteScan {
  size_t at;
  bool ascii;
};

/// Bits below the lowest set bit of a nonzero mask: in a byte mask, the
/// lanes that precede the first match.
template <typename Mask>
inline Mask BelowLowest(Mask mask) {
  return (mask & (Mask{0} - mask)) - 1;
}

/// The offset of the first `b` in [p, p+n) (or n), and an ASCII check
/// of the bytes before it, in one pass: each word passed is OR-ed into
/// one accumulator, and the word holding the match contributes only
/// the lanes before it. Pure SWAR tier; ScanToByte below picks the
/// best available tier.
inline ByteScan ScanToByteGeneric(const char* p, size_t n, char b) {
  uint64_t seen = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t w = LoadWord(p + i);
    const uint64_t mask = ByteEqMask(w, b);
    if (mask != 0) {
      seen |= w & BelowLowest(mask);
      return {i + static_cast<size_t>(std::countr_zero(mask)) / 8,
              (seen & kHighBits) == 0};
    }
    seen |= w;
  }
  for (; i < n && p[i] != b; ++i) seen |= static_cast<unsigned char>(p[i]);
  return {i, (seen & kHighBits) == 0};
}

/// Length of the leading pure-ASCII run of [p, p+n) (bytes < 0x80),
/// measured 8 bytes at a time. UTF-8 validation uses this to skip the
/// overwhelmingly common case without per-byte branching.
inline size_t AsciiPrefixGeneric(const char* p, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t mask = LoadWord(p + i) & kHighBits;
    if (mask != 0) {
      return i + static_cast<size_t>(std::countr_zero(mask)) / 8;
    }
  }
  for (; i < n; ++i) {
    if (static_cast<unsigned char>(p[i]) >= 0x80) return i;
  }
  return n;
}

#if defined(RWDT_SWAR_SSE2)

inline size_t AsciiPrefix(const char* p, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i chunk;
    std::memcpy(&chunk, p + i, sizeof(chunk));
    const int mask = _mm_movemask_epi8(chunk);  // high bit of each byte
    if (mask != 0) {
      return i + static_cast<size_t>(
                     std::countr_zero(static_cast<unsigned>(mask)));
    }
  }
  return i + AsciiPrefixGeneric(p + i, n - i);
}

inline ByteScan ScanToByte(const char* p, size_t n, char b) {
  const __m128i pattern = _mm_set1_epi8(b);
  __m128i seen = _mm_setzero_si128();  // OR of the chunks passed
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i chunk;
    std::memcpy(&chunk, p + i, sizeof(chunk));
    const unsigned mask = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(chunk, pattern)));
    if (mask != 0) {
      const unsigned high =
          static_cast<unsigned>(_mm_movemask_epi8(seen)) |
          (static_cast<unsigned>(_mm_movemask_epi8(chunk)) &
           BelowLowest(mask));
      return {i + static_cast<size_t>(std::countr_zero(mask)), high == 0};
    }
    seen = _mm_or_si128(seen, chunk);
  }
  const ByteScan rest = ScanToByteGeneric(p + i, n - i, b);
  return {i + rest.at, rest.ascii && _mm_movemask_epi8(seen) == 0};
}

#elif defined(RWDT_SWAR_NEON)

/// Folds a 16-byte compare result into a 64-bit word with 4 bits per
/// lane (the vshrn-by-4 trick), so countr_zero / 4 yields the lane.
inline uint64_t NeonMask(uint8x16_t eq) {
  const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

inline size_t AsciiPrefix(const char* p, size_t n) {
  const uint8x16_t high = vdupq_n_u8(0x80);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t chunk;
    std::memcpy(&chunk, p + i, sizeof(chunk));
    const uint64_t mask = NeonMask(vtstq_u8(chunk, high));
    if (mask != 0) {
      return i + static_cast<size_t>(std::countr_zero(mask)) / 4;
    }
  }
  return i + AsciiPrefixGeneric(p + i, n - i);
}

inline ByteScan ScanToByte(const char* p, size_t n, char b) {
  const uint8x16_t pattern = vdupq_n_u8(static_cast<uint8_t>(b));
  const uint8x16_t high = vdupq_n_u8(0x80);
  uint8x16_t seen = vdupq_n_u8(0);  // OR of the chunks passed
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint8x16_t chunk;
    std::memcpy(&chunk, p + i, sizeof(chunk));
    const uint64_t mask = NeonMask(vceqq_u8(chunk, pattern));
    if (mask != 0) {
      const uint64_t seen_high =
          NeonMask(vtstq_u8(seen, high)) |
          (NeonMask(vtstq_u8(chunk, high)) & BelowLowest(mask));
      return {i + static_cast<size_t>(std::countr_zero(mask)) / 4,
              seen_high == 0};
    }
    seen = vorrq_u8(seen, chunk);
  }
  const ByteScan rest = ScanToByteGeneric(p + i, n - i, b);
  return {i + rest.at,
          rest.ascii && NeonMask(vtstq_u8(seen, high)) == 0};
}

#else

inline size_t AsciiPrefix(const char* p, size_t n) {
  return AsciiPrefixGeneric(p, n);
}

inline ByteScan ScanToByte(const char* p, size_t n, char b) {
  return ScanToByteGeneric(p, n, b);
}

#endif

}  // namespace rwdt::swar

#endif  // RWDT_COMMON_SWAR_H_
