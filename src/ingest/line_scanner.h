#ifndef RWDT_INGEST_LINE_SCANNER_H_
#define RWDT_INGEST_LINE_SCANNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/arena.h"
#include "ingest/block_reader.h"

namespace rwdt::ingest {

/// Splits a BlockReader's blocks into terminator-free line records
/// without materializing a std::string per line.
///
/// Behavioral contract — byte-for-byte identical to a plain
/// std::getline splitter, proven by ingest_test's differential tests
/// against the reference splitter kept in that test:
///
///   * Records are separated by '\n'; one trailing '\r' is stripped
///     from the kept bytes (CRLF logs), and a final record without a
///     terminating newline is still emitted.
///   * A record longer than `max_line_bytes` keeps only its first
///     `max_line_bytes` bytes and is flagged `overflow` — the rest is
///     scanned (and counted) but never buffered, so memory stays
///     bounded no matter what the log contains.
///   * `*bytes` accounting counts every byte consumed, terminator and
///     overflowed tail included.
///   * `ascii` says whether every kept byte is < 0x80. The newline scan
///     learns it in the same pass over the bytes (swar::ScanToByte), so
///     a consumer validating UTF-8 can skip the lines that need none.
///
/// Zero-copy rule: a record that lies entirely inside one block is
/// returned as a view into that block — no copy. The one record that
/// straddles a block boundary (amortized: one per block) is stitched
/// into `carry_arena` and returned as a view into it
/// (`carry_stitches()` counts these). Views therefore stay valid until
/// (a) the carry arena is reset AND (b), in unstable-block mode, the
/// reader advances. The release hook fires before the scanner fetches
/// a new block from an unstable reader, so a consumer batching views
/// can flush exactly when required and never otherwise.
class LineScanner {
 public:
  struct Line {
    std::string_view text;  // kept bytes, '\r'-stripped, <= max_line_bytes
    bool overflow = false;  // the record exceeded max_line_bytes
    bool ascii = false;     // every byte of `text` is < 0x80
  };

  /// `reader` and `carry_arena` are caller-owned and must outlive the
  /// scanner. The caller decides when to reset the arena (the ingest
  /// loop resets it after each engine flush, batching what used to be a
  /// per-entry allocation into one O(1) reset per chunk).
  LineScanner(BlockReader* reader, size_t max_line_bytes, Arena* carry_arena);

  /// Invoked just before the scanner releases the current block of an
  /// unstable reader (whose buffer is about to be overwritten). Never
  /// invoked for a stable (mmap) reader.
  void set_release_hook(std::function<void()> hook) {
    release_hook_ = std::move(hook);
  }

  /// Produces the next record. Returns false exactly at end of input.
  /// `*bytes` is incremented by every byte this record consumed.
  bool Next(Line* out, uint64_t* bytes);

  /// Records that straddled a block boundary and were re-assembled in
  /// the carry arena.
  uint64_t carry_stitches() const { return carry_stitches_; }

 private:
  bool FetchBlock();
  void AppendKept(std::string_view s);
  bool EmitCarry(Line* out, uint64_t* bytes, uint64_t record_len,
                 bool saw_newline);

  BlockReader* reader_;
  size_t max_;
  Arena* arena_;
  std::function<void()> release_hook_;

  std::string_view block_;  // unconsumed remainder of the current block
  std::string carry_;       // kept bytes of the in-progress straddling record
  bool seen_block_ = false;
  uint64_t carry_stitches_ = 0;
};

}  // namespace rwdt::ingest

#endif  // RWDT_INGEST_LINE_SCANNER_H_
