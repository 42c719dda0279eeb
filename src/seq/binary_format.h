// seqhidb v1: a versioned, mmap-able binary sequence-database format.
//
// The text format (src/seq/io.h) is the import path; seqhidb is the
// serving path. A file holds one header plus nine 8-byte-aligned
// sections: the interned alphabet (offsets + concatenated names),
// columnar sequence storage (one flat symbol array + a row-offset
// table), and precomputed sorted indexes (per-symbol posting lists of
// row ids, plus a pattern-prefix index keyed on the first k symbols of a
// pattern). Every integer is little-endian; the header and every section
// carry an FNV-1a-64 checksum; the header pins an explicit version and
// endianness tag.
//
// MappedDatabase::OpenMapped validates the header, the section-table
// geometry, and the alphabet — O(header + |Σ|) work, independent of the
// number of rows — then serves rows as zero-copy SequenceViews straight
// out of the mapping. Because the mapping is MAP_SHARED/PROT_READ, all
// processes reading one file share one set of physical pages. Row
// offsets are *not* validated at open (that would be O(|D|)); row()
// clamps them so access is always memory-safe. ValidateRows() checks the
// rows in O(|D| + total symbols) — what seqhide_server runs before it
// serves an image — and VerifyChecksums() performs the full O(file)
// validation on demand.
//
// The complete byte-level layout is specified in docs/binary-format.md.

#ifndef SEQHIDE_SEQ_BINARY_FORMAT_H_
#define SEQHIDE_SEQ_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/seq/database.h"
#include "src/seq/mmap_file.h"
#include "src/seq/view.h"

namespace seqhide {

// "SEQHIDB\0" — the first eight bytes of every seqhidb file.
inline constexpr unsigned char kBinaryMagic[8] = {'S', 'E', 'Q', 'H',
                                                  'I', 'D', 'B', '\0'};
inline constexpr uint32_t kBinaryFormatVersion = 1;
// Stored in the header as written; a byte-swapped value on read means the
// file was produced on (or mangled for) a big-endian machine.
inline constexpr uint32_t kBinaryEndianTag = 0x1A2B3C4Du;
inline constexpr size_t kBinaryNumSections = 9;
// 64 fixed bytes + 9 section descriptors of 24 bytes + 8-byte header FNV.
inline constexpr size_t kBinaryHeaderBytes =
    64 + kBinaryNumSections * 24 + 8;

// Section indexes in the header's section table (file order).
enum BinarySectionId : size_t {
  kSecAlphaOffsets = 0,   // (|Σ|+1) × u64 byte offsets into alpha_names
  kSecAlphaNames = 1,     // concatenated UTF-8 symbol names
  kSecRowOffsets = 2,     // (|D|+1) × u64 symbol-index offsets into columns
  kSecColumns = 3,        // num_symbols × i32 symbol ids (Δ = -1)
  kSecPostOffsets = 4,    // (|Σ|+1) × u64 element offsets into post_rows
  kSecPostRows = 5,       // sorted u32 row ids, one run per symbol
  kSecPrefixKeys = 6,     // num_prefix_keys × prefix_k × i32, sorted keys
  kSecPrefixOffsets = 7,  // (num_prefix_keys+1) × u64 offsets into prefix_rows
  kSecPrefixRows = 8,     // sorted u32 row ids, one run per key
};

struct BinarySection {
  uint64_t offset = 0;  // absolute byte offset; 8-aligned
  uint64_t bytes = 0;
  uint64_t fnv = 0;  // FNV-1a-64 of the section's bytes
};

struct BinaryHeader {
  uint32_t version = 0;
  uint64_t file_bytes = 0;
  uint64_t num_rows = 0;
  uint64_t num_symbols = 0;  // total symbols across rows, Δ included
  uint64_t alphabet_size = 0;
  uint64_t prefix_k = 0;  // 0 = no prefix index
  uint64_t num_prefix_keys = 0;
  BinarySection sections[kBinaryNumSections];
  uint64_t header_fnv = 0;
};

struct BinaryWriteOptions {
  // First-k-symbols pattern index. v1 writers emit k = 0 (disabled) or
  // k = 2 (ordered symbol pairs); readers accept any k. The writer
  // silently disables the index above kBinaryPrefixAlphabetLimit symbols
  // — the pair space gets too dense to be worth the bytes.
  size_t prefix_k = 2;
};

// Alphabets larger than this get no prefix index from the v1 writer.
inline constexpr size_t kBinaryPrefixAlphabetLimit = 4096;

// Serializes `db` as a seqhidb v1 image. Deterministic: equal databases
// produce byte-identical images.
Result<std::string> WriteBinaryDatabaseToString(
    const SequenceDatabase& db, const BinaryWriteOptions& opts = {});

// Writes atomically: <path>.tmp, fsync, then rename (plus a best-effort
// directory fsync). The destination is either the complete new file or
// whatever was there before — never a torn write — across both process
// crashes and power loss.
Status WriteBinaryDatabaseToFile(const SequenceDatabase& db,
                                 const std::string& path,
                                 const BinaryWriteOptions& opts = {});

// True if the buffer starts with the seqhidb magic (format sniffing for
// --db-format auto; a positive does not imply the file is valid).
bool LooksLikeBinaryDatabase(const unsigned char* data, size_t size);
// Reads the first bytes of `path`; NotFound/IOError surface as-is.
Result<bool> FileLooksLikeBinaryDatabase(const std::string& path);

struct MappedOpenOptions {
  // When true, OpenMapped/FromBuffer additionally run VerifyChecksums()
  // — full O(file) integrity + structural validation — before returning.
  bool verify_checksums = false;
};

// A read-only sequence database served from a seqhidb image without
// materializing rows. Rows, posting lists, and prefix postings are
// zero-copy pointers into the mapping.
class MappedDatabase {
 public:
  // Sorted row ids inside a mapped index section.
  struct RowIdSpan {
    const uint32_t* data = nullptr;
    size_t size = 0;
    const uint32_t* begin() const { return data; }
    const uint32_t* end() const { return data + size; }
  };

  MappedDatabase(MappedDatabase&&) noexcept = default;
  MappedDatabase& operator=(MappedDatabase&&) noexcept = default;
  MappedDatabase(const MappedDatabase&) = delete;
  MappedDatabase& operator=(const MappedDatabase&) = delete;

  // Maps `path` and validates header + alphabet. O(header + |Σ|): the
  // open cost does not grow with the number of rows.
  static Result<MappedDatabase> OpenMapped(const std::string& path,
                                           const MappedOpenOptions& opts = {});

  // Same validation over an in-memory image (copied into owned aligned
  // storage); used by tests, fuzzing, and streaming receivers.
  static Result<MappedDatabase> FromBuffer(const std::string& bytes,
                                           const MappedOpenOptions& opts = {});

  const BinaryHeader& header() const { return header_; }
  size_t size() const { return static_cast<size_t>(header_.num_rows); }
  bool empty() const { return header_.num_rows == 0; }
  size_t total_symbols() const {
    return static_cast<size_t>(header_.num_symbols);
  }
  size_t file_bytes() const { return size_; }
  const Alphabet& alphabet() const { return alphabet_; }

  // Row `t` as a zero-copy view. Offsets are clamped to the column
  // section (corrupt offsets yield a truncated or empty view, never an
  // out-of-bounds read); `t` must be < size().
  SequenceView row(size_t t) const {
    uint64_t begin = row_offsets_[t];
    uint64_t end = row_offsets_[t + 1];
    const uint64_t n = header_.num_symbols;
    if (begin > n) begin = n;
    if (end > n || end < begin) end = begin;
    return SequenceView(columns_ + begin, static_cast<size_t>(end - begin));
  }
  SequenceView operator[](size_t t) const { return row(t); }

  // Whole-database view for the src/match and src/hide kernels; O(1).
  // `alphabet` defaults to the image's own; pass a superset of it (a
  // private copy patterns were parsed into), exactly as for
  // DatabaseView(db, &alphabet).
  DatabaseView view(const Alphabet* alphabet = nullptr) const {
    return DatabaseView(columns_, row_offsets_, size(), total_symbols(),
                        alphabet != nullptr ? alphabet : &alphabet_);
  }

  // Sorted row ids containing at least one occurrence of `s`; empty for
  // Δ or ids outside the alphabet.
  RowIdSpan PostingList(SymbolId s) const;

  // Sorted row ids that can possibly support `pattern` as a subsequence:
  // the intersection of its distinct symbols' posting lists, further
  // narrowed by the prefix index when the pattern has >= prefix_k
  // symbols. Exact superset of the true supporter set; an empty pattern
  // matches everything, so every row is a candidate.
  std::vector<size_t> CandidateRows(const Sequence& pattern) const;

  // O(|D| + total symbols) row validation, the part of VerifyChecksums()
  // that makes clamping in row() unnecessary: the row offsets start at 0,
  // are monotone, and cover the column section exactly, and every column
  // symbol is Δ or an alphabet id. Corruption otherwise.
  Status ValidateRows() const;

  // Materializes an in-memory SequenceDatabase (alphabet ids preserved)
  // after ValidateRows(): Corruption instead of clamped rows.
  Result<SequenceDatabase> ToDatabase() const;

  // Equivalent of SequenceDatabase::Stats() computed off the mapping.
  DatabaseStats Stats() const;

  // Full O(file) validation: recomputes every section checksum and
  // checks the structural invariants open-time validation skips (row
  // offsets monotone and bounded, symbol ids in range, postings and
  // prefix keys sorted and in range).
  Status VerifyChecksums() const;

 private:
  MappedDatabase() = default;

  // Parses + validates the image at data_/size_ and sets every pointer.
  Status Init(const MappedOpenOptions& opts);

  MmapFile file_;                 // when opened from disk
  std::vector<uint64_t> buffer_;  // when opened from memory (8-aligned)
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;

  BinaryHeader header_;
  Alphabet alphabet_;
  const uint64_t* row_offsets_ = nullptr;
  const SymbolId* columns_ = nullptr;
  const uint64_t* post_offsets_ = nullptr;
  const uint32_t* post_rows_ = nullptr;
  const SymbolId* prefix_keys_ = nullptr;
  const uint64_t* prefix_offsets_ = nullptr;
  const uint32_t* prefix_rows_ = nullptr;
};

}  // namespace seqhide

#endif  // SEQHIDE_SEQ_BINARY_FORMAT_H_
