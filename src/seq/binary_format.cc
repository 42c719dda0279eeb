#include "src/seq/binary_format.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "src/common/fault_injection.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a64(const unsigned char* p, size_t len) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

uint32_t GetU32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

constexpr uint64_t Align8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

// Sanity ceiling on header element counts: large enough for any real
// database (2^47 elements), small enough that count*8+8 can never
// overflow a u64 during section-size arithmetic.
constexpr uint64_t kMaxCount = uint64_t{1} << 47;

// Names that survive the text round trip: non-empty, no whitespace or
// control bytes (the text reader splits on whitespace and rejects
// non-whitespace control characters), and not the Δ token.
Status ValidateSymbolName(std::string_view name) {
  if (name.empty()) {
    return Status::Corruption("alphabet contains an empty symbol name");
  }
  for (unsigned char c : name) {
    if (c <= 0x20 || c == 0x7F) {
      return Status::Corruption(
          "alphabet name contains whitespace or control bytes");
    }
  }
  if (name == Alphabet::DeltaToken()) {
    return Status::Corruption("alphabet name collides with the delta token");
  }
  return Status::OK();
}

// Lexicographic compare of two k-symbol prefix keys.
int CompareKeys(const SymbolId* a, const SymbolId* b, size_t k) {
  for (size_t i = 0; i < k; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace

Result<std::string> WriteBinaryDatabaseToString(const SequenceDatabase& db,
                                                const BinaryWriteOptions& opts) {
  if (opts.prefix_k != 0 && opts.prefix_k != 2) {
    return Status::InvalidArgument(
        "seqhidb v1 writes prefix_k = 0 or 2, got " +
        std::to_string(opts.prefix_k));
  }
  const Alphabet& alpha = db.alphabet();
  if (db.size() > uint64_t{0xFFFFFFFF}) {
    return Status::InvalidArgument(
        "seqhidb v1 posting lists hold u32 row ids; database has " +
        std::to_string(db.size()) + " rows");
  }
  const size_t prefix_k =
      alpha.size() > kBinaryPrefixAlphabetLimit ? 0 : opts.prefix_k;

  std::string sections[kBinaryNumSections];

  // Alphabet: byte offsets into the concatenated names blob.
  {
    uint64_t off = 0;
    for (size_t i = 0; i < alpha.size(); ++i) {
      PutU64(&sections[kSecAlphaOffsets], off);
      const std::string& name = alpha.Name(static_cast<SymbolId>(i));
      sections[kSecAlphaNames] += name;
      off += name.size();
    }
    PutU64(&sections[kSecAlphaOffsets], off);
  }

  // Columnar rows plus per-symbol posting lists in one pass.
  uint64_t num_symbols = 0;
  std::vector<std::vector<uint32_t>> postings(alpha.size());
  {
    for (size_t t = 0; t < db.size(); ++t) {
      PutU64(&sections[kSecRowOffsets], num_symbols);
      const Sequence& seq = db[t];
      for (size_t j = 0; j < seq.size(); ++j) {
        const SymbolId s = seq[j];
        PutI32(&sections[kSecColumns], s);
        if (IsRealSymbol(s)) {
          std::vector<uint32_t>& rows = postings[static_cast<size_t>(s)];
          if (rows.empty() || rows.back() != t) {
            rows.push_back(static_cast<uint32_t>(t));
          }
        }
      }
      num_symbols += seq.size();
    }
    PutU64(&sections[kSecRowOffsets], num_symbols);

    uint64_t post_off = 0;
    for (size_t s = 0; s < alpha.size(); ++s) {
      PutU64(&sections[kSecPostOffsets], post_off);
      for (uint32_t t : postings[s]) PutU32(&sections[kSecPostRows], t);
      post_off += postings[s].size();
    }
    PutU64(&sections[kSecPostOffsets], post_off);
  }

  // Prefix index: for every ordered pair of symbols (a, b) occurring as a
  // length-2 subsequence of some row, the sorted rows containing it. A
  // pattern's first two symbols must form such a pair, so a key miss
  // proves support 0 without any DP. std::map keeps the keys sorted for
  // the reader's binary search.
  uint64_t num_prefix_keys = 0;
  if (prefix_k == 2) {
    std::map<std::pair<SymbolId, SymbolId>, std::vector<uint32_t>> prefix;
    std::vector<char> seen(alpha.size(), 0);
    std::vector<SymbolId> seen_list;
    for (size_t t = 0; t < db.size(); ++t) {
      std::fill(seen.begin(), seen.end(), 0);
      seen_list.clear();
      const Sequence& seq = db[t];
      for (size_t j = 0; j < seq.size(); ++j) {
        const SymbolId b = seq[j];
        if (!IsRealSymbol(b)) continue;
        for (SymbolId a : seen_list) {
          std::vector<uint32_t>& rows = prefix[{a, b}];
          if (rows.empty() || rows.back() != t) {
            rows.push_back(static_cast<uint32_t>(t));
          }
        }
        if (!seen[static_cast<size_t>(b)]) {
          seen[static_cast<size_t>(b)] = 1;
          seen_list.push_back(b);
        }
      }
    }
    num_prefix_keys = prefix.size();
    uint64_t off = 0;
    for (const auto& [key, rows] : prefix) {
      PutI32(&sections[kSecPrefixKeys], key.first);
      PutI32(&sections[kSecPrefixKeys], key.second);
      PutU64(&sections[kSecPrefixOffsets], off);
      for (uint32_t t : rows) PutU32(&sections[kSecPrefixRows], t);
      off += rows.size();
    }
    PutU64(&sections[kSecPrefixOffsets], off);
  }

  // Canonical layout: sections in enum order, each 8-aligned directly
  // after the previous one, zero padding between.
  uint64_t offsets[kBinaryNumSections];
  uint64_t cursor = kBinaryHeaderBytes;
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    offsets[i] = cursor;
    cursor = Align8(cursor + sections[i].size());
  }
  const uint64_t file_bytes = cursor;

  std::string out;
  out.reserve(static_cast<size_t>(file_bytes));
  out.append(reinterpret_cast<const char*>(kBinaryMagic), 8);
  PutU32(&out, kBinaryFormatVersion);
  PutU32(&out, kBinaryEndianTag);
  PutU64(&out, file_bytes);
  PutU64(&out, db.size());
  PutU64(&out, num_symbols);
  PutU64(&out, alpha.size());
  PutU64(&out, prefix_k);
  PutU64(&out, num_prefix_keys);
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    PutU64(&out, offsets[i]);
    PutU64(&out, sections[i].size());
    PutU64(&out, Fnv1a64(
        reinterpret_cast<const unsigned char*>(sections[i].data()),
        sections[i].size()));
  }
  PutU64(&out, Fnv1a64(reinterpret_cast<const unsigned char*>(out.data()),
                       out.size()));
  SEQHIDE_CHECK_EQ(out.size(), kBinaryHeaderBytes);
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    out += sections[i];
    out.resize(static_cast<size_t>(Align8(out.size())), '\0');
  }
  SEQHIDE_CHECK_EQ(out.size(), file_bytes);
  SEQHIDE_COUNTER_INC("bindb.writes");
  SEQHIDE_COUNTER_ADD("bindb.write.bytes", out.size());
  return out;
}

Status WriteBinaryDatabaseToFile(const SequenceDatabase& db,
                                 const std::string& path,
                                 const BinaryWriteOptions& opts) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string image,
                           WriteBinaryDatabaseToString(db, opts));
  // Write, fsync, then rename: the destination is either the complete
  // new image or whatever was there before — never a torn file — across
  // both process crashes and power loss. Without the fsync a journaling
  // filesystem may persist the rename ahead of the tmp file's data
  // blocks, leaving an empty or partial destination.
  const std::string tmp = path + ".tmp";
  if (SEQHIDE_FAULT_HIT("io.bindb.write.open")) {
    return Status::IOError("injected fault: io.bindb.write.open for " + tmp);
  }
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  bool write_ok = true;
  size_t done = 0;
  while (write_ok && done < image.size()) {
    const ssize_t n = ::write(fd, image.data() + done, image.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_ok = false;
    } else {
      done += static_cast<size_t>(n);
    }
  }
  if (write_ok && ::fsync(fd) != 0) write_ok = false;
  if (::close(fd) != 0) write_ok = false;
  if (!write_ok || SEQHIDE_FAULT_HIT("io.bindb.write")) {
    std::remove(tmp.c_str());
    return Status::IOError("failed writing " + tmp);
  }
  if (SEQHIDE_FAULT_HIT("io.bindb.write.rename")) {
    std::remove(tmp.c_str());
    return Status::IOError("injected fault: io.bindb.write.rename for " +
                           path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename " + tmp + " -> " + path + " failed");
  }
  // Persist the rename itself. Best-effort: the data is already durable,
  // so the worst case without this is the *old* file reappearing after
  // power loss, never a torn one.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

bool LooksLikeBinaryDatabase(const unsigned char* data, size_t size) {
  return size >= 8 && std::memcmp(data, kBinaryMagic, 8) == 0;
}

Result<bool> FileLooksLikeBinaryDatabase(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + path);
  }
  unsigned char head[8] = {0};
  in.read(reinterpret_cast<char*>(head), 8);
  return LooksLikeBinaryDatabase(head, static_cast<size_t>(in.gcount()));
}

Result<MappedDatabase> MappedDatabase::OpenMapped(
    const std::string& path, const MappedOpenOptions& opts) {
  SEQHIDE_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  MappedDatabase db;
  db.data_ = file.data();
  db.size_ = file.size();
  db.file_ = std::move(file);
  SEQHIDE_RETURN_IF_ERROR(db.Init(opts));
  SEQHIDE_COUNTER_INC("bindb.opens");
  return db;
}

Result<MappedDatabase> MappedDatabase::FromBuffer(
    const std::string& bytes, const MappedOpenOptions& opts) {
  MappedDatabase db;
  // Copy into u64 storage so section pointers are 8-aligned no matter
  // where the caller's string lived (value-initialized, so the tail pad
  // bytes of the last word are zero).
  db.buffer_.resize((bytes.size() + 7) / 8);
  if (!bytes.empty()) {
    std::memcpy(db.buffer_.data(), bytes.data(), bytes.size());
  }
  db.data_ = reinterpret_cast<const unsigned char*>(db.buffer_.data());
  db.size_ = bytes.size();
  SEQHIDE_RETURN_IF_ERROR(db.Init(opts));
  SEQHIDE_COUNTER_INC("bindb.opens");
  return db;
}

Status MappedDatabase::Init(const MappedOpenOptions& opts) {
  if (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "seqhidb mapped reads require a little-endian host");
  }
  if (size_ < kBinaryHeaderBytes) {
    return Status::Corruption("seqhidb file truncated: " +
                              std::to_string(size_) + " bytes is smaller " +
                              "than the " +
                              std::to_string(kBinaryHeaderBytes) +
                              "-byte header");
  }
  if (std::memcmp(data_, kBinaryMagic, 8) != 0) {
    return Status::Corruption("not a seqhidb file (bad magic)");
  }
  header_.version = GetU32(data_ + 8);
  const uint32_t endian_tag = GetU32(data_ + 12);
  if (endian_tag != kBinaryEndianTag) {
    if (endian_tag == __builtin_bswap32(kBinaryEndianTag)) {
      return Status::Corruption(
          "seqhidb file was written on a big-endian machine; re-export it "
          "from the text format");
    }
    return Status::Corruption("seqhidb endianness tag is corrupt");
  }
  if (header_.version == 0 || header_.version > kBinaryFormatVersion) {
    return Status::FailedPrecondition(
        "seqhidb version " + std::to_string(header_.version) +
        " is not supported by this build (max " +
        std::to_string(kBinaryFormatVersion) + ")");
  }
  const uint64_t stored_fnv = GetU64(data_ + kBinaryHeaderBytes - 8);
  if (Fnv1a64(data_, kBinaryHeaderBytes - 8) != stored_fnv) {
    return Status::Corruption("seqhidb header checksum mismatch");
  }
  header_.header_fnv = stored_fnv;
  header_.file_bytes = GetU64(data_ + 16);
  header_.num_rows = GetU64(data_ + 24);
  header_.num_symbols = GetU64(data_ + 32);
  header_.alphabet_size = GetU64(data_ + 40);
  header_.prefix_k = GetU64(data_ + 48);
  header_.num_prefix_keys = GetU64(data_ + 56);
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const unsigned char* p = data_ + 64 + i * 24;
    header_.sections[i].offset = GetU64(p);
    header_.sections[i].bytes = GetU64(p + 8);
    header_.sections[i].fnv = GetU64(p + 16);
  }

  if (header_.file_bytes != size_) {
    return Status::Corruption(
        "seqhidb file truncated: header says " +
        std::to_string(header_.file_bytes) + " bytes, file has " +
        std::to_string(size_));
  }
  if (header_.num_rows > uint64_t{0xFFFFFFFF}) {
    return Status::Corruption(
        "seqhidb v1 posting lists hold u32 row ids; header claims " +
        std::to_string(header_.num_rows) + " rows");
  }
  if (header_.num_rows > kMaxCount || header_.num_symbols > kMaxCount ||
      header_.alphabet_size > kMaxCount ||
      header_.num_prefix_keys > kMaxCount || header_.prefix_k > 16) {
    return Status::Corruption("seqhidb header counts are implausibly large");
  }
  if (header_.prefix_k == 0 && header_.num_prefix_keys != 0) {
    return Status::Corruption(
        "seqhidb header has prefix keys but no prefix index");
  }

  // Expected byte counts (0 means variable-length, checked for
  // granularity only) and the canonical section placement: each section
  // sits 8-aligned directly after the previous one.
  const uint64_t expected[kBinaryNumSections] = {
      (header_.alphabet_size + 1) * 8,
      0,
      (header_.num_rows + 1) * 8,
      header_.num_symbols * 4,
      (header_.alphabet_size + 1) * 8,
      0,
      header_.num_prefix_keys * header_.prefix_k * 4,
      header_.prefix_k == 0 ? 0 : (header_.num_prefix_keys + 1) * 8,
      0,
  };
  // Sections whose size is fully determined by the header counts; the
  // others (names, posting rows, prefix rows) are variable-length.
  const bool fixed_size[kBinaryNumSections] = {
      true, false, true, true, true, false, true, true, false};
  uint64_t cursor = kBinaryHeaderBytes;
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const BinarySection& sec = header_.sections[i];
    if (sec.offset != cursor) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " is misplaced");
    }
    if (sec.offset > size_ || sec.bytes > size_ - sec.offset) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " extends past the end of the file");
    }
    if (fixed_size[i] && sec.bytes != expected[i]) {
      return Status::Corruption(
          "seqhidb section " + std::to_string(i) + " has " +
          std::to_string(sec.bytes) + " bytes, expected " +
          std::to_string(expected[i]));
    }
    if ((i == kSecPostRows || i == kSecPrefixRows) && sec.bytes % 4 != 0) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " is not a whole number of u32 entries");
    }
    cursor = Align8(sec.offset + sec.bytes);
  }
  if (cursor != size_) {
    return Status::Corruption("seqhidb file has trailing bytes");
  }

  const auto sec_ptr = [&](size_t i) { return data_ + header_.sections[i].offset; };
  const uint64_t* alpha_offsets =
      reinterpret_cast<const uint64_t*>(sec_ptr(kSecAlphaOffsets));
  const char* alpha_names =
      reinterpret_cast<const char*>(sec_ptr(kSecAlphaNames));
  row_offsets_ = reinterpret_cast<const uint64_t*>(sec_ptr(kSecRowOffsets));
  columns_ = reinterpret_cast<const SymbolId*>(sec_ptr(kSecColumns));
  post_offsets_ = reinterpret_cast<const uint64_t*>(sec_ptr(kSecPostOffsets));
  post_rows_ = reinterpret_cast<const uint32_t*>(sec_ptr(kSecPostRows));
  prefix_keys_ = reinterpret_cast<const SymbolId*>(sec_ptr(kSecPrefixKeys));
  prefix_offsets_ =
      reinterpret_cast<const uint64_t*>(sec_ptr(kSecPrefixOffsets));
  prefix_rows_ = reinterpret_cast<const uint32_t*>(sec_ptr(kSecPrefixRows));

  // Build the alphabet — the one per-element cost of opening, O(|Σ|).
  const uint64_t names_bytes = header_.sections[kSecAlphaNames].bytes;
  for (uint64_t i = 0; i < header_.alphabet_size; ++i) {
    const uint64_t begin = alpha_offsets[i];
    const uint64_t end = alpha_offsets[i + 1];
    if (begin > end || end > names_bytes) {
      return Status::Corruption("seqhidb alphabet offsets are corrupt");
    }
    const std::string_view name(alpha_names + begin,
                                static_cast<size_t>(end - begin));
    SEQHIDE_RETURN_IF_ERROR(ValidateSymbolName(name));
    alphabet_.Intern(name);
  }
  if (alphabet_.size() != header_.alphabet_size) {
    return Status::Corruption("seqhidb alphabet contains duplicate names");
  }

  // Posting offsets are (|Σ|+1) entries — cheap to pin down now so
  // PostingList() needs no per-call clamping.
  const uint64_t num_post_rows = header_.sections[kSecPostRows].bytes / 4;
  for (uint64_t i = 0; i < header_.alphabet_size; ++i) {
    if (post_offsets_[i] > post_offsets_[i + 1]) {
      return Status::Corruption("seqhidb posting offsets are not monotone");
    }
  }
  // Also pins alphabet_size == 0: post_offsets_[0] is then both ends of
  // the table, so a canonical file must carry an empty post-rows section.
  if (post_offsets_[0] != 0 ||
      post_offsets_[header_.alphabet_size] != num_post_rows) {
    return Status::Corruption("seqhidb posting offsets do not cover the "
                              "posting rows section");
  }

  if (opts.verify_checksums) {
    SEQHIDE_RETURN_IF_ERROR(VerifyChecksums());
  }
  return Status::OK();
}

MappedDatabase::RowIdSpan MappedDatabase::PostingList(SymbolId s) const {
  if (!alphabet_.Contains(s)) return {};
  const uint64_t begin = post_offsets_[s];
  const uint64_t end = post_offsets_[s + 1];
  return RowIdSpan{post_rows_ + begin, static_cast<size_t>(end - begin)};
}

std::vector<size_t> MappedDatabase::CandidateRows(
    const Sequence& pattern) const {
  SEQHIDE_COUNTER_INC("bindb.candidate.calls");
  const size_t num_rows = size();
  std::vector<size_t> result;
  const auto finish = [&](std::vector<size_t> rows) {
    SEQHIDE_COUNTER_ADD("bindb.candidate.rows", rows.size());
    SEQHIDE_COUNTER_ADD("bindb.candidate.pruned", num_rows - rows.size());
    return rows;
  };

  // Gather the posting list of every distinct real symbol; a symbol with
  // no postings (or outside the alphabet) proves support 0. Δ symbols in
  // the pattern are ignored here — pruning must stay a superset and the
  // kernels define Δ semantics.
  std::vector<RowIdSpan> spans;
  std::vector<SymbolId> distinct;
  for (size_t i = 0; i < pattern.size(); ++i) {
    const SymbolId s = pattern[i];
    if (!IsRealSymbol(s)) continue;
    if (std::find(distinct.begin(), distinct.end(), s) != distinct.end()) {
      continue;
    }
    distinct.push_back(s);
    RowIdSpan span = PostingList(s);
    if (span.size == 0) return finish({});
    spans.push_back(span);
  }

  // Prefix index: the pattern's first prefix_k symbols must occur (in
  // order, gaps allowed) in any supporting row, so a key miss is a
  // proof of support 0 and a hit is one more list to intersect.
  const uint64_t k = header_.prefix_k;
  if (k > 0 && pattern.size() >= k) {
    bool usable = true;
    for (uint64_t i = 0; i < k; ++i) {
      if (!IsRealSymbol(pattern[i])) usable = false;
    }
    if (usable) {
      const SymbolId* key = pattern.symbols().data();
      size_t lo = 0, hi = static_cast<size_t>(header_.num_prefix_keys);
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (CompareKeys(prefix_keys_ + mid * k, key, k) < 0) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == header_.num_prefix_keys ||
          CompareKeys(prefix_keys_ + lo * k, key, k) != 0) {
        return finish({});
      }
      // Prefix offsets are not validated at open (the key space can be
      // |Σ|^k); clamp like row() does.
      const uint64_t total = header_.sections[kSecPrefixRows].bytes / 4;
      uint64_t begin = prefix_offsets_[lo];
      uint64_t end = prefix_offsets_[lo + 1];
      if (begin > total) begin = total;
      if (end > total || end < begin) end = begin;
      spans.push_back(
          RowIdSpan{prefix_rows_ + begin, static_cast<size_t>(end - begin)});
      if (spans.back().size == 0) return finish({});
    }
  }

  if (spans.empty()) {
    // Nothing to prune on (empty or all-Δ pattern): every row qualifies.
    result.resize(num_rows);
    for (size_t t = 0; t < num_rows; ++t) result[t] = t;
    return finish(std::move(result));
  }

  // Intersect smallest-first; all lists are sorted. Row ids out of range
  // (possible only in a corrupt file, since ids are validated lazily)
  // are dropped so callers can always index row() with the result.
  std::sort(spans.begin(), spans.end(),
            [](const RowIdSpan& a, const RowIdSpan& b) {
              return a.size < b.size;
            });
  std::vector<uint32_t> acc(spans[0].begin(), spans[0].end());
  std::vector<uint32_t> tmp;
  for (size_t i = 1; i < spans.size() && !acc.empty(); ++i) {
    tmp.clear();
    std::set_intersection(acc.begin(), acc.end(), spans[i].begin(),
                          spans[i].end(), std::back_inserter(tmp));
    acc.swap(tmp);
  }
  result.reserve(acc.size());
  for (uint32_t t : acc) {
    if (t < num_rows) result.push_back(t);
  }
  // Corrupt (unverified) posting lists may be unsorted or carry
  // duplicate ids, which set_intersection then propagates. Sort + dedupe
  // so the result keeps the sorted-unique contract, duplicate candidates
  // are never scored twice, and rows.size() can never exceed num_rows
  // (which would underflow the pruned counters).
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return finish(std::move(result));
}

Status MappedDatabase::ValidateRows() const {
  if (row_offsets_[0] != 0) {
    return Status::Corruption("seqhidb row offsets do not start at 0");
  }
  for (uint64_t t = 0; t < header_.num_rows; ++t) {
    const uint64_t begin = row_offsets_[t];
    const uint64_t end = row_offsets_[t + 1];
    if (begin > end || end > header_.num_symbols) {
      return Status::Corruption("seqhidb row " + std::to_string(t) +
                                " has corrupt offsets");
    }
  }
  if (row_offsets_[header_.num_rows] != header_.num_symbols) {
    return Status::Corruption(
        "seqhidb row offsets do not cover the column section");
  }
  // The offsets tile the column section, so every column is some row's.
  for (uint64_t j = 0; j < header_.num_symbols; ++j) {
    const SymbolId s = columns_[j];
    if (s != kDeltaSymbol && !alphabet_.Contains(s)) {
      return Status::Corruption("seqhidb column " + std::to_string(j) +
                                " holds symbol id " + std::to_string(s) +
                                " outside the alphabet");
    }
  }
  return Status::OK();
}

Result<SequenceDatabase> MappedDatabase::ToDatabase() const {
  SEQHIDE_RETURN_IF_ERROR(ValidateRows());
  SequenceDatabase out;
  for (uint64_t i = 0; i < header_.alphabet_size; ++i) {
    out.alphabet().Intern(alphabet_.Name(static_cast<SymbolId>(i)));
  }
  for (size_t t = 0; t < size(); ++t) out.Add(row(t).Materialize());
  return out;
}

DatabaseStats MappedDatabase::Stats() const {
  DatabaseStats stats;
  stats.num_sequences = size();
  stats.alphabet_size = alphabet_.size();
  if (empty()) return stats;
  stats.min_length = row(0).size();
  stats.max_length = row(0).size();
  for (size_t t = 0; t < size(); ++t) {
    const SequenceView seq = row(t);
    stats.total_symbols += seq.size();
    stats.total_marks += seq.MarkCount();
    stats.min_length = std::min(stats.min_length, seq.size());
    stats.max_length = std::max(stats.max_length, seq.size());
  }
  stats.mean_length = static_cast<double>(stats.total_symbols) /
                      static_cast<double>(stats.num_sequences);
  return stats;
}

Status MappedDatabase::VerifyChecksums() const {
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const BinarySection& sec = header_.sections[i];
    if (Fnv1a64(data_ + sec.offset, static_cast<size_t>(sec.bytes)) !=
        sec.fnv) {
      return Status::Corruption("seqhidb section " + std::to_string(i) +
                                " checksum mismatch");
    }
  }

  SEQHIDE_RETURN_IF_ERROR(ValidateRows());

  // Posting lists must exactly match a recount of the columns: strictly
  // ascending row ids, one run per symbol.
  {
    std::vector<std::vector<uint32_t>> expect(alphabet_.size());
    for (uint64_t t = 0; t < header_.num_rows; ++t) {
      for (uint64_t j = row_offsets_[t]; j < row_offsets_[t + 1]; ++j) {
        const SymbolId s = columns_[j];
        if (!IsRealSymbol(s)) continue;
        std::vector<uint32_t>& rows = expect[static_cast<size_t>(s)];
        if (rows.empty() || rows.back() != t) {
          rows.push_back(static_cast<uint32_t>(t));
        }
      }
    }
    for (size_t s = 0; s < alphabet_.size(); ++s) {
      const RowIdSpan got = PostingList(static_cast<SymbolId>(s));
      if (got.size != expect[s].size() ||
          !std::equal(got.begin(), got.end(), expect[s].begin())) {
        return Status::Corruption("seqhidb posting list for symbol " +
                                  std::to_string(s) +
                                  " disagrees with the columns");
      }
    }
  }

  // Prefix index structure: strictly ascending keys, offsets covering
  // the rows section, each run strictly ascending with in-range ids.
  if (header_.prefix_k > 0) {
    const uint64_t k = header_.prefix_k;
    const uint64_t nkeys = header_.num_prefix_keys;
    for (uint64_t i = 1; i < nkeys; ++i) {
      if (CompareKeys(prefix_keys_ + (i - 1) * k, prefix_keys_ + i * k,
                      static_cast<size_t>(k)) >= 0) {
        return Status::Corruption("seqhidb prefix keys are not sorted");
      }
    }
    const uint64_t total = header_.sections[kSecPrefixRows].bytes / 4;
    if (prefix_offsets_[0] != 0 || prefix_offsets_[nkeys] != total) {
      return Status::Corruption(
          "seqhidb prefix offsets do not cover the prefix rows section");
    }
    for (uint64_t i = 0; i < nkeys; ++i) {
      const uint64_t begin = prefix_offsets_[i];
      const uint64_t end = prefix_offsets_[i + 1];
      if (begin > end) {
        return Status::Corruption("seqhidb prefix offsets are not monotone");
      }
      for (uint64_t j = begin; j < end; ++j) {
        if (prefix_rows_[j] >= header_.num_rows ||
            (j > begin && prefix_rows_[j - 1] >= prefix_rows_[j])) {
          return Status::Corruption("seqhidb prefix posting run " +
                                    std::to_string(i) + " is corrupt");
        }
      }
    }
  }

  // Canonical padding: every gap between sections is zero bytes.
  for (size_t i = 0; i < kBinaryNumSections; ++i) {
    const uint64_t end = header_.sections[i].offset + header_.sections[i].bytes;
    for (uint64_t j = end; j < Align8(end); ++j) {
      if (data_[j] != 0) {
        return Status::Corruption("seqhidb padding bytes are not zero");
      }
    }
  }
  return Status::OK();
}

}  // namespace seqhide
