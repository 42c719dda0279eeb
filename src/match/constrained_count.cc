#include "src/match/constrained_count.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/match/count.h"
#include "src/match/gap_sums.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// Total gap-valid (window-free) matchings: Σ_j Q[m][j].
uint64_t CountGapMatchings(const Sequence& pattern, const ConstraintSpec& spec,
                           SequenceView seq, MatchScratch* scratch) {
  BuildGapEndTableInto(pattern, spec, seq, scratch, &scratch->fwd);
  return TotalFromPrefixEndTable(scratch->fwd);
}

// Lemma 5, by first position: every windowed matching starts at exactly
// one anchor s (seq[s] = S[1]) and lies inside the slice [s, s + Ws), so
// the count is the sum over anchors of the anchored table's last row.
// O(n·Ws·m).
uint64_t CountWindowedMatchings(const Sequence& pattern,
                                const ConstraintSpec& spec,
                                SequenceView seq, MatchScratch* scratch) {
  SEQHIDE_COUNTER_INC("match.window.calls");
  const size_t n = seq.size();
  const size_t slice = std::min(*spec.max_window(), n);
  if (pattern.empty() || slice < pattern.size()) return 0;  // nothing fits
  DpTable& fwd = scratch->window_fwd;
  if (!TryResizeAndZeroTable(scratch, &fwd, pattern.size(), slice)) return 0;
  uint64_t total = 0;
  size_t anchors = 0;
  for (size_t s = 0; s < n; ++s) {
    if (seq[s] != pattern[0]) continue;
    ++anchors;
    total = SatAdd(total, FillAnchoredPrefixTable(pattern, spec, seq, s,
                                                  std::min(slice, n - s),
                                                  &fwd));
  }
  SEQHIDE_COUNTER_ADD("match.window.slices", anchors);
  return total;
}

}  // namespace

PrefixEndTable BuildGapEndTable(const Sequence& pattern,
                                const ConstraintSpec& spec,
                                SequenceView seq) {
  PrefixEndTable table;
  BuildGapEndTableInto(pattern, spec, seq, &table);
  return table;
}

void BuildGapEndTableInto(const Sequence& pattern, const ConstraintSpec& spec,
                          SequenceView seq, PrefixEndTable* out) {
  MatchScratch unlimited;
  BuildGapEndTableInto(pattern, spec, seq, &unlimited, out);
}

void BuildGapEndTableInto(const Sequence& pattern, const ConstraintSpec& spec,
                          SequenceView seq, MatchScratch* scratch,
                          PrefixEndTable* out) {
  const size_t m = pattern.size();
  const size_t n = seq.size();
  PrefixEndTable& table = *out;
  if (!TryResizeAndZeroTable(scratch, &table, m + 1, n + 1)) return;
  SEQHIDE_COUNTER_INC("match.gap.tables_built");
  SEQHIDE_COUNTER_ADD("match.gap.dp_rows", m);
  SEQHIDE_COUNTER_ADD("match.gap.dp_cells", m * (n + 1));
  table[0][0] = 1;
  if (m == 0) return;

  // k = 1: any occurrence of the first symbol (no incoming arrow).
  for (size_t j = 1; j <= n; ++j) {
    if (IsRealSymbol(seq[j - 1]) && seq[j - 1] == pattern[0]) table[1][j] = 1;
  }
  // k >= 2: restrict the predecessor span per Lemma 4. In 1-based paper
  // indexing the predecessor l of an occurrence ending at j satisfies
  // l in [j-1-Mg, j-1-mg] (intersected with [1, j-1]). Column 0 is the
  // virtual start, so the rows are handed over from column 1 on.
  for (size_t k = 2; k <= m; ++k) {
    const SymbolId want = pattern[k - 1];
    GapPredecessorSums(
        table[k - 1].data() + 1, n, spec.gap(k - 2),
        [&](size_t p) { return IsRealSymbol(seq[p]) && seq[p] == want; },
        table[k].data() + 1);
  }
}

uint64_t FillAnchoredPrefixTable(const Sequence& pattern,
                                 const ConstraintSpec& spec, SequenceView seq,
                                 size_t first, size_t len, DpTable* fwd) {
  const size_t m = pattern.size();
  SEQHIDE_DCHECK(m > 0 && fwd->size() >= m && first + len <= seq.size());
  SEQHIDE_DCHECK(seq[first] == pattern[0]);
  DpTable& f = *fwd;
  f[0][0] = 1;
  std::fill(f[0].begin() + 1, f[0].begin() + len, 0);
  for (size_t k = 1; k < m; ++k) {
    const SymbolId want = pattern[k];
    GapPredecessorSums(
        f[k - 1].data(), len, spec.gap(k - 1),
        [&](size_t u) { return seq[first + u] == want; }, f[k].data());
  }
  uint64_t total = 0;
  for (size_t u = 0; u < len; ++u) total = SatAdd(total, f[m - 1][u]);
  return total;
}

uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq) {
  MatchScratch scratch;
  return CountConstrainedMatchings(pattern, spec, seq, &scratch);
}

uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq,
                                   MatchScratch* scratch) {
  SEQHIDE_DCHECK(spec.Validate(pattern.size()).ok())
      << spec.Validate(pattern.size()).ToString();
  if (spec.IsUnconstrained()) return CountMatchings(pattern, seq, scratch);
  if (!spec.HasWindow()) return CountGapMatchings(pattern, spec, seq, scratch);
  return CountWindowedMatchings(pattern, spec, seq, scratch);
}

uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  return CountConstrainedMatchingsTotal(patterns, constraints, seq, &scratch);
}

uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq,
    MatchScratch* scratch) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  const ConstraintSpec unconstrained;
  uint64_t total = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? unconstrained : constraints[p];
    total = SatAdd(total,
                   CountConstrainedMatchings(patterns[p], spec, seq, scratch));
  }
  return total;
}

bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq) {
  return CountConstrainedMatchings(pattern, spec, seq) > 0;
}

bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq, MatchScratch* scratch) {
  return CountConstrainedMatchings(pattern, spec, seq, scratch) > 0;
}

}  // namespace seqhide
