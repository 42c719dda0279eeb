#include "src/match/position_delta.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/gap_sums.h"
#include "src/match/prefix_table.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

// bwd[k][j] (k in [0,m], j in [0,n-1] 0-based positions): number of
// gap-valid embeddings of the suffix S[k+1..m] (1-based pattern indexing)
// entirely at positions > j, where arrow k's gap constraint binds between
// position j and the suffix's first matched position. bwd[m][j] = 1.
// Each row is one sliding sum over the row below (gap_sums.h): O(nm).
void BuildSuffixExtensionTableInto(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq, MatchScratch* scratch,
                                   DpTable* out) {
  const size_t m = pattern.size();
  const size_t n = seq.size();
  DpTable& bwd = *out;
  if (!TryResizeAndZeroTable(scratch, &bwd, m + 1, n)) return;
  for (size_t j = 0; j < n; ++j) bwd[m][j] = 1;
  // Rows k = m-1 down to 1. In this loop `k` counts consumed prefix
  // symbols, so the next suffix symbol is S[k+1] = pattern[k] (0-based),
  // and the arrow S[k] -> S[k+1] has 0-based arrow index k - 1.
  for (size_t k = m - 1; k >= 1; --k) {
    const SymbolId want = pattern[k];
    const DpRow& next = bwd[k + 1];
    GapSuccessorSums(
        n, spec.gap(k - 1),
        [&](size_t l) { return seq[l] == want ? next[l] : uint64_t{0}; },
        bwd[k].data());
  }
}

// δ under a window constraint. Every windowed matching has exactly one
// first index s (seq[s] = S[1]) and lies inside the slice [s, s + Ws).
// Per anchor s, the forward table counts the prefixes that start at s and
// the backward table the suffixes that end inside the slice, so
// Σ_k fwd[k][u]·bwd[k][u] counts the matchings that start at s and use
// s + u. Summing over anchors counts each matching once. O(n·Ws·m).
void WindowedDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch, DpRow* out) {
  SEQHIDE_COUNTER_INC("delta.window_calls");
  const size_t m = pattern.size();
  const size_t n = seq.size();
  out->assign(n, 0);
  const size_t slice = std::min(*spec.max_window(), n);
  if (slice < m) return;  // no matching fits in the window
  DpTable& fwd = scratch->window_fwd;
  DpTable& bwd = scratch->window_bwd;
  if (!TryResizeAndZeroTable(scratch, &fwd, m, slice) ||
      !TryResizeAndZeroTable(scratch, &bwd, m, slice)) {
    return;
  }
  for (size_t s = 0; s < n; ++s) {
    if (seq[s] != pattern[0]) continue;
    const size_t len = std::min(slice, n - s);
    if (FillAnchoredPrefixTable(pattern, spec, seq, s, len, &fwd) == 0) {
      continue;
    }
    // bwd[k][u]: embeddings of S[k+2..m] (1-based) after s + u inside the
    // slice, honouring arrow k+1 from s + u; the last row is the empty
    // suffix.
    std::fill(bwd[m - 1].begin(), bwd[m - 1].begin() + len, 1);
    for (size_t k = m - 1; k-- > 0;) {
      const SymbolId want = pattern[k + 1];
      const DpRow& next = bwd[k + 1];
      GapSuccessorSums(
          len, spec.gap(k),
          [&](size_t v) {
            return seq[s + v] == want ? next[v] : uint64_t{0};
          },
          bwd[k].data());
    }
    // fwd[k][u] is 0 unless seq[s + u] = S[k+1], so every term below is a
    // matching of pattern position k to s + u.
    for (size_t u = 0; u < len; ++u) {
      uint64_t& delta = (*out)[s + u];
      for (size_t k = 0; k < m; ++k) {
        delta = SatAdd(delta, SatMul(fwd[k][u], bwd[k][u]));
      }
    }
  }
}

}  // namespace

std::vector<uint64_t> PositionDeltas(const Sequence& pattern,
                                     const ConstraintSpec& spec,
                                     SequenceView seq) {
  MatchScratch scratch;
  DpRow deltas;
  PositionDeltasInto(pattern, spec, seq, &scratch, &deltas);
  return std::vector<uint64_t>(deltas.begin(), deltas.end());
}

void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch, DpRow* out) {
  SEQHIDE_CHECK(!pattern.empty());
  const size_t m = pattern.size();
  const size_t n = seq.size();
  if (n == 0) {
    out->clear();
    return;
  }

  if (spec.HasWindow()) {
    // The window couples both halves of the embedding through the first
    // matched position, so the halves are built per first position.
    WindowedDeltasInto(pattern, spec, seq, scratch, out);
    return;
  }
  SEQHIDE_COUNTER_INC("delta.fast_calls");

  // fwd[k][j] (1-based j): gap-valid embeddings of S[1..k] ending at j.
  PrefixEndTable& fwd = scratch->fwd;
  if (spec.HasGaps()) {
    BuildGapEndTableInto(pattern, spec, seq, scratch, &fwd);
  } else {
    BuildPrefixEndTableInto(pattern, seq, scratch, &fwd);
  }
  DpTable& bwd = scratch->bwd;
  BuildSuffixExtensionTableInto(pattern, spec, seq, scratch, &bwd);
  if (scratch->exhausted) {
    // One of the tables was refused by the memory budget; either table may
    // be a 1×1 stub, so the combination below would index out of range.
    out->assign(n, 0);
    return;
  }

  out->assign(n, 0);
  for (size_t j = 0; j < n; ++j) {
    if (!IsRealSymbol(seq[j])) continue;
    uint64_t total = 0;
    for (size_t k = 1; k <= m; ++k) {
      if (pattern[k - 1] != seq[j]) continue;
      // fwd uses 1-based columns: position j (0-based) is column j+1.
      total = SatAdd(total, SatMul(fwd[k][j + 1], bwd[k][j]));
    }
    (*out)[j] = total;
  }
}

std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq) {
  MatchScratch scratch;
  std::vector<uint64_t> total;
  PositionDeltasTotalInto(patterns, constraints, seq, &scratch, &total);
  return total;
}

void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  const ConstraintSpec unconstrained;
  out->assign(seq.size(), 0);
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? unconstrained : constraints[p];
    DpRow& d = scratch->pattern_deltas;
    PositionDeltasInto(patterns[p], spec, seq, scratch, &d);
    for (size_t j = 0; j < seq.size(); ++j) {
      (*out)[j] = SatAdd((*out)[j], d[j]);
    }
  }
}

std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq) {
  SEQHIDE_COUNTER_INC("delta.deletion_calls");
  MatchScratch scratch;
  const uint64_t base = CountMatchings(pattern, seq, &scratch);
  std::vector<uint64_t> deltas(seq.size(), 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    std::vector<SymbolId> reduced;
    reduced.reserve(seq.size() - 1);
    for (size_t j = 0; j < seq.size(); ++j) {
      if (j != i) reduced.push_back(seq[j]);
    }
    uint64_t without =
        CountMatchings(pattern, Sequence(std::move(reduced)), &scratch);
    SEQHIDE_DCHECK(without <= base);
    deltas[i] = base - without;
  }
  return deltas;
}

std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq) {
  SEQHIDE_COUNTER_INC("delta.marking_calls");
  MatchScratch scratch;
  const uint64_t base = CountConstrainedMatchings(pattern, spec, seq, &scratch);
  std::vector<uint64_t> deltas(seq.size(), 0);
  for (size_t i = 0; i < seq.size(); ++i) {
    if (!IsRealSymbol(seq[i])) continue;
    Sequence marked = seq.Materialize();
    marked.Mark(i);
    uint64_t without =
        CountConstrainedMatchings(pattern, spec, marked, &scratch);
    SEQHIDE_DCHECK(without <= base);
    deltas[i] = base - without;
  }
  return deltas;
}

}  // namespace seqhide
