// Matching-set-size computation under occurrence constraints
// (paper §5, Lemmas 4 and 5).
//
// * Gap constraints (Lemma 4): the Q table is the gap-aware analogue of
//   the Lemma 3 prefix table — Q[k][j] counts gap-valid embeddings of the
//   length-k prefix ending exactly at T[j]; the predecessor index span is
//   restricted by the arrow's [mg, Mg].
// * Max-window constraint (Lemma 5): an embedding that starts at index s
//   must end at index <= s + Ws - 1. Lemma 5 sums, over ending indices j,
//   the table built over the window T[j-Ws+1 .. j]; that rebuilds a table
//   per position. Here each embedding is charged to its first index
//   instead: per anchor s with T[s] = S[1], one gap-aware table over
//   T[s .. s+Ws-1] counts the embeddings that start at s
//   (FillAnchoredPrefixTable). O(n·Ws·m) per count, and the same table is
//   the forward half of the windowed δ (position_delta.h).
// * Conjunction: the window computation simply uses Q instead of P, as in
//   the paper's closing remark of §5.
//
// Gap-bounded sums use the O(1)-per-cell sliding sums of gap_sums.h, so
// the gap table is O(nm) whatever the bounds. All counts saturate (see
// count.h).

#ifndef SEQHIDE_MATCH_CONSTRAINED_COUNT_H_
#define SEQHIDE_MATCH_CONSTRAINED_COUNT_H_

#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/prefix_table.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// Q[k][j] (k in [0,m], j in [0,n], 1-based content like PrefixEndTable):
// gap-valid embeddings of S[1..k] ending exactly at T[j]. Ignores any
// window constraint in `spec` (the window is applied by
// CountConstrainedMatchings via Lemma 5). With unconstrained gaps this
// degenerates to BuildPrefixEndTable's table entry-wise (tested).
PrefixEndTable BuildGapEndTable(const Sequence& pattern,
                                const ConstraintSpec& spec,
                                SequenceView seq);

// Allocation-free variant: writes into *out (resized exactly to
// [m+1][n+1]); `out` may be a scratch-owned table.
void BuildGapEndTableInto(const Sequence& pattern, const ConstraintSpec& spec,
                          SequenceView seq, PrefixEndTable* out);

// Budget-checked variant: table sizing goes through scratch's memory
// ceiling; on refusal *out becomes a 1×1 zero table and
// scratch->exhausted is raised. The 4-arg overload is this one with an
// unlimited scratch.
void BuildGapEndTableInto(const Sequence& pattern, const ConstraintSpec& spec,
                          SequenceView seq, MatchScratch* scratch,
                          PrefixEndTable* out);

// The anchored window table. With seq[first] = pattern[0], fills
// (*fwd)[k][u] for k < m and u < len with the gap-valid embeddings of
// S[1..k+1] that start at `first` and end at first + u, and returns
// Σ_u (*fwd)[m-1][u]. With len = min(Ws, |seq| - first) that is the number
// of window-valid matchings whose first index is `first`. `fwd` must have
// at least m rows of at least `len` cells; the window in `spec` is not
// read (the slice is the window).
uint64_t FillAnchoredPrefixTable(const Sequence& pattern,
                                 const ConstraintSpec& spec, SequenceView seq,
                                 size_t first, size_t len, DpTable* fwd);

// |{matchings of `pattern` in `seq` satisfying `spec`}|. Dispatches:
// unconstrained -> Lemma 2 count; gaps only -> Σ_j Q[m][j]; window
// (with or without gaps) -> Σ over anchors of FillAnchoredPrefixTable.
uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq);

// Allocation-free variant: all DP tables live in *scratch (one scratch
// per thread; see scratch.h). Bit-identical to the allocating overload.
uint64_t CountConstrainedMatchings(const Sequence& pattern,
                                   const ConstraintSpec& spec,
                                   SequenceView seq, MatchScratch* scratch);

// Σ over patterns (constraints[i] applies to patterns[i]; `constraints`
// may be empty meaning all-unconstrained).
uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq);

// Scratch-threaded variant for callers that evaluate many trial sequences
// in a loop (second-stage replacement search, generalization): the
// allocating overload routes through this with a local scratch.
uint64_t CountConstrainedMatchingsTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq,
    MatchScratch* scratch);

// Constrained support: number of database rows with at least one valid
// occurrence. (With constraints, "supports" means "has a constrained
// matching", which the hiding problem uses as the disclosure predicate.)
bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq);

// Scratch-reusing variant of the support predicate.
bool HasConstrainedMatch(const Sequence& pattern, const ConstraintSpec& spec,
                         SequenceView seq, MatchScratch* scratch);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_CONSTRAINED_COUNT_H_
