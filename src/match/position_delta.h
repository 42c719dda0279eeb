// δ(T[i]): the number of matchings that involve position i (paper §4).
//
// δ drives the local sanitization heuristic — "choose the marking position
// that is involved in most matches". Three computations are provided; the
// first two are test oracles and documentation of the paper, the third is
// the only one the library runs:
//
//  1. PositionDeltasByDeletion — the paper's Theorem 2 construction:
//     δ(T[i]) = |M^T| − |M^{T \ T[i]}| (element *removed*). Valid only for
//     unconstrained matching: with gap/window constraints, deleting an
//     element shifts the positions after i and thereby changes gap spans of
//     matchings that do not involve i. O(n · nm).
//  2. PositionDeltasByMarking — δ(T[i]) = |M^T| − |M^{T with i marked}|.
//     Marking replaces the symbol with Δ without shifting positions, so
//     this is correct under any ConstraintSpec (and coincides with the
//     deletion method when unconstrained). This is the reference method;
//     it recounts once per position, O(n²m) and more.
//  3. PositionDeltas — production path: forward×backward embedding-count
//     product. For each pattern position k with S[k] = T[i], the number of
//     matchings mapping S[k] to T[i] is (#gap-valid prefix embeddings of
//     S[1..k] ending at i) × (#gap-valid suffix embeddings of S[k+1..m]
//     starting after i, honoring arrow k's gap). Since a matching maps
//     exactly one pattern position to i, summing over k counts each
//     matching involving i exactly once. O(nm) unconstrained and with gap
//     bounds (sliding sums, gap_sums.h). A window couples the two halves
//     through the first matched position, so a windowed spec builds both
//     halves per first position s (T[s] = S[1]) over the slice
//     [s, s + Ws): O(n·Ws·m), with two m×min(Ws, n) tables.
//
// All three agree on every input where they are defined (property-tested).

#ifndef SEQHIDE_MATCH_POSITION_DELTA_H_
#define SEQHIDE_MATCH_POSITION_DELTA_H_

#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// δ for every position of `seq` w.r.t. one pattern. Production path.
std::vector<uint64_t> PositionDeltas(const Sequence& pattern,
                                     const ConstraintSpec& spec,
                                     SequenceView seq);

// Allocation-free variant: DP tables live in *scratch, δ is written into
// *out (resized to |seq|). `out` must not alias a buffer the counting
// kernels use (scratch->pattern_deltas and scratch->pattern_delta_rows
// exist for exactly this).
void PositionDeltasInto(const Sequence& pattern, const ConstraintSpec& spec,
                        SequenceView seq, MatchScratch* scratch, DpRow* out);

// Aggregate δ over a set of sensitive patterns: δ_{S_h}(T[i]) =
// Σ_S δ_S(T[i]). `constraints` may be empty (all unconstrained) or
// parallel to `patterns`.
std::vector<uint64_t> PositionDeltasTotal(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, SequenceView seq);

// Allocation-free aggregate: per-pattern δ goes through
// scratch->pattern_deltas and accumulates into *out. (The local sanitizer
// keeps one δ row per pattern instead and recomputes only the patterns a
// mark touched; see hide/local.h.)
void PositionDeltasTotalInto(const std::vector<Sequence>& patterns,
                             const std::vector<ConstraintSpec>& constraints,
                             SequenceView seq, MatchScratch* scratch,
                             std::vector<uint64_t>* out);

// Paper's Theorem 2 deletion method. Unconstrained only. Test oracle /
// documentation of the paper's algorithm.
std::vector<uint64_t> PositionDeltasByDeletion(const Sequence& pattern,
                                               SequenceView seq);

// Mark-and-recount method; correct for any spec. Test oracle only.
std::vector<uint64_t> PositionDeltasByMarking(const Sequence& pattern,
                                              const ConstraintSpec& spec,
                                              SequenceView seq);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_POSITION_DELTA_H_
