// Local stage of the sanitization algorithm (paper §4): given one sequence
// T with M_{S_h}^T ≠ ∅, choose positions to mark until M_{S_h}^T = ∅.
//
// Heuristic strategy: mark argmax_i δ(T[i]) (the position involved in the
// most matchings), recompute, repeat — the paper's Sanitize(T, S_h).
// δ = Σ_S δ_S is kept as one row per pattern, and after a mark at i only
// the patterns with δ_S(T[i]) > 0 are recomputed: the others lost no
// matching, so their rows are unchanged (counter local.pattern_delta_reuses
// counts the rows kept). The marks are those of a full recomputation.
// Random strategy: mark a uniformly random position among those involved
// in at least one matching (δ > 0).
//
// Termination: every chosen position has δ > 0, so each mark removes at
// least one matching and the (finite) matching count strictly decreases.

#ifndef SEQHIDE_HIDE_LOCAL_H_
#define SEQHIDE_HIDE_LOCAL_H_

#include <cstddef>
#include <vector>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/hide/options.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"

namespace seqhide {

// Outcome of sanitizing one sequence.
struct LocalSanitizeResult {
  size_t marks_introduced = 0;
  // Positions marked, in the order chosen (useful for audits and tests).
  std::vector<size_t> marked_positions;
  // True when the scratch's memory budget refused a DP table, so the loop
  // stopped early and the sequence may still hold matchings. Marks made
  // before the refusal are kept (they never hurt). The caller decides how
  // to degrade; see RunBudget in options.h.
  bool exhausted = false;
};

// Destroys every (constrained) matching of every pattern in `patterns`
// within *seq by marking positions per `strategy`. `constraints` is empty
// (all unconstrained) or parallel to `patterns`. `rng` is required only
// for LocalStrategy::kRandom and may be null otherwise.
LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng);

// Scratch-reusing variant: δ recomputation (the per-round dominant cost)
// and the per-pattern δ rows run allocation-free once *scratch is warm.
// One scratch per thread; the pipeline's mark stage hands each worker its
// own.
LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng, MatchScratch* scratch);

}  // namespace seqhide

#endif  // SEQHIDE_HIDE_LOCAL_H_
