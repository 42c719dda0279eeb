#include "src/hide/local.h"

#include "src/common/logging.h"
#include "src/hide/hitting_set.h"
#include "src/match/count.h"
#include "src/match/position_delta.h"
#include "src/obs/macros.h"

namespace seqhide {

LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng) {
  MatchScratch scratch;
  return SanitizeSequence(seq, patterns, constraints, strategy, rng, &scratch);
}

LocalSanitizeResult SanitizeSequence(
    Sequence* seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, LocalStrategy strategy,
    Rng* rng, MatchScratch* scratch) {
  SEQHIDE_CHECK(seq != nullptr);
  SEQHIDE_CHECK(strategy != LocalStrategy::kRandom || rng != nullptr)
      << "the Random local strategy needs an Rng";

  LocalSanitizeResult result;
  if (strategy == LocalStrategy::kExhaustive) {
    OptimalSanitization optimal =
        OptimalSanitizeSequence(*seq, patterns, constraints);
    for (size_t pos : optimal.positions) seq->Mark(pos);
    result.marked_positions = optimal.positions;
    result.marks_introduced = optimal.num_marks;
    SEQHIDE_COUNTER_ADD("local.marks", result.marks_introduced);
    SEQHIDE_HISTOGRAM_RECORD("local.marks_per_sequence",
                             result.marks_introduced);
    return result;
  }
  // Hoisted out of the round loop: after the first round these only ever
  // get reassigned, never reallocated (and the DP tables inside *scratch
  // stay warm across rounds and across sequences on the same thread).
  const size_t n = seq->size();
  const ConstraintSpec unconstrained;
  DpTable& per_pattern = scratch->pattern_delta_rows;
  per_pattern.resize(patterns.size());
  std::vector<size_t> candidates;
  size_t chosen = 0;
  size_t reuses = 0;
  scratch->exhausted = false;
  for (;;) {
    // One δ recomputation per round — the number the paper's Alg. 1 loop
    // hides. The per-pattern rows are n cells each, charged like a table.
    SEQHIDE_COUNTER_INC("local.delta_recomputations");
    const bool first_round = result.marked_positions.empty();
    if (first_round && !scratch->BudgetAllowsCells(n)) {
      result.exhausted = true;
      break;
    }
    for (size_t p = 0; p < patterns.size(); ++p) {
      // Marking `chosen` removes exactly the matchings that use it, and
      // each of them adds at least 1 to δ_p(chosen). So δ_p(chosen) = 0
      // means pattern p lost no matching, and as marks shift no position,
      // no gap or window span changed either: its row is still exact.
      if (!first_round && per_pattern[p][chosen] == 0) {
        ++reuses;
        continue;
      }
      PositionDeltasInto(patterns[p],
                         constraints.empty() ? unconstrained : constraints[p],
                         *seq, scratch, &per_pattern[p]);
    }
    if (scratch->exhausted) {
      // A DP table blew the memory budget mid-recomputation, so the rows
      // are partial; marking from them could pick a suboptimal position
      // and the loop could not prove termination anyway. Stop here and let
      // the caller degrade.
      result.exhausted = true;
      break;
    }

    // δ(T[i]) = Σ_p δ_p(T[i]), summed in pattern order. Positions involved
    // in at least one matching are the "reasonable choices".
    candidates.clear();
    uint64_t best_delta = 0;
    size_t best_pos = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t delta = 0;
      for (const DpRow& row : per_pattern) delta = SatAdd(delta, row[i]);
      if (delta == 0) continue;
      candidates.push_back(i);
      if (delta > best_delta) {
        best_delta = delta;
        best_pos = i;
      }
    }
    if (candidates.empty()) break;  // M_{S_h}^T = ∅ — sanitized.

    if (strategy == LocalStrategy::kHeuristic) {
      // Ties break toward the smallest index (deterministic replays).
      chosen = best_pos;
    } else {
      chosen = candidates[static_cast<size_t>(
          rng->NextBounded(candidates.size()))];
    }
    seq->Mark(chosen);
    result.marked_positions.push_back(chosen);
    ++result.marks_introduced;
  }
  SEQHIDE_COUNTER_ADD("local.pattern_delta_reuses", reuses);
  SEQHIDE_COUNTER_ADD("local.marks", result.marks_introduced);
  SEQHIDE_HISTOGRAM_RECORD("local.marks_per_sequence",
                           result.marks_introduced);
  return result;
}

}  // namespace seqhide
