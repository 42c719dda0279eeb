// Gap-bounded DP row sums in O(1) per cell.
//
// The counting and δ tables fill each cell with the sum of a neighbouring
// row over the positions one arrow's gap bound [mg, Mg] allows. Summed
// cell by cell that is O(n) per cell and O(n²m) per table. When the cell
// moves by one position the allowed span moves by one as well, so exactly
// one term enters and at most one leaves: a sliding sum costs O(1).
//
// The sum is kept exactly in 128 bits and clamped to kCountSaturated once
// per read. The terms are clamped counts, never negative, so a read equals
// SatAdd chained over the span's terms, min(Σ, 2⁶⁴−1), and the tables stay
// bit-identical to the cell-by-cell sums (prop_prefix_table_test,
// prop_constrained_count_test, prop_position_delta_test).

#ifndef SEQHIDE_MATCH_GAP_SUMS_H_
#define SEQHIDE_MATCH_GAP_SUMS_H_

#include <cstddef>
#include <cstdint>

#include "src/constraints/constraints.h"
#include "src/match/count.h"

namespace seqhide {

// Exact running sum of saturated counts. Overflowing it would take 2⁶⁴
// terms of 2⁶⁴−1.
class WideSum {
 public:
  void Add(uint64_t v) { sum_ += v; }
  void Remove(uint64_t v) { sum_ -= v; }
  uint64_t Clamped() const {
    return sum_ > kCountSaturated ? kCountSaturated
                                  : static_cast<uint64_t>(sum_);
  }

 private:
  unsigned __int128 sum_ = 0;
};

// Forward rows: for every u in [0, len), cur[u] is the sum of prev[v] over
// the predecessors v in [u-1-Mg, u-1-mg] ∩ [0, len) when keep(u) holds,
// and 0 otherwise.
template <typename Keep>
void GapPredecessorSums(const uint64_t* prev, size_t len, GapBound bound,
                        Keep keep, uint64_t* cur) {
  WideSum sum;
  for (size_t u = 0; u < len; ++u) {
    if (u > bound.min_gap) sum.Add(prev[u - 1 - bound.min_gap]);
    if (bound.max_gap != GapBound::kNoMax && u > bound.max_gap + 1) {
      sum.Remove(prev[u - 2 - bound.max_gap]);
    }
    cur[u] = keep(u) ? sum.Clamped() : 0;
  }
}

// Backward rows: for every u in [0, len), cur[u] is the sum of term(v) over
// the successors v in [u+1+mg, u+1+Mg] ∩ [0, len). `term` is called twice
// per position (on entry and on exit), so it must be a pure function.
template <typename Term>
void GapSuccessorSums(size_t len, GapBound bound, Term term, uint64_t* cur) {
  WideSum sum;
  for (size_t u = len; u-- > 0;) {
    const size_t after = len - 1 - u;  // positions to the right of u
    if (bound.min_gap < after) sum.Add(term(u + 1 + bound.min_gap));
    if (bound.max_gap != GapBound::kNoMax && after > 0 &&
        bound.max_gap < after - 1) {
      sum.Remove(term(u + 2 + bound.max_gap));
    }
    cur[u] = sum.Clamped();
  }
}

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_GAP_SUMS_H_
