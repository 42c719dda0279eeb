#include "src/match/mapped_match.h"

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/scratch.h"

namespace seqhide {

size_t SupportMapped(const Sequence& pattern, const ConstraintSpec& spec,
                     const MappedDatabase& db) {
  const std::vector<Sequence> patterns = {pattern};
  const std::vector<ConstraintSpec> constraints = {spec};
  const MatchKernel kernel(patterns, constraints);
  MatchScratch scratch;
  size_t count = 0;
  for (size_t t : db.CandidateRows(pattern)) {
    if (kernel.HasMatch(0, db.row(t), &scratch)) ++count;
  }
  return count;
}

uint64_t CountConstrainedMatchingsTotalMapped(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, const MappedDatabase& db) {
  // One CountRow per row of the sorted union of the candidate lists. A row
  // outside pattern p's list contributes zero for p, and SatAdd is
  // associative and commutative, so regrouping the sum is exact.
  std::vector<size_t> rows, merged;
  for (const Sequence& pattern : patterns) {
    const std::vector<size_t> candidates = db.CandidateRows(pattern);
    merged.clear();
    std::set_union(rows.begin(), rows.end(), candidates.begin(),
                   candidates.end(), std::back_inserter(merged));
    rows.swap(merged);
  }
  const MatchKernel kernel(patterns, constraints);
  MatchScratch scratch;
  std::vector<uint64_t> counts;
  uint64_t total = 0;
  for (size_t t : rows) {
    total = SatAdd(total, kernel.CountRow(db.row(t), &scratch, &counts));
  }
  return total;
}

}  // namespace seqhide
