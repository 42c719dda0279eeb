// Matching queries over a memory-mapped seqhidb database.
//
// Same results as the src/match kernels applied row by row — these
// wrappers add the mapped file's precomputed indexes: the per-symbol
// posting lists and the pattern-prefix index narrow the rows that need
// any scanning or DP work, and the survivors go through a MatchKernel
// (kernel.h) as zero-copy SequenceViews straight out of the mapping. The
// kernel owns every engine decision; these functions only pick rows.
// Pruning is exact (the candidate set is a superset of the true supporter
// set, and pruned rows contribute zero matchings), so every function here
// is differentially tested equal to its in-memory counterpart.

#ifndef SEQHIDE_MATCH_MAPPED_MATCH_H_
#define SEQHIDE_MATCH_MAPPED_MATCH_H_

#include <cstdint>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/seq/binary_format.h"
#include "src/seq/sequence.h"

namespace seqhide {

// Rows with at least one occurrence satisfying `spec` (pass
// ConstraintSpec() for plain sup_D(S)); equals the in-memory
// ConstrainedSupport of the materialized database.
size_t SupportMapped(const Sequence& pattern, const ConstraintSpec& spec,
                     const MappedDatabase& db);

// Σ_T Σ_S constrained matchings (saturating). `constraints` may be empty
// (all unconstrained) or parallel to `patterns`.
uint64_t CountConstrainedMatchingsTotalMapped(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints, const MappedDatabase& db);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_MAPPED_MATCH_H_
