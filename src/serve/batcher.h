// Request batcher for seqhide_server: plans the coalescing of several
// concurrent support / match-count requests into one union pattern set,
// so the pattern-trie kernel answers all of them in a single pass per
// database row (the classic inference-serving amortization — the trie
// already matches whole pattern sets per row, batching just widens the
// set to everything in flight).
//
// The batcher only *plans*: it parses every member's pattern texts
// against one private copy of the serving alphabet, reproduces the solo
// path's error precedence per member (all patterns parse first, then
// constraints validate in pattern order), and dedups the unconstrained
// patterns into a PatternSetUnion with per-origin slot attribution.
// Executing the union pass and demultiplexing the answers stays in the
// server, which owns the database, cache, and connections. Kept separate
// so the planning rules — the part that decides *what* is shared — are
// unit-testable and benchable without sockets.
//
// Sharing one alphabet copy across the batch is what makes dedup sound:
// two requests naming the same database symbol parse to the same id, and
// two requests naming the same *unseen* symbol intern it to the same
// fresh id (fresh ids never match a database row, so those patterns
// count zero in both the batched and the solo path).

#ifndef SEQHIDE_SERVE_BATCHER_H_
#define SEQHIDE_SERVE_BATCHER_H_

#include <cstddef>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/constraints.h"
#include "src/match/pattern_trie.h"
#include "src/seq/alphabet.h"
#include "src/serve/protocol.h"

namespace seqhide {
namespace serve {

// True for the methods the batcher may coalesce: the pure counting
// queries. Sanitize is a whole pipeline run and ping never reaches the
// work queue; both stay on the solo path.
bool BatchableMethod(Method method);

// One request's share of a batch plan.
struct BatchMemberPlan {
  // Terminal answer when not ok: the member's first parse error, or its
  // first constraint-validation error (same precedence as the solo path).
  Status error;
  // Parsed patterns, parallel to the request's pattern texts. Valid only
  // when error.ok().
  std::vector<ConstrainedPattern> parsed;
  // Per pattern: the union slot its answer is read from, or kSoloPattern
  // for constrained patterns (a gap/window spec changes the recurrence
  // per arrow, which the shared trie cannot express — they run the
  // scalar per-pattern kernel inside the batch).
  std::vector<size_t> slots;
};

struct BatchPlan {
  static constexpr size_t kSoloPattern = static_cast<size_t>(-1);

  // Deduped unconstrained patterns across every member, first-seen order.
  PatternSetUnion union_set;
  // Parallel to the requests handed to BuildBatchPlan.
  std::vector<BatchMemberPlan> members;

  size_t union_size() const { return union_set.union_patterns().size(); }
};

// Builds the plan for one batch. `serving_alphabet` is copied once; the
// caller's alphabet is never mutated. Every entry of `requests` must be
// a BatchableMethod request with a non-empty pattern list.
BatchPlan BuildBatchPlan(const Alphabet& serving_alphabet,
                         const std::vector<const Request*>& requests);

}  // namespace serve
}  // namespace seqhide

#endif  // SEQHIDE_SERVE_BATCHER_H_
