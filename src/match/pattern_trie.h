// Shared pattern-prefix trie: the whole sensitive-pattern set counted in
// one pass per database row.
//
// The Lemma 2 counting DP keeps, per pattern, one value per pattern
// prefix ("embeddings of S[0..i-1] in the sequence prefix seen so far").
// Sensitive-pattern sets share prefixes, so running |S| independent DPs
// recomputes the shared rows |S| times — and, worse, re-reads the row
// once per pattern. The trie collapses the pattern set into its distinct
// prefixes: one node per prefix, one counter per node, and a single
// left-to-right scan of the sequence updates every pattern's DP at once.
//
// Update rule at sequence symbol t: for every node v with symbol(v) == t,
//   count[v] = SatAdd(count[v], count[parent(v)])
// — the trie edge v is the "pattern row" S[i] == t. Nodes of one symbol
// are stored deepest-first, so a same-symbol parent→child chain reads the
// parent's previous-column value, exactly like the scalar kernel's
// descending-i in-place update. Each node's value is therefore a pure
// function of (its prefix string, the sequence prefix) — identical to the
// per-pattern scalar DP value — and reading pattern p's count at its
// terminal node is bit-identical to CountMatchings(patterns[p], seq).
//
// The trie covers the *unconstrained* patterns only (a gap/window spec
// changes the recurrence per arrow, which shared prefixes cannot express);
// constrained patterns stay with the scalar kernels. Build cost is
// O(Σ|S_i|) once per run; the per-row state is one counter per node,
// reused via MatchScratch::trie_counts.

#ifndef SEQHIDE_MATCH_PATTERN_TRIE_H_
#define SEQHIDE_MATCH_PATTERN_TRIE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/bitset_match.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

class PatternTrie {
 public:
  // Builds the trie over every pattern whose constraint spec is absent or
  // unconstrained. `constraints` must be empty or parallel to `patterns`;
  // patterns left out report Covers() == false.
  PatternTrie(const std::vector<Sequence>& patterns,
              const std::vector<ConstraintSpec>& constraints);

  // Distinct prefixes including the root (empty prefix).
  size_t num_nodes() const { return parent_.size(); }
  // Patterns the trie answers for.
  size_t num_covered() const { return num_covered_; }
  bool Covers(size_t p) const { return terminal_[p] != kNoNode; }

  // One pass over `seq`: writes |M_{S_p}^T| into counts[p] for every
  // covered p (uncovered slots are left untouched). `counts` must have at
  // least num_patterns() entries. Returns false — leaving counts
  // untouched — iff the scratch budget refused the per-node counter row.
  bool CountAll(SequenceView seq, MatchScratch* scratch,
                uint64_t* counts) const;

  size_t num_patterns() const { return terminal_.size(); }

 private:
  static constexpr uint32_t kNoNode = 0xffffffffu;

  // Node 0 is the root; count[0] is pinned to 1 (one empty embedding).
  KernelVec<uint32_t> parent_;
  // Update lists: node ids grouped by edge symbol, each group sorted by
  // depth descending. group_begin_[t] .. group_begin_[t+1] spans symbol t.
  KernelVec<uint32_t> group_nodes_;
  KernelVec<uint32_t> group_begin_;  // size max_symbol + 2
  // terminal_[p] = node holding pattern p's full-prefix count, or kNoNode.
  KernelVec<uint32_t> terminal_;
  size_t num_covered_ = 0;
};

// Union of several independent pattern sets ("origins" — e.g. the
// concurrent requests of one server batch) with per-origin attribution.
// Identical symbol sequences are deduped into one union slot, so the
// union can be matched once (e.g. by one PatternTrie pass per row) and
// each origin reads its answers back through slot(origin, i). Dedup is
// by exact symbol-id content, which is only sound when every origin's
// patterns were interned into the SAME alphabet.
class PatternSetUnion {
 public:
  // Registers one origin's patterns; returns its origin index. Each
  // pattern is deduped against everything added so far.
  size_t AddOrigin(const std::vector<Sequence>& patterns);

  size_t num_origins() const { return slots_.size(); }
  // Distinct patterns across every origin, in first-seen order.
  const std::vector<Sequence>& union_patterns() const {
    return union_patterns_;
  }
  // Union-pattern index of `origin`'s `i`-th pattern.
  size_t slot(size_t origin, size_t i) const { return slots_[origin][i]; }
  const std::vector<size_t>& slots(size_t origin) const {
    return slots_[origin];
  }

 private:
  std::vector<Sequence> union_patterns_;
  std::map<std::vector<SymbolId>, size_t> index_;
  std::vector<std::vector<size_t>> slots_;
};

// One trie pass per database row, accumulated over the whole database:
//   totals[u]   = saturating sum over rows of |M_{S_u}^row|
//   supports[u] = number of rows with at least one embedding of S_u
// for every pattern the trie covers (build it with empty constraints so
// it covers all of them). Row order matches the scalar per-row SatAdd
// loop, so totals are bit-identical to the per-pattern kernels — and,
// because SatAdd(x, 0) == x, to the mapped candidate-row-pruned totals.
// Returns false (outputs untouched) iff the scratch budget refuses the
// trie counter row.
bool CountUnionOverDb(const PatternTrie& trie, const DatabaseView& db,
                      MatchScratch* scratch, std::vector<uint64_t>* totals,
                      std::vector<uint64_t>* supports);

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_PATTERN_TRIE_H_
