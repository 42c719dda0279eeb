// Kernel dispatch for the stage-1 counting / support hot paths.
//
// Three engines compute the same per-pattern matching-set sizes and
// existence answers (bit-identical results — only the instruction stream
// differs):
//
//   scalar — the per-pattern Lemma 2 / Lemma 4 DPs exactly as before
//            (count.h / constrained_count.h). Always applicable; the
//            reference the other two are differentially tested against.
//   bitset — Shift-And existence screen + cache-blocked counting DP for
//            patterns with m <= 64 (bitset_match.h). Constrained patterns
//            are screened (no embedding ⇒ constrained count 0) and then
//            fall back to the scalar constrained DP; patterns with m > 64
//            go scalar entirely.
//   trie   — the shared pattern-prefix trie (pattern_trie.h): every
//            unconstrained pattern counted in ONE pass per row instead of
//            |S| passes. Constrained patterns fall back to scalar.
//
// Engine choice is internal: ChooseKernelEngine picks by the pattern
// set's shape alone (>= 2 unconstrained patterns → trie; otherwise every
// pattern fits 64 bits → bitset; otherwise scalar), and nothing outside
// this module overrides it. The chosen engine is recorded in
// SanitizeReport::kernel_engine, hence in --stats-json and the telemetry
// ledger. Every caller that counts or tests for matchings — the sanitize
// pipeline and the mapped queries (mapped_match.h) alike — goes through a
// MatchKernel.
//
// A MatchKernel is built once per run from the pattern set and then
// shared read-only across worker threads; all mutable state lives in the
// caller's per-thread MatchScratch. It borrows `patterns`/`constraints`
// — the caller keeps them alive for the kernel's lifetime.

#ifndef SEQHIDE_MATCH_KERNEL_H_
#define SEQHIDE_MATCH_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/match/bitset_match.h"
#include "src/match/pattern_trie.h"
#include "src/match/scratch.h"
#include "src/seq/sequence.h"
#include "src/seq/view.h"

namespace seqhide {

// The numeric values are the `kernel.resolved` telemetry payload.
enum class KernelEngine {
  kScalar = 1,
  kBitset = 2,
  kTrie = 3,
};

std::string ToString(KernelEngine e);

// The engine the shape rule above picks for this pattern set.
KernelEngine ChooseKernelEngine(const std::vector<Sequence>& patterns,
                                const std::vector<ConstraintSpec>& constraints);

class MatchKernel {
 public:
  // `constraints` must be empty or parallel to `patterns`; both must
  // outlive the kernel. The engine is ChooseKernelEngine's pick.
  MatchKernel(const std::vector<Sequence>& patterns,
              const std::vector<ConstraintSpec>& constraints);
  // A fixed engine, for the differential tests and the per-engine
  // benchmark only: results are identical to the default constructor's.
  MatchKernel(const std::vector<Sequence>& patterns,
              const std::vector<ConstraintSpec>& constraints,
              KernelEngine engine);

  KernelEngine engine() const { return engine_; }
  size_t num_patterns() const { return patterns_->size(); }

  // |M_{S_p}^T| under pattern p's constraint spec. Bit-identical across
  // engines.
  uint64_t CountPattern(size_t p, SequenceView seq,
                        MatchScratch* scratch) const;

  // Per-pattern counts for every pattern in one call (the trie engine's
  // one-pass path); counts is resized to num_patterns(). Returns the
  // saturating total over patterns.
  uint64_t CountRow(SequenceView seq, MatchScratch* scratch,
                    std::vector<uint64_t>* counts) const;

  // Does pattern p have a (constrained) matching in seq? An unconstrained
  // pattern never runs a counting DP, whatever the engine: Shift-And when
  // its masks are built and usable, the greedy subsequence scan otherwise.
  // A constrained one is Shift-And-screened (when usable) before its DP.
  bool HasMatch(size_t p, SequenceView seq, MatchScratch* scratch) const;

 private:
  const ConstraintSpec& spec_for(size_t p) const;
  // True iff pattern p has usable Shift-And masks (never under scalar).
  bool fits_word(size_t p) const {
    return !masks_.empty() && masks_[p].usable();
  }

  const std::vector<Sequence>* patterns_;
  const std::vector<ConstraintSpec>* constraints_;
  KernelEngine engine_;
  // Per-pattern Shift-And masks (bitset + trie engines; empty under
  // scalar; unusable entries mean m > 64 → scalar fallback for that
  // pattern).
  std::vector<SymbolMasks> masks_;
  std::optional<PatternTrie> trie_;
};

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_KERNEL_H_
