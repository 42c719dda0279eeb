#include "src/match/kernel.h"

#include "src/common/logging.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/subsequence.h"
#include "src/obs/macros.h"

namespace seqhide {
namespace {

const ConstraintSpec& Unconstrained() {
  static const ConstraintSpec kUnconstrained;
  return kUnconstrained;
}

}  // namespace

std::string ToString(KernelEngine e) {
  switch (e) {
    case KernelEngine::kScalar: return "scalar";
    case KernelEngine::kBitset: return "bitset";
    case KernelEngine::kTrie: return "trie";
  }
  return "unknown";
}

KernelEngine ChooseKernelEngine(
    const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints) {
  size_t unconstrained = 0;
  bool all_fit_bitset = !patterns.empty();
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (constraints.empty() || constraints[p].IsUnconstrained()) {
      ++unconstrained;
    }
    if (patterns[p].empty() || patterns[p].size() > kBitsetMaxPatternLength) {
      all_fit_bitset = false;
    }
  }
  // Two or more unconstrained patterns: the one-pass trie amortizes the
  // row scan across them. Otherwise the Shift-And screen + blocked DP is
  // the win if the patterns fit 64 bits; otherwise nothing beats scalar.
  if (unconstrained >= 2) return KernelEngine::kTrie;
  if (all_fit_bitset) return KernelEngine::kBitset;
  return KernelEngine::kScalar;
}

MatchKernel::MatchKernel(const std::vector<Sequence>& patterns,
                         const std::vector<ConstraintSpec>& constraints)
    : MatchKernel(patterns, constraints,
                  ChooseKernelEngine(patterns, constraints)) {}

MatchKernel::MatchKernel(const std::vector<Sequence>& patterns,
                         const std::vector<ConstraintSpec>& constraints,
                         KernelEngine engine)
    : patterns_(&patterns), constraints_(&constraints), engine_(engine) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  if (engine_ == KernelEngine::kBitset || engine_ == KernelEngine::kTrie) {
    masks_.reserve(patterns.size());
    for (const auto& p : patterns) masks_.emplace_back(p);
  }
  if (engine_ == KernelEngine::kTrie) {
    trie_.emplace(patterns, constraints);
  }
}

const ConstraintSpec& MatchKernel::spec_for(size_t p) const {
  return constraints_->empty() ? Unconstrained() : (*constraints_)[p];
}

uint64_t MatchKernel::CountPattern(size_t p, SequenceView seq,
                                   MatchScratch* scratch) const {
  const Sequence& pattern = (*patterns_)[p];
  const ConstraintSpec& spec = spec_for(p);
  if (!fits_word(p)) {
    // Scalar engine, or this pattern is too long for the 64-bit state.
    return CountConstrainedMatchings(pattern, spec, seq, scratch);
  }
  // Shift-And screen: no unconstrained embedding ⇒ no (constrained)
  // matching of any kind — skip the DP entirely.
  if (!HasSubsequenceBitParallel(masks_[p], seq)) return 0;
  if (spec.IsUnconstrained()) {
    return CountMatchingsBlocked(pattern, masks_[p], seq, scratch);
  }
  return CountConstrainedMatchings(pattern, spec, seq, scratch);
}

uint64_t MatchKernel::CountRow(SequenceView seq, MatchScratch* scratch,
                               std::vector<uint64_t>* counts) const {
  const size_t np = patterns_->size();
  counts->assign(np, 0);
  if (engine_ == KernelEngine::kTrie && trie_->num_covered() > 0 &&
      trie_->CountAll(seq, scratch, counts->data())) {
    uint64_t total = 0;
    for (size_t p = 0; p < np; ++p) {
      if (!trie_->Covers(p)) (*counts)[p] = CountPattern(p, seq, scratch);
      total = SatAdd(total, (*counts)[p]);
    }
    return total;
  }
  uint64_t total = 0;
  for (size_t p = 0; p < np; ++p) {
    (*counts)[p] = CountPattern(p, seq, scratch);
    total = SatAdd(total, (*counts)[p]);
  }
  return total;
}

bool MatchKernel::HasMatch(size_t p, SequenceView seq,
                           MatchScratch* scratch) const {
  const Sequence& pattern = (*patterns_)[p];
  const ConstraintSpec& spec = spec_for(p);
  const bool fits = fits_word(p);
  if (spec.IsUnconstrained()) {
    // Existence needs no DP at all: Shift-And when the pattern fits one
    // word, the greedy subsequence scan otherwise. Both early-exit.
    return fits ? HasSubsequenceBitParallel(masks_[p], seq)
                : IsSubsequence(pattern, seq);
  }
  if (fits && !HasSubsequenceBitParallel(masks_[p], seq)) return false;
  return HasConstrainedMatch(pattern, spec, seq, scratch);
}

}  // namespace seqhide
