// Unit tests for the matching-kernel dispatch layer (match/kernel.h): the
// shape rule that picks the engine, the m = 64 / m = 65 single-word
// boundary, and the contract that the engine is invisible in stage-1
// results and in sanitize output.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/global.h"
#include "src/hide/sanitizer.h"
#include "src/match/bitset_match.h"
#include "src/match/count.h"
#include "src/match/kernel.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/obs/metrics.h"
#include "src/seq/view.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

Sequence CyclicPattern(size_t length, size_t alphabet_size) {
  Sequence seq;
  for (size_t i = 0; i < length; ++i) {
    seq.Append(static_cast<SymbolId>(i % alphabet_size));
  }
  return seq;
}

TEST(KernelEngineTest, AutoDispatchHeuristic) {
  const std::vector<ConstraintSpec> none;
  // Two unconstrained patterns share a trie.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2, 0}};
    EXPECT_EQ(ChooseKernelEngine(patterns, none), KernelEngine::kTrie);
  }
  // A single word-sized pattern gets the bit-parallel kernel.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1, 2}};
    EXPECT_EQ(ChooseKernelEngine(patterns, none), KernelEngine::kBitset);
  }
  // Constrained patterns never reach the trie; word-sized ones still
  // benefit from the Shift-And screen.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2}};
    std::vector<ConstraintSpec> constraints(2,
                                            ConstraintSpec::UniformGap(0, 2));
    EXPECT_EQ(ChooseKernelEngine(patterns, constraints),
              KernelEngine::kBitset);
  }
  // A pattern past the 64-symbol word falls back to scalar.
  {
    std::vector<Sequence> patterns = {CyclicPattern(65, 4)};
    EXPECT_EQ(ChooseKernelEngine(patterns, none), KernelEngine::kScalar);
  }
  // The default constructor takes the shape rule's pick.
  {
    std::vector<Sequence> patterns = {Sequence{0, 1}, Sequence{1, 2, 0}};
    EXPECT_EQ(MatchKernel(patterns, none).engine(), KernelEngine::kTrie);
  }
}

// The single-word boundary: m = 64 still runs bit-parallel, m = 65 does
// not — and both count exactly like the scalar DP.
TEST(KernelEngineTest, WordBoundaryAt64Symbols) {
  const size_t kAlphabet = 4;
  Rng rng(77);
  const Sequence text = testutil::RandomSeq(&rng, 400, kAlphabet);
  MatchScratch scratch;
  const std::vector<ConstraintSpec> none;  // MatchKernel borrows this
  for (size_t m : {63u, 64u, 65u}) {
    const Sequence pattern = CyclicPattern(m, kAlphabet);
    const SymbolMasks masks(pattern);
    EXPECT_EQ(masks.usable(), m <= kBitsetMaxPatternLength) << m;

    const std::vector<Sequence> patterns = {pattern};
    const MatchKernel kernel(patterns, none, KernelEngine::kBitset);
    const uint64_t scalar = CountMatchings(pattern, text, &scratch);
    EXPECT_EQ(kernel.CountPattern(0, text, &scratch), scalar) << m;
    EXPECT_EQ(kernel.HasMatch(0, text, &scratch), scalar > 0) << m;
  }
  // Past the word the shape rule picks scalar, and existence still runs
  // the greedy scan, never the counting DP.
  const Sequence long_pattern = CyclicPattern(65, kAlphabet);
  const std::vector<Sequence> patterns = {long_pattern};
  const MatchKernel kernel(patterns, none);
  EXPECT_EQ(kernel.engine(), KernelEngine::kScalar);
  for (const Sequence& haystack : {text, CyclicPattern(130, kAlphabet)}) {
    const uint64_t rows_before = CounterValue("match.count.dp_rows");
    EXPECT_EQ(kernel.HasMatch(0, haystack, &scratch),
              IsSubsequence(long_pattern, haystack));
    EXPECT_EQ(CounterValue("match.count.dp_rows"), rows_before);
  }
}

// The engine is invisible in every output. Every engine × thread count
// computes the scalar engine's stage-1 match info, field by field; and
// the default-dispatched Sanitize releases the same database and report
// at every thread count.
TEST(KernelEngineTest, EngineIsInvisibleInSanitizeOutput) {
  Rng rng(4242);
  const SequenceDatabase base = testutil::RandomDb(&rng, /*rows=*/60,
                                                   /*min_length=*/6,
                                                   /*max_length=*/18,
                                                   /*alphabet_size=*/5);
  const std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 5),
                                          testutil::RandomSeq(&rng, 3, 5),
                                          testutil::RandomSeq(&rng, 4, 5)};
  const std::vector<ConstraintSpec> none;
  const DatabaseView view(base);
  const std::vector<SequenceMatchInfo> reference_info = ComputeMatchInfo(
      view, patterns, none, 1, MatchKernel(patterns, none,
                                           KernelEngine::kScalar));
  ASSERT_EQ(reference_info.size(), base.size());

  for (KernelEngine engine : {KernelEngine::kScalar, KernelEngine::kBitset,
                              KernelEngine::kTrie}) {
    const MatchKernel kernel(patterns, none, engine);
    for (size_t threads : {1u, 2u, 8u}) {
      const std::string what =
          ToString(engine) + "/threads=" + std::to_string(threads);
      const std::vector<SequenceMatchInfo> info =
          ComputeMatchInfo(view, patterns, none, threads, kernel);
      ASSERT_EQ(info.size(), reference_info.size()) << what;
      for (size_t t = 0; t < info.size(); ++t) {
        EXPECT_EQ(info[t].index, reference_info[t].index)
            << what << " row " << t;
        EXPECT_EQ(info[t].matching_count, reference_info[t].matching_count)
            << what << " row " << t;
        EXPECT_EQ(info[t].pattern_support, reference_info[t].pattern_support)
            << what << " row " << t;
      }
    }
  }

  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  opts.num_threads = 1;
  SequenceDatabase reference_db = base;
  auto reference = Sanitize(&reference_db, patterns, opts);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(reference->kernel_engine, "trie");

  for (size_t threads : {2u, 8u}) {
    opts.num_threads = threads;
    SequenceDatabase db = base;
    auto report = Sanitize(&db, patterns, opts);
    const std::string what = "threads=" + std::to_string(threads);
    ASSERT_TRUE(report.ok()) << what << ": " << report.status();
    ASSERT_EQ(db.size(), reference_db.size()) << what;
    for (size_t t = 0; t < db.size(); ++t) {
      EXPECT_TRUE(db[t] == reference_db[t]) << what << " row " << t;
    }
    EXPECT_EQ(report->kernel_engine, reference->kernel_engine) << what;
    EXPECT_EQ(report->marks_introduced, reference->marks_introduced) << what;
    EXPECT_EQ(report->sequences_sanitized, reference->sequences_sanitized)
        << what;
    EXPECT_EQ(report->sequences_supporting_before,
              reference->sequences_supporting_before)
        << what;
    EXPECT_EQ(report->supports_before, reference->supports_before) << what;
    EXPECT_EQ(report->supports_after, reference->supports_after) << what;
    EXPECT_EQ(report->count_rows, reference->count_rows) << what;
    EXPECT_EQ(report->verify_recount_rows, reference->verify_recount_rows)
        << what;
    EXPECT_EQ(report->verify_rescan_rows, reference->verify_rescan_rows)
        << what;
  }
}

}  // namespace
}  // namespace seqhide
