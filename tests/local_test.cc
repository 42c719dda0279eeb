#include "src/hide/local.h"

#include <gtest/gtest.h>

#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/position_delta.h"
#include "src/obs/metrics.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;

// Paper Example 2: the heuristic marks T[3] (0-based position 2) first,
// which removes all four matchings in one step.
TEST(LocalSanitizeTest, PaperExampleMarksPositionThree) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  std::vector<Sequence> patterns = {Seq(&a, "a b c")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_EQ(r.marks_introduced, 1u);
  ASSERT_EQ(r.marked_positions.size(), 1u);
  EXPECT_EQ(r.marked_positions[0], 2u);
  EXPECT_TRUE(t.IsMarked(2));
  EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
}

TEST(LocalSanitizeTest, NoMatchingsMeansNoMarks) {
  Alphabet a;
  Sequence t = Seq(&a, "x y z");
  std::vector<Sequence> patterns = {Seq(&a, "z y")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_EQ(r.marks_introduced, 0u);
  EXPECT_EQ(t.MarkCount(), 0u);
}

TEST(LocalSanitizeTest, MultiplePatternsAllRemoved) {
  Alphabet a;
  Sequence t = Seq(&a, "a b c a b c");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "b c"),
                                    Seq(&a, "c a")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_GT(r.marks_introduced, 0u);
  EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
}

TEST(LocalSanitizeTest, RandomStrategyAlsoSanitizes) {
  Alphabet a;
  Rng rng(5);
  Sequence t = Seq(&a, "a b c a b c a b c");
  std::vector<Sequence> patterns = {Seq(&a, "a b c")};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kRandom, &rng);
  EXPECT_GT(r.marks_introduced, 0u);
  EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
}

TEST(LocalSanitizeTest, RandomIsDeterministicInSeed) {
  Alphabet a;
  std::vector<Sequence> patterns = {Seq(&a, "a b")};
  Sequence base = Seq(&a, "a b a b a b");
  Sequence t1 = base, t2 = base;
  Rng rng1(77), rng2(77);
  auto r1 = SanitizeSequence(&t1, patterns, {}, LocalStrategy::kRandom, &rng1);
  auto r2 = SanitizeSequence(&t2, patterns, {}, LocalStrategy::kRandom, &rng2);
  EXPECT_EQ(r1.marked_positions, r2.marked_positions);
  EXPECT_EQ(t1, t2);
}

TEST(LocalSanitizeTest, ConstrainedSanitizationOnlyRemovesValidOccurrences) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x x a x b");
  std::vector<Sequence> patterns = {Seq(&a, "a b")};
  // Only adjacent occurrences are sensitive.
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0)};
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, specs, LocalStrategy::kHeuristic,
                       nullptr);
  EXPECT_EQ(r.marks_introduced, 1u);
  EXPECT_EQ(CountConstrainedMatchings(patterns[0], specs[0], t), 0u);
  // The non-adjacent occurrence survives: the unconstrained pattern is
  // still a subsequence.
  EXPECT_GT(CountMatchings(patterns[0], t), 0u);
}

TEST(LocalSanitizeTest, HeuristicNeverExceedsSequenceLength) {
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = 1 + rng.NextBounded(12);
    Sequence t = RandomSeq(&rng, n, 3);
    std::vector<Sequence> patterns = {RandomSeq(&rng, 1 + rng.NextBounded(3), 3)};
    LocalSanitizeResult r = SanitizeSequence(&t, patterns, {},
                                             LocalStrategy::kHeuristic,
                                             nullptr);
    EXPECT_LE(r.marks_introduced, n);
    EXPECT_EQ(CountMatchingsTotal(patterns, t), 0u);
  }
}

TEST(LocalSanitizeTest, ExhaustiveStrategyIsOptimalAndValid) {
  Alphabet a;
  Rng rng(606);
  for (int trial = 0; trial < 60; ++trial) {
    Sequence base = RandomSeq(&rng, 4 + rng.NextBounded(8), 3);
    std::vector<Sequence> patterns = {RandomSeq(&rng, 2, 3)};
    Sequence exhaustive = base;
    LocalSanitizeResult opt = SanitizeSequence(
        &exhaustive, patterns, {}, LocalStrategy::kExhaustive, nullptr);
    Sequence greedy = base;
    LocalSanitizeResult heur = SanitizeSequence(
        &greedy, patterns, {}, LocalStrategy::kHeuristic, nullptr);
    EXPECT_EQ(CountMatchingsTotal(patterns, exhaustive), 0u);
    EXPECT_LE(opt.marks_introduced, heur.marks_introduced);
    EXPECT_EQ(exhaustive.MarkCount(), opt.marks_introduced);
  }
}

TEST(LocalSanitizeTest, ExhaustiveRespectsConstraints) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x a x b");
  std::vector<Sequence> patterns = {Seq(&a, "a b")};
  std::vector<ConstraintSpec> specs = {ConstraintSpec::UniformGap(0, 0)};
  LocalSanitizeResult r = SanitizeSequence(
      &t, patterns, specs, LocalStrategy::kExhaustive, nullptr);
  EXPECT_EQ(r.marks_introduced, 1u);
  EXPECT_EQ(CountConstrainedMatchings(patterns[0], specs[0], t), 0u);
}

// Property: on random inputs the greedy heuristic uses no more marks than
// the random strategy does on average (sanity of the heuristic).
TEST(LocalSanitizeTest, HeuristicBeatsRandomOnAverage) {
  Rng rng(2718);
  size_t heuristic_total = 0, random_total = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Sequence base = RandomSeq(&rng, 12, 3);
    std::vector<Sequence> patterns = {RandomSeq(&rng, 2, 3)};
    Sequence t_h = base;
    heuristic_total += SanitizeSequence(&t_h, patterns, {},
                                        LocalStrategy::kHeuristic, nullptr)
                           .marks_introduced;
    for (uint64_t seed = 0; seed < 5; ++seed) {
      Sequence t_r = base;
      Rng local_rng(seed);
      random_total += SanitizeSequence(&t_r, patterns, {},
                                       LocalStrategy::kRandom, &local_rng)
                          .marks_introduced;
    }
  }
  EXPECT_LE(heuristic_total * 5, random_total);
}

// The paper's loop, literally: recompute the whole δ every round with
// PositionDeltasTotal, then pick as SanitizeSequence does.
std::vector<size_t> ReferenceMarks(Sequence t,
                                   const std::vector<Sequence>& patterns,
                                   const std::vector<ConstraintSpec>& specs,
                                   LocalStrategy strategy, Rng* rng) {
  std::vector<size_t> marks;
  for (;;) {
    std::vector<uint64_t> deltas = PositionDeltasTotal(patterns, specs, t);
    std::vector<size_t> candidates;
    uint64_t best_delta = 0;
    size_t best = 0;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (deltas[i] == 0) continue;
      candidates.push_back(i);
      if (deltas[i] > best_delta) {
        best_delta = deltas[i];
        best = i;
      }
    }
    if (candidates.empty()) return marks;
    const size_t chosen =
        strategy == LocalStrategy::kHeuristic
            ? best
            : candidates[static_cast<size_t>(
                  rng->NextBounded(candidates.size()))];
    t.Mark(chosen);
    marks.push_back(chosen);
  }
}

// Keeping one δ row per pattern and recomputing only the patterns the
// last mark touched must reproduce the full recomputation mark for mark.
TEST(LocalSanitizeTest, IncrementalDeltasMatchFullRecomputation) {
  Rng rng(31337);
  for (int trial = 0; trial < 80; ++trial) {
    const size_t n = 10 + rng.NextBounded(70);
    Sequence t = RandomSeq(&rng, n, 4);
    std::vector<Sequence> patterns;
    std::vector<ConstraintSpec> specs;
    const size_t num_patterns = 1 + rng.NextBounded(4);
    const int mix = trial % 4;  // plain, gap, window, mixed
    for (size_t p = 0; p < num_patterns; ++p) {
      const size_t m = 1 + rng.NextBounded(3);
      patterns.push_back(RandomSeq(&rng, m, 4));
      const int kind = (mix == 3) ? static_cast<int>(rng.NextBounded(4)) : mix;
      ConstraintSpec spec;
      if (kind == 1) spec = ConstraintSpec::UniformGap(rng.NextBounded(2), 3);
      if (kind == 2) spec = ConstraintSpec::Window(m + rng.NextBounded(6));
      if (kind == 3) {
        spec = ConstraintSpec::UniformGap(0, 4);
        spec.SetMaxWindow(m + rng.NextBounded(8));
      }
      specs.push_back(spec);
    }
    for (LocalStrategy strategy :
         {LocalStrategy::kHeuristic, LocalStrategy::kRandom}) {
      Rng ref_rng(trial), run_rng(trial);
      std::vector<size_t> want =
          ReferenceMarks(t, patterns, specs, strategy, &ref_rng);
      Sequence got = t;
      LocalSanitizeResult r =
          SanitizeSequence(&got, patterns, specs, strategy, &run_rng);
      EXPECT_EQ(r.marked_positions, want)
          << "trial " << trial << " mix " << mix << " t=" << t.DebugString();
      EXPECT_EQ(CountConstrainedMatchingsTotal(patterns, specs, got), 0u);
    }
  }
}

#if !defined(SEQHIDE_OBS_DISABLED)
TEST(LocalSanitizeTest, UntouchedPatternsAreNotRecomputed) {
  Alphabet a;
  // δ = <3,1,1,1,1,0,1,2>: the first mark lands on T[0] = a, which <c,d>
  // does not use, so <c,d>'s δ row is kept for the second round.
  Sequence t = Seq(&a, "a b b c d x a b");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "c d")};
  obs::Counter* reuses =
      obs::MetricsRegistry::Default().GetCounter("local.pattern_delta_reuses");
  const uint64_t before = reuses->Value();
  LocalSanitizeResult r =
      SanitizeSequence(&t, patterns, {}, LocalStrategy::kHeuristic, nullptr);
  EXPECT_GT(r.marks_introduced, 1u);
  EXPECT_GT(reuses->Value(), before);
}
#endif

}  // namespace
}  // namespace seqhide
