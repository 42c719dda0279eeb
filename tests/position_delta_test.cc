#include "src/match/position_delta.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/match/count.h"
#include "src/match/matching_set.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

using testutil::RandomSeq;
using testutil::Seq;

// Paper Example 2: δ(T[1]) = 2, δ(T[2]) = 2, δ(T[3]) = 4 for
// S = <a,b,c>, T = <a,a,b,c,c,b,a,e>.
TEST(PositionDeltaTest, PaperExampleTwo) {
  Alphabet a;
  Sequence t = Seq(&a, "a a b c c b a e");
  Sequence s = Seq(&a, "a b c");
  std::vector<uint64_t> expected = {2, 2, 4, 2, 2, 0, 0, 0};
  EXPECT_EQ(PositionDeltas(s, ConstraintSpec(), t), expected);
  EXPECT_EQ(PositionDeltasByDeletion(s, t), expected);
  EXPECT_EQ(PositionDeltasByMarking(s, ConstraintSpec(), t), expected);
}

TEST(PositionDeltaTest, SingleSymbolPattern) {
  Alphabet a;
  Sequence t = Seq(&a, "x y x");
  Sequence s = Seq(&a, "x");
  EXPECT_EQ(PositionDeltas(s, ConstraintSpec(), t),
            (std::vector<uint64_t>{1, 0, 1}));
}

TEST(PositionDeltaTest, MarkedPositionsHaveZeroDelta) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a b");
  t.Mark(0);
  Sequence s = Seq(&a, "a b");
  std::vector<uint64_t> d = PositionDeltas(s, ConstraintSpec(), t);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[2], 1u);  // only matching (2,3) remains
  EXPECT_EQ(d[3], 1u);
}

TEST(PositionDeltaTest, TotalAggregatesPatterns) {
  Alphabet a;
  Sequence t = Seq(&a, "a b a b");
  std::vector<Sequence> patterns = {Seq(&a, "a b"), Seq(&a, "b a")};
  std::vector<uint64_t> d = PositionDeltasTotal(patterns, {}, t);
  // <a,b>: (0,1),(0,3),(2,3); <b,a>: (1,2).
  // δ(0)=2, δ(1)=2 (1 from <a,b> at (0,1), 1 from <b,a>), δ(2)=2, δ(3)=2.
  EXPECT_EQ(d, (std::vector<uint64_t>{2, 2, 2, 2}));
}

TEST(PositionDeltaTest, GapConstrainedExample) {
  Alphabet a;
  Sequence t = Seq(&a, "a x b b");
  Sequence s = Seq(&a, "a b");
  // Unconstrained: (0,2), (0,3). Max gap 1: only (0,2).
  ConstraintSpec spec = ConstraintSpec::UniformGap(0, 1);
  std::vector<uint64_t> d = PositionDeltas(s, spec, t);
  EXPECT_EQ(d, (std::vector<uint64_t>{1, 0, 1, 0}));
}

TEST(PositionDeltaTest, WindowConstrainedFastPathMatchesMarking) {
  Alphabet a;
  Sequence t = Seq(&a, "a b x a x x b");
  Sequence s = Seq(&a, "a b");
  ConstraintSpec spec = ConstraintSpec::Window(4);
  // Valid under window 4: (0,1) span 2 and (3,6) span 4.
  std::vector<uint64_t> d = PositionDeltas(s, spec, t);
  EXPECT_EQ(d, (std::vector<uint64_t>{1, 1, 0, 1, 0, 0, 1}));
  EXPECT_EQ(PositionDeltasByMarking(s, spec, t), d);
}

// Rows long enough that the sliding sums and the per-anchor slices run
// through every boundary case: windows from 3 up to n (and past it),
// windows combined with per-arrow gaps, and rows already partly marked.
TEST(PositionDeltaTest, LongRowsMatchMarking) {
  Rng rng(4242);
  for (size_t n : {24u, 60u, 150u, 400u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t m = 1 + rng.NextBounded(3);
      Sequence t = RandomSeq(&rng, n, 3);
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBounded(5) == 0) t.Mark(i);
      }
      Sequence s = RandomSeq(&rng, m, 3);
      const size_t ws = std::max<size_t>(m, 3 + rng.NextBounded(n + 2));
      std::vector<GapBound> gaps;
      for (size_t k = 0; k + 1 < m; ++k) {
        GapBound g;
        g.min_gap = rng.NextBounded(3);
        g.max_gap = (rng.NextBounded(3) == 0) ? GapBound::kNoMax
                                              : g.min_gap + rng.NextBounded(6);
        gaps.push_back(g);
      }
      for (ConstraintSpec spec :
           {ConstraintSpec::Window(ws),
            ConstraintSpec::PerArrow(gaps).SetMaxWindow(ws),
            ConstraintSpec::PerArrow(gaps)}) {
        EXPECT_EQ(PositionDeltas(s, spec, t),
                  PositionDeltasByMarking(s, spec, t))
            << "n=" << n << " trial " << trial << " s=" << s.DebugString()
            << " spec=" << spec.ToString();
      }
    }
  }
}

// Cell-by-cell references for the δ tables: every span summed with
// chained SatAdd, O(n²m). fwd[k][j] counts gap-valid embeddings of
// S[1..k+1] ending at j; bwd[k][j] those of S[k+2..m] after j (arrow k+1
// binding at j); δ[j] = Σ_k SatMul(fwd, bwd) over the k with S[k+1] = T[j].
std::vector<uint64_t> NaiveDeltas(const Sequence& s, const ConstraintSpec& spec,
                                  const Sequence& t) {
  const size_t m = s.size();
  const size_t n = t.size();
  std::vector<std::vector<uint64_t>> fwd(m, std::vector<uint64_t>(n, 0));
  std::vector<std::vector<uint64_t>> bwd(m, std::vector<uint64_t>(n, 0));
  for (size_t j = 0; j < n; ++j) {
    fwd[0][j] = (t[j] == s[0]) ? 1 : 0;
    bwd[m - 1][j] = 1;
  }
  for (size_t k = 1; k < m; ++k) {
    for (size_t j = 0; j < n; ++j) {
      if (t[j] != s[k]) continue;
      for (size_t l = 0; l < j; ++l) {
        if (spec.gap(k - 1).Allows(j - l - 1)) {
          fwd[k][j] = SatAdd(fwd[k][j], fwd[k - 1][l]);
        }
      }
    }
  }
  for (size_t k = m - 1; k-- > 0;) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t l = j + 1; l < n; ++l) {
        if (t[l] == s[k + 1] && spec.gap(k).Allows(l - j - 1)) {
          bwd[k][j] = SatAdd(bwd[k][j], bwd[k + 1][l]);
        }
      }
    }
  }
  std::vector<uint64_t> deltas(n, 0);
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < m; ++k) {
      if (s[k] != t[j]) continue;
      deltas[j] = SatAdd(deltas[j], SatMul(fwd[k][j], bwd[k][j]));
    }
  }
  return deltas;
}

TEST(PositionDeltaTest, SaturatedSumsMatchNestedSatAdd) {
  // 300 copies of one symbol against a 16-symbol pattern of it: the
  // middle suffix-table sums exceed 2^64 by many orders of magnitude, so
  // the sliding sums must clamp exactly where chained SatAdd does.
  Sequence t;
  for (int i = 0; i < 300; ++i) t.Append(0);
  t.Mark(150);
  Sequence s;
  for (int i = 0; i < 16; ++i) s.Append(0);
  for (const ConstraintSpec& spec :
       {ConstraintSpec(), ConstraintSpec::UniformGap(0, 40),
        ConstraintSpec::UniformGap(2, GapBound::kNoMax)}) {
    std::vector<uint64_t> want = NaiveDeltas(s, spec, t);
    EXPECT_NE(std::count(want.begin(), want.end(), kCountSaturated), 0)
        << spec.ToString();
    EXPECT_EQ(PositionDeltas(s, spec, t), want) << spec.ToString();
  }
}

// Property: all three δ computations agree with the brute-force
// definition (count of matchings involving the position) across random
// inputs and specs.
TEST(PositionDeltaTest, PropertyAllMethodsAgreeWithBruteForce) {
  Rng rng(90210);
  for (int trial = 0; trial < 300; ++trial) {
    size_t n = 1 + rng.NextBounded(10);
    size_t m = 1 + rng.NextBounded(4);
    Sequence t = RandomSeq(&rng, n, 3);
    Sequence s = RandomSeq(&rng, m, 3);

    ConstraintSpec spec;
    switch (rng.NextBounded(4)) {
      case 0:
        break;
      case 1:
        spec = ConstraintSpec::UniformGap(rng.NextBounded(2),
                                          rng.NextBounded(2) + 2);
        break;
      case 2:
        spec = ConstraintSpec::Window(m + rng.NextBounded(n));
        break;
      case 3:
        spec = ConstraintSpec::UniformGap(0, 2 + rng.NextBounded(2));
        spec.SetMaxWindow(m + rng.NextBounded(n));
        break;
    }

    std::vector<uint64_t> fast = PositionDeltas(s, spec, t);
    std::vector<uint64_t> marking = PositionDeltasByMarking(s, spec, t);
    ASSERT_EQ(fast.size(), n);
    for (size_t i = 0; i < n; ++i) {
      size_t brute = CountMatchingsInvolvingPosition(s, t, spec, i);
      EXPECT_EQ(fast[i], brute)
          << "fast method, trial " << trial << " pos " << i
          << " t=" << t.DebugString() << " s=" << s.DebugString()
          << " spec=" << spec.ToString();
      EXPECT_EQ(marking[i], brute)
          << "marking method, trial " << trial << " pos " << i;
    }
    if (spec.IsUnconstrained()) {
      EXPECT_EQ(PositionDeltasByDeletion(s, t), fast);
    }
  }
}

}  // namespace
}  // namespace seqhide
