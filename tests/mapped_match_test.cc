// Differential tests for the mapped matching kernels
// (src/match/mapped_match.h): on seeded random databases, every mapped
// kernel must return exactly what its in-memory counterpart returns —
// the index pruning is an optimization, never a semantics change. Also
// covers the DatabaseView adapter overloads the kernels build on.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/random.h"
#include "src/constraints/constraints.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/mapped_match.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/mine/constrained_miner.h"
#include "src/seq/binary_format.h"
#include "src/seq/view.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

MappedDatabase Map(const SequenceDatabase& db) {
  auto bytes = WriteBinaryDatabaseToString(db);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  auto mapped = MappedDatabase::FromBuffer(*bytes);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  return std::move(mapped).value();
}

TEST(MappedMatchTest, SupportMatchesInMemory) {
  Rng rng(101);
  for (int round = 0; round < 10; ++round) {
    SequenceDatabase db = testutil::RandomDb(&rng, 30, 0, 12, 4);
    MappedDatabase mapped = Map(db);
    for (int i = 0; i < 20; ++i) {
      Sequence pattern = testutil::RandomSeq(&rng, 1 + i % 5, 4);
      EXPECT_EQ(SupportMapped(pattern, ConstraintSpec(), mapped),
                Support(pattern, db))
          << pattern.DebugString();
    }
  }
}

TEST(MappedMatchTest, CountMatchingsMatchesInMemory) {
  Rng rng(103);
  SequenceDatabase db = testutil::RandomDb(&rng, 25, 0, 10, 3);
  MappedDatabase mapped = Map(db);
  MatchScratch scratch;
  for (int i = 0; i < 30; ++i) {
    Sequence pattern = testutil::RandomSeq(&rng, 1 + i % 4, 3);
    uint64_t expected = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      expected = SatAdd(expected, CountMatchings(pattern, db[t], &scratch));
    }
    EXPECT_EQ(CountConstrainedMatchingsTotalMapped({pattern}, {}, mapped),
              expected)
        << pattern.DebugString();
  }
}

TEST(MappedMatchTest, ConstrainedSupportMatchesInMemory) {
  Rng rng(107);
  SequenceDatabase db = testutil::RandomDb(&rng, 30, 0, 14, 4);
  MappedDatabase mapped = Map(db);
  for (int i = 0; i < 25; ++i) {
    Sequence pattern = testutil::RandomSeq(&rng, 2 + i % 3, 4);
    ConstraintSpec spec =
        proptest::GenConstraintSpec(&rng, pattern.size(), 14);
    EXPECT_EQ(SupportMapped(pattern, spec, mapped),
              ConstrainedSupport(pattern, spec, db))
        << pattern.DebugString();
  }
}

TEST(MappedMatchTest, ConstrainedTotalMatchesInMemory) {
  Rng rng(109);
  SequenceDatabase db = testutil::RandomDb(&rng, 20, 0, 10, 4);
  MappedDatabase mapped = Map(db);
  MatchScratch scratch;
  std::vector<Sequence> patterns;
  std::vector<ConstraintSpec> constraints;
  for (int i = 0; i < 3; ++i) {
    patterns.push_back(testutil::RandomSeq(&rng, 2 + i, 4));
    constraints.push_back(
        proptest::GenConstraintSpec(&rng, patterns.back().size(), 10));
  }
  uint64_t expected = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    for (size_t t = 0; t < db.size(); ++t) {
      expected = SatAdd(expected, CountConstrainedMatchings(
                                      patterns[p], constraints[p], db[t],
                                      &scratch));
    }
  }
  EXPECT_EQ(CountConstrainedMatchingsTotalMapped(patterns, constraints, mapped),
            expected);
  // Empty constraint list = all unconstrained.
  uint64_t unconstrained = 0;
  for (size_t p = 0; p < patterns.size(); ++p) {
    for (size_t t = 0; t < db.size(); ++t) {
      unconstrained = SatAdd(
          unconstrained,
          CountConstrainedMatchings(patterns[p], ConstraintSpec(), db[t],
                                    &scratch));
    }
  }
  EXPECT_EQ(CountConstrainedMatchingsTotalMapped(patterns, {}, mapped),
            unconstrained);
}

// A constrained and an unconstrained pattern over disjoint symbols: their
// candidate lists differ, so the union pass scores each pattern on rows
// outside its own list, which must contribute nothing.
TEST(MappedMatchTest, MixedPatternsOverDifferentCandidateRows) {
  Rng rng(131);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 0, 12, 6);
  MappedDatabase mapped = Map(db);
  const std::vector<Sequence> patterns = {Sequence{0, 1, 2},
                                          Sequence{3, 4}};
  const std::vector<ConstraintSpec> constraints = {
      ConstraintSpec::UniformGap(0, 3), ConstraintSpec()};
  ASSERT_NE(mapped.CandidateRows(patterns[0]),
            mapped.CandidateRows(patterns[1]));
  MatchScratch scratch;
  uint64_t expected = 0;
  for (size_t t = 0; t < db.size(); ++t) {
    expected = SatAdd(expected, CountConstrainedMatchingsTotal(
                                    patterns, constraints, db[t], &scratch));
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(CountConstrainedMatchingsTotalMapped(patterns, constraints, mapped),
            expected);
}

TEST(MappedMatchTest, UnknownSymbolsHaveZeroSupport) {
  Rng rng(113);
  SequenceDatabase db = testutil::RandomDb(&rng, 10, 1, 8, 3);
  MappedDatabase mapped = Map(db);
  // A pattern symbol the file has never seen: id beyond alphabet_size.
  Sequence pattern;
  pattern.Append(static_cast<SymbolId>(db.alphabet().size() + 5));
  EXPECT_EQ(SupportMapped(pattern, ConstraintSpec(), mapped), 0u);
  EXPECT_EQ(CountConstrainedMatchingsTotalMapped({pattern}, {}, mapped), 0u);
  EXPECT_TRUE(mapped.CandidateRows(pattern).empty());
}

TEST(MappedMatchTest, DatabaseViewOverloadsMatchSequenceDatabase) {
  Rng rng(127);
  SequenceDatabase db = testutil::RandomDb(&rng, 15, 0, 10, 4);
  MappedDatabase mapped = Map(db);
  DatabaseView adapter(db);       // in-memory adapter
  DatabaseView columnar = mapped.view();  // columnar mapped view
  ASSERT_EQ(adapter.size(), columnar.size());
  for (int i = 0; i < 20; ++i) {
    Sequence pattern = testutil::RandomSeq(&rng, 1 + i % 4, 4);
    const size_t expected = Support(pattern, db);
    EXPECT_EQ(Support(pattern, adapter), expected);
    EXPECT_EQ(Support(pattern, columnar), expected);
  }
}

}  // namespace
}  // namespace seqhide
