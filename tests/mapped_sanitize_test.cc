// Differential tests for Sanitize() over a mapped seqhidb image
// (src/hide/sanitizer.h): the overlay it returns for MappedDatabase::view()
// must reproduce Sanitize() on the materialized database exactly — same
// report, same final rows, same text serialization — across strategy
// combinations, thread counts, constraints, multi-threshold ψ, budget
// stops, and checkpoint/resume.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/hide/sanitizer.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
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

// The sanitized database: ToDatabase() with the overlay's rows swapped in.
Result<SequenceDatabase> ApplySanitizeOverlay(const MappedDatabase& mapped,
                                              const SanitizeResult& result) {
  auto db = mapped.ToDatabase();
  SEQHIDE_RETURN_IF_ERROR(db.status());
  SEQHIDE_RETURN_IF_ERROR(ApplyMarkOverlay(result.overlay, &db.value()));
  return db;
}

void ExpectSameOutcome(const SequenceDatabase& original,
                       const std::vector<Sequence>& patterns,
                       const std::vector<ConstraintSpec>& constraints,
                       const SanitizeOptions& opts, const std::string& what) {
  SequenceDatabase in_memory = original;
  auto expected = Sanitize(&in_memory, patterns, constraints, opts);
  ASSERT_TRUE(expected.ok()) << what << ": " << expected.status();

  MappedDatabase mapped = Map(original);
  auto actual = Sanitize(mapped.view(), patterns, constraints, opts);
  ASSERT_TRUE(actual.ok()) << what << ": " << actual.status();

  const SanitizeReport& e = *expected;
  const SanitizeReport& a = actual->report;
  EXPECT_EQ(a.marks_introduced, e.marks_introduced) << what;
  EXPECT_EQ(a.sequences_sanitized, e.sequences_sanitized) << what;
  EXPECT_EQ(a.sequences_supporting_before, e.sequences_supporting_before)
      << what;
  EXPECT_EQ(a.supports_before, e.supports_before) << what;
  EXPECT_EQ(a.supports_after, e.supports_after) << what;
  EXPECT_EQ(a.rounds_completed, e.rounds_completed) << what;
  EXPECT_EQ(a.rounds_total, e.rounds_total) << what;
  EXPECT_EQ(a.degraded, e.degraded) << what;
  EXPECT_EQ(a.victims_skipped, e.victims_skipped) << what;
  EXPECT_EQ(a.threads_used, e.threads_used) << what;

  // The overlay applied to the mapping is the in-memory result, row for
  // row — and so is the streamed text serialization.
  auto materialized = ApplySanitizeOverlay(mapped, *actual);
  ASSERT_TRUE(materialized.ok()) << what << ": " << materialized.status();
  ASSERT_EQ(materialized->size(), in_memory.size()) << what;
  for (size_t t = 0; t < in_memory.size(); ++t) {
    EXPECT_EQ((*materialized)[t], in_memory[t]) << what << " row " << t;
  }
  std::ostringstream streamed;
  ASSERT_TRUE(WriteDatabase(mapped.view(), actual->overlay, streamed).ok())
      << what;
  EXPECT_EQ(streamed.str(), WriteDatabaseToString(in_memory)) << what;
}

TEST(MappedSanitizeTest, MatchesInMemoryAcrossStrategies) {
  Rng rng(211);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 2, 14, 4);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 4),
                                    testutil::RandomSeq(&rng, 3, 4)};
  if (patterns[0] == patterns[1]) patterns.pop_back();

  for (const char* algo : {"HH", "HR", "RH", "RR"}) {
    SanitizeOptions opts;
    opts.local = (algo[0] == 'H') ? LocalStrategy::kHeuristic
                                  : LocalStrategy::kRandom;
    opts.global = (algo[1] == 'H') ? GlobalStrategy::kHeuristic
                                   : GlobalStrategy::kRandom;
    opts.psi = 2;
    opts.seed = 77;
    ExpectSameOutcome(db, patterns, {}, opts, algo);
  }
}

TEST(MappedSanitizeTest, MatchesInMemoryWithConstraintsAndThreads) {
  Rng rng(223);
  SequenceDatabase db = testutil::RandomDb(&rng, 35, 3, 12, 5);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 5),
                                    testutil::RandomSeq(&rng, 3, 5)};
  if (patterns[0] == patterns[1]) patterns.pop_back();
  std::vector<ConstraintSpec> constraints;
  for (const Sequence& p : patterns) {
    constraints.push_back(proptest::GenConstraintSpec(&rng, p.size(), 12));
  }
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SanitizeOptions opts;
    opts.psi = 1;
    opts.num_threads = threads;
    ExpectSameOutcome(db, patterns, constraints, opts,
                      "threads=" + std::to_string(threads));
  }
}

TEST(MappedSanitizeTest, MatchesInMemoryWithPerPatternPsi) {
  Rng rng(227);
  SequenceDatabase db = testutil::RandomDb(&rng, 30, 2, 10, 4);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 4),
                                    testutil::RandomSeq(&rng, 3, 4)};
  if (patterns[0] == patterns[1]) patterns.pop_back();
  SanitizeOptions opts;
  opts.per_pattern_psi.assign(patterns.size(), 1);
  if (opts.per_pattern_psi.size() > 1) opts.per_pattern_psi[1] = 3;
  ExpectSameOutcome(db, patterns, {}, opts, "per-pattern-psi");
}

TEST(MappedSanitizeTest, BudgetStopDegradesIdentically) {
  Rng rng(229);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 3, 12, 3);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 3)};
  SanitizeOptions opts;
  opts.psi = 0;
  opts.mark_round_size = 2;
  opts.budget.max_mark_rounds = 1;
  ExpectSameOutcome(db, patterns, {}, opts, "budget-stop");
}

TEST(MappedSanitizeTest, BudgetStoppedRunResumesToUninterruptedBytes) {
  Rng rng(233);
  SequenceDatabase db = testutil::RandomDb(&rng, 40, 3, 12, 3);
  MappedDatabase mapped = Map(db);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 3)};
  SanitizeOptions opts;
  opts.mark_round_size = 2;
  auto whole = Sanitize(mapped.view(), patterns, {}, opts);
  ASSERT_TRUE(whole.ok()) << whole.status();
  ASSERT_GT(whole->report.rounds_total, 2u);
  std::ostringstream expected;
  ASSERT_TRUE(WriteDatabase(mapped.view(), whole->overlay, expected).ok());

  const std::string ckpt = ::testing::TempDir() + "/mapped_sanitize.ckpt";
  std::remove(ckpt.c_str());
  SanitizeOptions stopped = opts;
  stopped.checkpoint_path = ckpt;
  stopped.budget.max_mark_rounds = 1;
  auto first = Sanitize(mapped.view(), patterns, {}, stopped);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->report.degraded);
  EXPECT_EQ(first->report.rounds_completed, 1u);

  SanitizeOptions resumed = opts;
  resumed.checkpoint_path = ckpt;
  resumed.resume = true;
  auto second = Sanitize(mapped.view(), patterns, {}, resumed);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->report.resumed);
  EXPECT_FALSE(second->report.degraded);
  EXPECT_EQ(second->report.marks_introduced, whole->report.marks_introduced);
  EXPECT_EQ(second->report.supports_after, whole->report.supports_after);
  std::ostringstream streamed;
  ASSERT_TRUE(WriteDatabase(mapped.view(), second->overlay, streamed).ok());
  EXPECT_EQ(streamed.str(), expected.str());
  std::remove(ckpt.c_str());
}

TEST(MappedSanitizeTest, OverlayHelpersRejectBadRows) {
  Rng rng(239);
  SequenceDatabase db = testutil::RandomDb(&rng, 5, 1, 6, 3);
  MappedDatabase mapped = Map(db);
  SanitizeResult bogus;
  bogus.overlay.emplace_back(db.size() + 3, db[0]);
  EXPECT_TRUE(ApplySanitizeOverlay(mapped, bogus).status().IsInvalidArgument());
  std::ostringstream out;
  EXPECT_TRUE(
      WriteDatabase(mapped.view(), bogus.overlay, out).IsInvalidArgument());
}

}  // namespace
}  // namespace seqhide
