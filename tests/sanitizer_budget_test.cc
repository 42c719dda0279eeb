// RunBudget graceful degradation (src/hide/options.h): deadline, round
// limit, memory ceiling, and cooperative cancellation must stop the run
// at a round boundary, keep every mark already made, and return an OK but
// *degraded* report whose supports_after and exposed list are exact.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <vector>

#include "src/common/random.h"
#include "src/data/workload.h"
#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "tests/test_util.h"

namespace seqhide {
namespace {

SequenceDatabase BigDb() {
  RandomDatabaseOptions gen;
  gen.num_sequences = 120;
  gen.min_length = 8;
  gen.max_length = 24;
  gen.alphabet_size = 4;
  gen.seed = 777;
  return MakeRandomDatabase(gen);
}

std::vector<Sequence> Patterns(SequenceDatabase* /*db*/) {
  Rng rng(11);
  std::vector<Sequence> patterns = {testutil::RandomSeq(&rng, 2, 4),
                                    testutil::RandomSeq(&rng, 3, 4)};
  if (patterns[0] == patterns[1]) patterns.pop_back();
  return patterns;
}

// Ground truth: per-pattern support recomputed from the database bytes.
std::vector<size_t> TrueSupports(const SequenceDatabase& db,
                                 const std::vector<Sequence>& patterns) {
  std::vector<size_t> out(patterns.size(), 0);
  for (size_t p = 0; p < patterns.size(); ++p) {
    for (size_t t = 0; t < db.size(); ++t) {
      if (HasConstrainedMatch(patterns[p], ConstraintSpec(), db[t])) ++out[p];
    }
  }
  return out;
}

TEST(SanitizerBudgetTest, MaxRoundsStopsEarlyButHonestly) {
  SequenceDatabase db = BigDb();
  std::vector<Sequence> patterns = Patterns(&db);

  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  opts.mark_round_size = 8;  // many rounds so the limit bites mid-run
  opts.budget.max_mark_rounds = 1;

  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->stop_reason, StatusCode::kResourceExhausted);
  EXPECT_EQ(report->rounds_completed, 1u);
  EXPECT_GT(report->rounds_total, 1u);
  // The first round's marks were made and kept.
  EXPECT_GT(report->marks_introduced, 0u);
  EXPECT_GT(db.TotalMarkCount(), 0u);

  // supports_after is exact for the partially sanitized database, and
  // every pattern still above its threshold is listed in `exposed`.
  EXPECT_EQ(report->supports_after, TrueSupports(db, patterns));
  EXPECT_FALSE(report->exposed.empty());
  for (const ExposedPattern& e : report->exposed) {
    ASSERT_LT(e.pattern_index, patterns.size());
    EXPECT_EQ(e.limit, opts.psi);
    EXPECT_GT(e.residual_support, e.limit);
    EXPECT_EQ(e.residual_support, report->supports_after[e.pattern_index]);
  }
}

TEST(SanitizerBudgetTest, ImmediateDeadlineDegradesBeforeMarking) {
  SequenceDatabase db = BigDb();
  const SequenceDatabase before = db;
  std::vector<Sequence> patterns = Patterns(&db);

  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  opts.budget.deadline_seconds = 1e-9;  // expires at the first boundary

  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->stop_reason, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report->marks_introduced, 0u);
  EXPECT_EQ(db.TotalMarkCount(), 0u);
  // Nothing changed, so after == before, and both patterns are exposed
  // (their supports exceed psi in this workload).
  EXPECT_EQ(report->supports_after, report->supports_before);
  EXPECT_EQ(report->supports_after, TrueSupports(before, patterns));
  EXPECT_FALSE(report->exposed.empty());
}

TEST(SanitizerBudgetTest, PresetCancelFlagStopsTheRun) {
  SequenceDatabase db = BigDb();
  std::vector<Sequence> patterns = Patterns(&db);

  std::atomic<bool> cancel{true};
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  opts.budget.cancel = &cancel;

  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->stop_reason, StatusCode::kCancelled);
  EXPECT_EQ(db.TotalMarkCount(), 0u);
  EXPECT_EQ(report->supports_after, TrueSupports(db, patterns));
}

TEST(SanitizerBudgetTest, TinyTableBudgetSkipsVictimsButFinishes) {
  SequenceDatabase db = BigDb();
  std::vector<Sequence> patterns = Patterns(&db);

  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  opts.budget.max_table_bytes = 8;  // no DP table fits

  auto report = Sanitize(&db, patterns, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  // Every round ran (the stop conditions never fired)...
  EXPECT_EQ(report->rounds_completed, report->rounds_total);
  // ...but the victims could not be processed within the memory ceiling.
  EXPECT_GT(report->victims_skipped, 0u);
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->stop_reason, StatusCode::kResourceExhausted);
  // The verify stage's incremental bookkeeping must still be exact (the
  // opts.verify cross-check inside Sanitize already enforced this; pin it
  // against ground truth here too).
  EXPECT_EQ(report->supports_after, TrueSupports(db, patterns));
  EXPECT_FALSE(report->exposed.empty());
}

TEST(SanitizerBudgetTest, TinyTableBudgetSkipsWindowVictims) {
  // The window path's buffers (the per-pattern δ rows and the per-anchor
  // tables) are charged to the same ceiling as every other DP table, so a
  // window-constrained victim is skipped too.
  SequenceDatabase db = BigDb();
  std::vector<Sequence> patterns = Patterns(&db);
  std::vector<ConstraintSpec> specs(patterns.size(),
                                    ConstraintSpec::Window(6));

  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  opts.budget.max_table_bytes = 8;

  auto report = Sanitize(&db, patterns, specs, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rounds_completed, report->rounds_total);
  EXPECT_GT(report->victims_skipped, 0u);
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->stop_reason, StatusCode::kResourceExhausted);
  EXPECT_EQ(report->marks_introduced, 0u);
  EXPECT_FALSE(report->exposed.empty());
}

TEST(SanitizerBudgetTest, GenerousBudgetChangesNothing) {
  // A budget that never binds must leave the run byte-identical to an
  // unbudgeted one.
  SequenceDatabase unbudgeted = BigDb();
  SequenceDatabase budgeted = unbudgeted;
  std::vector<Sequence> patterns = Patterns(&unbudgeted);

  SanitizeOptions opts = SanitizeOptions::HH();
  opts.psi = 2;
  auto base = Sanitize(&unbudgeted, patterns, opts);
  ASSERT_TRUE(base.ok()) << base.status();
  EXPECT_FALSE(base->degraded);
  EXPECT_EQ(base->stop_reason, StatusCode::kOk);
  EXPECT_TRUE(base->exposed.empty());

  opts.budget.deadline_seconds = 3600.0;
  opts.budget.max_table_bytes = size_t{1} << 40;
  opts.budget.max_mark_rounds = 1u << 20;
  std::atomic<bool> cancel{false};
  opts.budget.cancel = &cancel;
  auto got = Sanitize(&budgeted, patterns, opts);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got->degraded);
  EXPECT_EQ(got->marks_introduced, base->marks_introduced);
  EXPECT_EQ(got->supports_after, base->supports_after);
  ASSERT_EQ(budgeted.size(), unbudgeted.size());
  for (size_t t = 0; t < budgeted.size(); ++t) {
    EXPECT_TRUE(budgeted[t] == unbudgeted[t]) << t;
  }
}

TEST(SanitizerBudgetTest, DegradedRunsAreThreadCountInvariant) {
  // A budget stop lands at a deterministic round boundary, and skipped
  // victims are a pure function of table sizes — so degraded output is as
  // thread-count-invariant as healthy output.
  std::vector<Sequence> patterns;
  auto run = [&](size_t threads, size_t max_rounds, size_t table_bytes) {
    SequenceDatabase db = BigDb();
    if (patterns.empty()) patterns = Patterns(&db);
    SanitizeOptions opts = SanitizeOptions::HH();
    opts.psi = 2;
    opts.mark_round_size = 8;
    opts.num_threads = threads;
    opts.budget.max_mark_rounds = max_rounds;
    opts.budget.max_table_bytes = table_bytes;
    auto report = Sanitize(&db, patterns, opts);
    EXPECT_TRUE(report.ok()) << report.status();
    return std::make_pair(db, *report);
  };

  for (auto [max_rounds, table_bytes] :
       {std::make_pair(size_t{2}, size_t{0}),
        std::make_pair(size_t{0}, size_t{512})}) {
    auto [db1, r1] = run(1, max_rounds, table_bytes);
    for (size_t threads : {2u, 8u}) {
      auto [dbn, rn] = run(threads, max_rounds, table_bytes);
      ASSERT_EQ(db1.size(), dbn.size());
      for (size_t t = 0; t < db1.size(); ++t) {
        EXPECT_TRUE(db1[t] == dbn[t]) << "threads=" << threads << " t=" << t;
      }
      EXPECT_EQ(r1.marks_introduced, rn.marks_introduced);
      EXPECT_EQ(r1.rounds_completed, rn.rounds_completed);
      EXPECT_EQ(r1.victims_skipped, rn.victims_skipped);
      EXPECT_EQ(r1.supports_after, rn.supports_after);
      EXPECT_EQ(r1.degraded, rn.degraded);
      EXPECT_EQ(r1.stop_reason, rn.stop_reason);
    }
  }
}

TEST(SanitizerBudgetTest, BudgetOptionsAreValidated) {
  SequenceDatabase db = BigDb();
  std::vector<Sequence> patterns = Patterns(&db);
  SanitizeOptions opts = SanitizeOptions::HH();
  opts.budget.deadline_seconds = -1.0;
  EXPECT_TRUE(Sanitize(&db, patterns, opts).status().IsInvalidArgument());
  opts = SanitizeOptions::HH();
  // NaN would compare false against every elapsed time and silently
  // disable the deadline; it must be rejected like a negative one.
  opts.budget.deadline_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(Sanitize(&db, patterns, opts).status().IsInvalidArgument());
  opts = SanitizeOptions::HH();
  opts.mark_round_size = 0;
  EXPECT_TRUE(Sanitize(&db, patterns, opts).status().IsInvalidArgument());
  opts = SanitizeOptions::HH();
  opts.resume = true;  // resume without a checkpoint path
  EXPECT_TRUE(Sanitize(&db, patterns, opts).status().IsInvalidArgument());
  opts = SanitizeOptions::HH();
  opts.checkpoint_path = "/tmp/x.ckpt";
  opts.checkpoint_every_rounds = 0;
  EXPECT_TRUE(Sanitize(&db, patterns, opts).status().IsInvalidArgument());
}

}  // namespace
}  // namespace seqhide
