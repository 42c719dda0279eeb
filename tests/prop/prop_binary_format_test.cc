// Property suites for the seqhidb binary format: on generated instances
// (PR5 generators), (1) text→binary→text round trips are identity, (2)
// every mapped matching kernel is differentially equal to its in-memory
// counterpart, and (3) the mapped sanitize overlay reproduces Sanitize()
// byte for byte — report and output database alike.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/mapped_match.h"
#include "src/match/scratch.h"
#include "src/match/subsequence.h"
#include "src/mine/constrained_miner.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

// Serializes, reopens, and returns the mapped image of inst.db; empty
// string in *error on success.
Result<MappedDatabase> MapInstance(const PropInstance& inst) {
  SEQHIDE_ASSIGN_OR_RETURN(std::string bytes,
                           WriteBinaryDatabaseToString(inst.db));
  return MappedDatabase::FromBuffer(bytes, {.verify_checksums = true});
}

TEST(BinaryFormatProps, TextBinaryRoundTripIsIdentity) {
  PropConfig config;
  config.name = "binary/round-trip-identity";
  config.seed = 0x5eedb001;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();
    auto back = mapped->ToDatabase();
    if (!back.ok()) {
      return "ToDatabase failed: " + back.status().ToString();
    }
    if (WriteDatabaseToString(*back) != WriteDatabaseToString(inst.db)) {
      return std::string("text serialization changed across the binary trip");
    }
    // And the binary image itself is a fixed point.
    auto again = WriteBinaryDatabaseToString(*back);
    auto first = WriteBinaryDatabaseToString(inst.db);
    if (!again.ok() || !first.ok() || *again != *first) {
      return std::string("binary serialization is not a fixed point");
    }
    return std::string();
  }));
}

TEST(BinaryFormatProps, MappedKernelsEqualInMemoryKernels) {
  PropConfig config;
  config.name = "binary/mapped-kernels-differential";
  config.seed = 0x5eedb002;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();
    MatchScratch scratch;
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      const Sequence& pattern = inst.patterns[p];
      const ConstraintSpec& spec = inst.constraints.empty()
                                       ? ConstraintSpec()
                                       : inst.constraints[p];
      if (SupportMapped(pattern, *mapped) != Support(pattern, inst.db)) {
        return "SupportMapped mismatch for S" + std::to_string(p);
      }
      if (ConstrainedSupportMapped(pattern, spec, *mapped) !=
          ConstrainedSupport(pattern, spec, inst.db)) {
        return "ConstrainedSupportMapped mismatch for S" + std::to_string(p);
      }
      uint64_t expected = 0;
      for (size_t t = 0; t < inst.db.size(); ++t) {
        expected =
            SatAdd(expected, CountMatchings(pattern, inst.db[t], &scratch));
      }
      if (CountMatchingsMapped(pattern, *mapped) != expected) {
        return "CountMatchingsMapped mismatch for S" + std::to_string(p);
      }
    }
    uint64_t total = 0;
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      const ConstraintSpec& spec = inst.constraints.empty()
                                       ? ConstraintSpec()
                                       : inst.constraints[p];
      for (size_t t = 0; t < inst.db.size(); ++t) {
        total = SatAdd(total, CountConstrainedMatchings(
                                  inst.patterns[p], spec, inst.db[t],
                                  &scratch));
      }
    }
    if (CountConstrainedMatchingsTotalMapped(inst.patterns, inst.constraints,
                                             *mapped) != total) {
      return std::string("CountConstrainedMatchingsTotalMapped mismatch");
    }
    return std::string();
  }));
}

TEST(BinaryFormatProps, MappedSanitizeEqualsInMemorySanitize) {
  PropConfig config;
  config.name = "binary/mapped-sanitize-differential";
  config.seed = 0x5eedb003;
  config.cases = 100;  // two full sanitize runs per case
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();

    SequenceDatabase in_memory = inst.db;
    auto expected =
        Sanitize(&in_memory, inst.patterns, inst.constraints, inst.options);
    auto actual = Sanitize(mapped->view(), inst.patterns, inst.constraints,
                           inst.options);
    if (expected.ok() != actual.ok()) {
      return "status mismatch: in-memory " + expected.status().ToString() +
             " vs mapped " + actual.status().ToString();
    }
    if (!expected.ok()) {
      // Same rejection either way (e.g. pattern longer than every row).
      return std::string();
    }
    const SanitizeReport& e = *expected;
    const SanitizeReport& a = actual->report;
    if (a.marks_introduced != e.marks_introduced ||
        a.sequences_sanitized != e.sequences_sanitized ||
        a.supports_before != e.supports_before ||
        a.supports_after != e.supports_after || a.degraded != e.degraded) {
      return std::string("report mismatch: in-memory ") + e.ToString() +
             " vs mapped " + a.ToString();
    }
    std::ostringstream streamed;
    Status ws = WriteDatabase(mapped->view(), actual->overlay, streamed);
    if (!ws.ok()) return "WriteDatabase: " + ws.ToString();
    if (streamed.str() != WriteDatabaseToString(in_memory)) {
      return std::string("sanitized outputs differ byte-wise");
    }
    return std::string();
  }));
}

TEST(BinaryFormatProps, MappedStatsEqualsInMemoryStats) {
  PropConfig config;
  config.name = "binary/stats-differential";
  config.seed = 0x5eedb004;
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    auto mapped = MapInstance(inst);
    if (!mapped.ok()) return "write/open failed: " + mapped.status().ToString();
    DatabaseStats a = inst.db.Stats();
    DatabaseStats b = mapped->Stats();
    if (a.num_sequences != b.num_sequences ||
        a.total_symbols != b.total_symbols || a.total_marks != b.total_marks ||
        a.min_length != b.min_length || a.max_length != b.max_length ||
        a.mean_length != b.mean_length ||
        a.alphabet_size != b.alphabet_size) {
      return std::string("DatabaseStats mismatch");
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
