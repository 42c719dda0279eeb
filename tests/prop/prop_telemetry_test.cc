// Telemetry determinism property: the run ledger's "event" record
// stream — (event_seq, kind, label, a, b) — is thread-count-invariant
// on seeded random instances.
//
// The ledger contract (src/obs/telemetry/run_ledger.h) promises that
// event records narrate the deterministic pipeline walk, so the same
// instance sanitized with 1, 2, or 8 threads must append the exact same
// ordered event stream (only ts_ms and sampler/signal records may
// differ). Each run opens a real ledger file and the property parses
// the JSONL back, so the whole append path — serialization, write,
// fsync, event_seq assignment — is under test, not just Emit().

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/hide/sanitizer.h"
#include "src/obs/json.h"
#include "src/obs/telemetry/run_ledger.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

namespace otel = ::seqhide::obs::telemetry;

// Small instances: each case runs Sanitize() three times with a live
// ledger (one fsync per event record).
GenOptions TelemetryGen() {
  GenOptions gen;
  gen.max_sequences = 8;
  gen.max_length = 10;
  return gen;
}

// One ledger "event" record, minus its timestamp (exempt from the
// determinism contract).
struct LedgerEvent {
  uint64_t event_seq = 0;
  std::string kind;
  std::string label;
  uint64_t a = 0;
  uint64_t b = 0;

  bool operator==(const LedgerEvent& other) const {
    return event_seq == other.event_seq && kind == other.kind &&
           label == other.label && a == other.a && b == other.b;
  }
};

std::string Describe(const LedgerEvent& e) {
  return StrCat({"#", std::to_string(e.event_seq), " ", e.kind, "/", e.label,
                 "(", std::to_string(e.a), ",", std::to_string(e.b), ")"});
}

// Sanitizes a copy of the instance with `threads` threads while a fresh
// ledger is installed, then parses the event records back out of the
// file. Non-event records (run_start, sample, run_end) are skipped.
// Returns a failure message through *error on any problem.
std::vector<LedgerEvent> RunWithLedger(const PropInstance& inst,
                                       size_t threads, std::string* error) {
  const std::string path = ::testing::TempDir() + "/prop_telemetry_" +
                           std::to_string(threads) + ".jsonl";
  std::vector<LedgerEvent> events;
  {
    auto ledger = otel::RunLedger::Open(path);
    if (!ledger.ok()) {
      *error = "ledger open failed: " + ledger.status().ToString();
      return events;
    }
    (*ledger)->Install();
    SanitizeOptions opts = inst.options;
    opts.num_threads = threads;
    SequenceDatabase db = inst.db;
    auto report = Sanitize(&db, inst.patterns, inst.constraints, opts);
    (*ledger)->Uninstall();
    if (!report.ok()) {
      *error = "Sanitize(threads=" + std::to_string(threads) +
               ") failed: " + report.status().ToString();
      return events;
    }
    if ((*ledger)->disabled()) {
      *error = "ledger disabled itself mid-run";
      return events;
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    *error = "cannot reopen ledger " + path;
    return events;
  }
  std::string line;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    auto parsed = obs::JsonValue::Parse(line);
    if (!parsed.ok()) {
      *error = "unparseable ledger line: " + line;
      std::fclose(f);
      return events;
    }
    if (parsed->StringOr("type", "") == "event") {
      LedgerEvent e;
      e.event_seq = static_cast<uint64_t>(parsed->NumberOr("event_seq", 0));
      e.kind = parsed->StringOr("kind", "");
      e.label = parsed->StringOr("label", "");
      e.a = static_cast<uint64_t>(parsed->NumberOr("a", 0));
      e.b = static_cast<uint64_t>(parsed->NumberOr("b", 0));
      events.push_back(std::move(e));
    }
    line.clear();
  }
  std::fclose(f);
  std::remove(path.c_str());
  return events;
}

TEST(TelemetryProps, LedgerEventStreamIsThreadCountInvariant) {
  PropConfig config;
  config.name = "telemetry/ledger-thread-invariance";
  config.seed = 0x5eed0701;
  // Three full sanitize runs plus a durably fsynced ledger per case:
  // fewer, still-random cases (mirroring the resume-invariance suite).
  config.cases = 60;
  config.gen = TelemetryGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    std::string error;
    std::vector<LedgerEvent> reference = RunWithLedger(inst, 1, &error);
    if (!error.empty()) return error;
#if defined(SEQHIDE_OBS_DISABLED)
    // Observability compiled out: SEQHIDE_TELEMETRY is a no-op, so the
    // stream is trivially invariant — but it must be invariantly empty.
    if (!reference.empty()) {
      return std::string("events recorded under SEQHIDE_OBS_DISABLED");
    }
#else
    if (reference.empty()) {
      return std::string("threads=1 run recorded no ledger events");
    }
#endif
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].event_seq != i + 1) {
        return "event_seq not dense at " + Describe(reference[i]);
      }
    }
    for (size_t threads : {2u, 8u}) {
      std::vector<LedgerEvent> events = RunWithLedger(inst, threads, &error);
      if (!error.empty()) return error;
      if (events.size() != reference.size()) {
        return "threads=" + std::to_string(threads) + " wrote " +
               std::to_string(events.size()) + " events, threads=1 wrote " +
               std::to_string(reference.size());
      }
      for (size_t i = 0; i < events.size(); ++i) {
        if (!(events[i] == reference[i])) {
          return "threads=" + std::to_string(threads) + " diverges: " +
                 Describe(events[i]) + " vs " + Describe(reference[i]);
        }
      }
    }
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
