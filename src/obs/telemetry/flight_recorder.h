// In-memory flight recorder: a lock-light bounded ring of structured
// telemetry events.
//
// The metrics registry aggregates; the flight recorder remembers *what
// just happened*: stage transitions, victim selections, marking rounds,
// checkpoint/budget actions, fault-injection hits, thread-pool activity.
// When a run dies (signal, crash, budget stop) the last few thousand
// events are exactly the diagnosis material an aggregate cannot give,
// so the run ledger's terminate hook and final record dump the tail
// (RunLedger in run_ledger.h).
//
// Recording is wait-free: a global ticket from an atomic fetch_add picks
// the slot, and a per-slot seqlock (version odd while the writer is in
// the slot) lets snapshot readers detect and skip torn slots instead of
// blocking writers. The event bytes are stored and loaded as atomic
// words, so a racing copy is never a data race and the seqlock needs no
// standalone fence. Once the ring wraps, each new event overwrites the
// oldest one and the explicit dropped counter increments — the recorder
// never allocates after construction and never blocks a hot path.
//
// Events carry a fixed-size label (truncated, never allocated) and two
// uint64 payload slots whose meaning is per-kind (documented at
// EventKind). Timestamps are steady-clock nanoseconds since the
// recorder was constructed and are exempt from the determinism contract
// (like span timings); kind/label/a/b sequences emitted from the
// deterministic pipeline points are thread-count-invariant.
//
// Use the SEQHIDE_TELEMETRY macro (telemetry.h) from pipeline code; it
// compiles out under SEQHIDE_OBS_DISABLED.

#ifndef SEQHIDE_OBS_TELEMETRY_FLIGHT_RECORDER_H_
#define SEQHIDE_OBS_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace seqhide {
namespace obs {
namespace telemetry {

// What an event describes. Payload convention per kind:
//   kStage      label = stage name ("count", "select", "mark", "verify",
//               suffixed ".done"), a = primary result (rows counted,
//               victims selected, ...), b = secondary.
//   kVictims    label = "selected", a = victim count, b = candidates.
//   kRound      label = "mark.round", a = round number (1-based),
//               b = patterns still above threshold.
//   kCheckpoint label = "write"/"skip"/"resume", a = rounds completed.
//   kBudget     label = budget stop reason, a = rounds completed.
//   kFault      label = fault site that fired (a = b = 0).
//   kPool       label = "sample", a = queue depth, b = chunks executed.
enum class EventKind : uint8_t {
  kStage = 0,
  kVictims = 1,
  kRound = 2,
  kCheckpoint = 3,
  kBudget = 4,
  kFault = 5,
  kPool = 6,
};

// Name of a kind ("stage", "victims", ...), for serialization.
const char* EventKindName(EventKind kind);

// One recorded event. Plain data, fixed size.
struct FlightEvent {
  uint64_t seq = 0;    // 1-based global order of recording
  uint64_t ts_ns = 0;  // steady-clock ns since recorder construction
  uint64_t a = 0;
  uint64_t b = 0;
  EventKind kind = EventKind::kStage;
  char label[47] = {0};  // NUL-terminated, truncated on overflow
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The process-wide recorder fed by SEQHIDE_TELEMETRY (telemetry.h,
  // which also hooks fault-injection fires into the ring as kFault
  // events). Constructed on first use.
  static FlightRecorder& Default();

  // Records one event (any thread, wait-free).
  void Record(EventKind kind, std::string_view label, uint64_t a = 0,
              uint64_t b = 0);

  // Events ever recorded / overwritten-before-read.
  uint64_t total() const { return head_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return slots_.size(); }

  // The newest `max_events` events in recording order (oldest first).
  // Slots concurrently being rewritten are skipped, so the tail may have
  // small gaps when writers race the snapshot; it never blocks them.
  std::vector<FlightEvent> SnapshotTail(size_t max_events) const;

  // Forgets all events and zeroes the counters. Test support only; not
  // safe concurrently with Record().
  void Reset();

 private:
  static constexpr size_t kEventWords = sizeof(FlightEvent) / 8;
  static_assert(sizeof(FlightEvent) % 8 == 0);

  struct Slot {
    // Seqlock: odd while a writer is inside, bumped to even when done.
    std::atomic<uint64_t> version{0};
    // The FlightEvent's bytes. Writers store them release, readers load
    // them acquire: a reader that sees any word of a newer write
    // synchronizes with that writer's odd version bump, so its closing
    // version check cannot still match.
    std::atomic<uint64_t> words[kEventWords] = {};
  };

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> head_{0};  // next ticket == events ever recorded
  std::atomic<uint64_t> dropped_{0};
  std::vector<Slot> slots_;
};

}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide

#endif  // SEQHIDE_OBS_TELEMETRY_FLIGHT_RECORDER_H_
