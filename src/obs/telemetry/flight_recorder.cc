#include "src/obs/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstring>

namespace seqhide {
namespace obs {
namespace telemetry {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kStage: return "stage";
    case EventKind::kVictims: return "victims";
    case EventKind::kRound: return "round";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kBudget: return "budget";
    case EventKind::kFault: return "fault";
    case EventKind::kPool: return "pool";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      slots_(capacity == 0 ? 1 : capacity) {}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::Record(EventKind kind, std::string_view label, uint64_t a,
                            uint64_t b) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % slots_.size()];
  if (ticket >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t ts_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  // Seqlock write: odd while inside. Two writers can only collide on a
  // slot when their tickets are a full ring apart in flight at once; the
  // worst outcome is one garbled diagnostic slot that readers discard.
  FlightEvent e;
  e.seq = ticket + 1;
  e.ts_ns = ts_ns;
  e.kind = kind;
  e.a = a;
  e.b = b;
  const size_t n = std::min(label.size(), sizeof(e.label) - 1);
  if (n > 0) std::memcpy(e.label, label.data(), n);
  uint64_t words[kEventWords];
  std::memcpy(words, &e, sizeof(e));
  slot.version.fetch_add(1, std::memory_order_acq_rel);
  for (size_t w = 0; w < kEventWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_release);
  }
  slot.version.fetch_add(1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::SnapshotTail(size_t max_events) const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const size_t cap = slots_.size();
  const uint64_t available = std::min<uint64_t>(head, cap);
  const uint64_t want = std::min<uint64_t>(available, max_events);
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(want));
  for (uint64_t i = head - want; i < head; ++i) {
    const Slot& slot = slots_[i % cap];
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // writer inside; skip rather than wait
    uint64_t words[kEventWords];
    for (size_t w = 0; w < kEventWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    if (slot.version.load(std::memory_order_relaxed) != v1) continue;
    FlightEvent copy;
    std::memcpy(&copy, words, sizeof(copy));
    if (copy.seq == 0) continue;
    out.push_back(copy);
  }
  // A slot can be overwritten by a newer event mid-walk; restore
  // recording order by the events' own sequence numbers.
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

void FlightRecorder::Reset() {
  head_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (Slot& slot : slots_) {
    slot.version.store(0, std::memory_order_relaxed);
    for (std::atomic<uint64_t>& word : slot.words) {
      word.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace telemetry
}  // namespace obs
}  // namespace seqhide
