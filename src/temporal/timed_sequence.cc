#include "src/temporal/timed_sequence.h"

#include "src/common/logging.h"

namespace seqhide {

Result<TimedSequence> TimedSequence::Create(std::vector<TimedEvent> events) {
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) {
      return Status::InvalidArgument(
          "timed events must have non-decreasing timestamps (violated at "
          "index " +
          std::to_string(i) + ")");
    }
  }
  return TimedSequence(std::move(events));
}

void TimedSequence::Mark(size_t pos) {
  SEQHIDE_CHECK_LT(pos, events_.size());
  events_[pos].symbol = kDeltaSymbol;
}

size_t TimedSequence::MarkCount() const {
  size_t count = 0;
  for (const auto& e : events_) {
    if (e.symbol == kDeltaSymbol) ++count;
  }
  return count;
}

Sequence TimedSequence::Symbols() const {
  Sequence out;
  for (const auto& e : events_) out.Append(e.symbol);
  return out;
}

std::string TimedSequence::ToString(const Alphabet& alphabet) const {
  std::string out;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out += " ";
    out += alphabet.Name(events_[i].symbol);
    out += "@";
    out += std::to_string(events_[i].time);
  }
  return out;
}

Status TimeConstraintSpec::Validate() const {
  if (min_gap_time < 0.0) {
    return Status::InvalidArgument("min_gap_time must be >= 0");
  }
  if (max_gap_time < min_gap_time) {
    return Status::InvalidArgument("max_gap_time < min_gap_time");
  }
  if (max_window_time < 0.0) {
    return Status::InvalidArgument("max_window_time must be >= 0");
  }
  return Status::OK();
}

}  // namespace seqhide
