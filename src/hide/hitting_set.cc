#include "src/hide/hitting_set.h"

#include <algorithm>
#include <optional>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/match/matching_set.h"

namespace seqhide {
namespace {

// Branch and bound for minimum hitting set over pairs: find an unhit pair,
// branch on hitting it with either element.
void HittingSearch(const std::vector<std::pair<size_t, size_t>>& pairs,
                   std::vector<bool>* chosen, size_t chosen_count,
                   size_t* best) {
  if (chosen_count >= *best) return;  // cannot improve
  // First pair not hit by the current choice.
  const std::pair<size_t, size_t>* unhit = nullptr;
  for (const auto& pr : pairs) {
    if (!(*chosen)[pr.first] && !(*chosen)[pr.second]) {
      unhit = &pr;
      break;
    }
  }
  if (unhit == nullptr) {
    *best = chosen_count;
    return;
  }
  for (size_t element : {unhit->first, unhit->second}) {
    (*chosen)[element] = true;
    HittingSearch(pairs, chosen, chosen_count + 1, best);
    (*chosen)[element] = false;
  }
}

// One matching of any pattern in `seq`, or nullopt when sanitized.
std::optional<Matching> AnyMatching(
    const Sequence& seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints) {
  for (size_t p = 0; p < patterns.size(); ++p) {
    const ConstraintSpec& spec =
        constraints.empty() ? ConstraintSpec() : constraints[p];
    std::vector<Matching> found =
        EnumerateMatchings(patterns[p], seq, spec, /*cap=*/1);
    if (!found.empty()) return std::move(found.front());
  }
  return std::nullopt;
}

void OptimalSearch(Sequence* seq, const std::vector<Sequence>& patterns,
                   const std::vector<ConstraintSpec>& constraints,
                   std::vector<size_t>* current, OptimalSanitization* best) {
  if (current->size() >= best->num_marks) return;  // bound
  std::optional<Matching> witness = AnyMatching(*seq, patterns, constraints);
  if (!witness.has_value()) {
    best->num_marks = current->size();
    best->positions = *current;
    std::sort(best->positions.begin(), best->positions.end());
    return;
  }
  // Every sanitization must mark at least one position of this matching.
  for (size_t pos : *witness) {
    SymbolId saved = (*seq)[pos];
    seq->Mark(pos);
    current->push_back(pos);
    OptimalSearch(seq, patterns, constraints, current, best);
    current->pop_back();
    // Restore: Sequence has no "unmark", rebuild via assignment.
    std::vector<SymbolId> symbols = seq->symbols();
    symbols[pos] = saved;
    *seq = Sequence(std::move(symbols));
  }
}

}  // namespace

Result<SanitizationInstance> ReduceHittingSetToSanitization(
    const HittingSetInstance& instance) {
  SanitizationInstance out;
  std::vector<SymbolId> symbols;
  symbols.reserve(instance.universe_size);
  for (size_t e = 0; e < instance.universe_size; ++e) {
    symbols.push_back(
        out.alphabet.Intern(StrCat({"p", std::to_string(e + 1)})));
  }
  out.sequence = Sequence(std::move(symbols));
  for (const auto& [j, k] : instance.pairs) {
    if (j >= instance.universe_size || k >= instance.universe_size) {
      return Status::InvalidArgument("pair element outside the universe");
    }
    if (j == k) {
      return Status::InvalidArgument(
          "pairs must contain two distinct elements");
    }
    // The construction assumes j < k so that <p_j, p_k> embeds in T.
    size_t lo = std::min(j, k);
    size_t hi = std::max(j, k);
    out.patterns.push_back(Sequence{out.sequence[lo], out.sequence[hi]});
  }
  return out;
}

size_t MinHittingSetSize(const HittingSetInstance& instance) {
  if (instance.pairs.empty()) return 0;
  std::vector<bool> chosen(instance.universe_size, false);
  // Trivial upper bound: one element per pair.
  size_t best = instance.pairs.size() + 1;
  if (best > instance.universe_size + 1) best = instance.universe_size + 1;
  HittingSearch(instance.pairs, &chosen, 0, &best);
  return best;
}

OptimalSanitization OptimalSanitizeSequence(
    const Sequence& seq, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  OptimalSanitization best;
  best.num_marks = seq.size() + 1;  // upper bound: mark everything
  Sequence working = seq;
  std::vector<size_t> current;
  OptimalSearch(&working, patterns, constraints, &current, &best);
  SEQHIDE_CHECK_LE(best.num_marks, seq.size());
  return best;
}

}  // namespace seqhide
