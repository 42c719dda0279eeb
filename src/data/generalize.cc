#include "src/data/generalize.h"

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/data/grid.h"
#include "src/match/constrained_count.h"

namespace seqhide {

Result<GridHierarchy> GridHierarchy::Create(size_t factor) {
  if (factor < 2) {
    return Status::InvalidArgument(
        "a grid hierarchy needs a coarsening factor >= 2");
  }
  return GridHierarchy(factor);
}

std::pair<size_t, size_t> GridHierarchy::RegionOf(size_t cell_x,
                                                  size_t cell_y) const {
  SEQHIDE_CHECK_GE(cell_x, 1u);
  SEQHIDE_CHECK_GE(cell_y, 1u);
  return {(cell_x - 1) / factor_ + 1, (cell_y - 1) / factor_ + 1};
}

std::string GridHierarchy::RegionName(size_t region_x, size_t region_y) {
  return StrCat({"R", std::to_string(region_x), "S", std::to_string(region_y)});
}

Result<GeneralizeReport> GeneralizeMarks(
    const SequenceDatabase& original, SequenceDatabase* sanitized,
    const GridHierarchy& hierarchy, const std::vector<Sequence>& patterns,
    const std::vector<ConstraintSpec>& constraints) {
  SEQHIDE_CHECK(sanitized != nullptr);
  if (original.size() != sanitized->size()) {
    return Status::InvalidArgument(
        "original and sanitized databases must have the same row count");
  }
  if (!constraints.empty() && constraints.size() != patterns.size()) {
    return Status::InvalidArgument(
        "constraints list must be empty or have one entry per pattern");
  }

  GeneralizeReport report;
  // One scratch across every trial substitution; the trial loop is
  // allocation-free once the buffers have warmed up.
  MatchScratch scratch;
  for (size_t t = 0; t < sanitized->size(); ++t) {
    const Sequence& before = original[t];
    Sequence* after = sanitized->mutable_sequence(t);
    if (before.size() != after->size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(t) +
          " changed length; GeneralizeMarks needs marking-stage output "
          "(no deletions)");
    }
    for (size_t pos = 0; pos < after->size(); ++pos) {
      if (!after->IsMarked(pos)) continue;
      SymbolId original_symbol = before[pos];
      if (!IsRealSymbol(original_symbol)) {
        ++report.kept_marked;  // original was already a Δ
        continue;
      }
      auto cell = GridDiscretizer::ParseCellName(
          original.alphabet().Name(original_symbol));
      if (!cell.has_value()) {
        ++report.kept_marked;  // not a grid-cell symbol
        continue;
      }
      auto [rx, ry] = hierarchy.RegionOf(cell->first, cell->second);
      SymbolId region = sanitized->alphabet().Intern(
          GridHierarchy::RegionName(rx, ry));

      // Trial substitution; keep Δ if any sensitive occurrence returns.
      Sequence trial = *after;
      std::vector<SymbolId> symbols = trial.symbols();
      symbols[pos] = region;
      trial = Sequence(std::move(symbols));
      if (CountConstrainedMatchingsTotal(patterns, constraints, trial,
                                         &scratch) == 0) {
        *after = std::move(trial);
        ++report.generalized;
      } else {
        ++report.kept_marked;
      }
    }
  }
  return report;
}

}  // namespace seqhide
