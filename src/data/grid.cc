#include "src/data/grid.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace seqhide {

Result<GridDiscretizer> GridDiscretizer::Create(const GridSpec& spec) {
  if (spec.max_x <= spec.min_x || spec.max_y <= spec.min_y) {
    return Status::InvalidArgument("grid field has non-positive extent");
  }
  if (spec.cells_x == 0 || spec.cells_y == 0) {
    return Status::InvalidArgument("grid must have at least one cell");
  }
  return GridDiscretizer(spec);
}

std::pair<size_t, size_t> GridDiscretizer::CellOf(double x, double y) const {
  double fx = (x - spec_.min_x) / (spec_.max_x - spec_.min_x);
  double fy = (y - spec_.min_y) / (spec_.max_y - spec_.min_y);
  auto clamp_index = [](double f, size_t cells) -> size_t {
    if (f < 0.0) f = 0.0;
    size_t idx = static_cast<size_t>(f * static_cast<double>(cells));
    return std::min(idx, cells - 1);
  };
  return {clamp_index(fx, spec_.cells_x) + 1,
          clamp_index(fy, spec_.cells_y) + 1};
}

std::string GridDiscretizer::CellName(size_t cell_x, size_t cell_y) {
  return StrCat({"X", std::to_string(cell_x), "Y", std::to_string(cell_y)});
}

std::optional<std::pair<size_t, size_t>> GridDiscretizer::ParseCellName(
    std::string_view name) {
  if (name.size() < 4 || name[0] != 'X') return std::nullopt;
  size_t y_pos = name.find('Y', 1);
  if (y_pos == std::string_view::npos || y_pos == 1 ||
      y_pos + 1 >= name.size()) {
    return std::nullopt;
  }
  auto cx = ParseInt64(name.substr(1, y_pos - 1));
  auto cy = ParseInt64(name.substr(y_pos + 1));
  if (!cx.has_value() || !cy.has_value() || *cx < 1 || *cy < 1) {
    return std::nullopt;
  }
  return std::make_pair(static_cast<size_t>(*cx), static_cast<size_t>(*cy));
}

Sequence GridDiscretizer::Discretize(Alphabet* alphabet,
                                     const Trajectory& trajectory,
                                     bool collapse_repeats) const {
  SEQHIDE_CHECK(alphabet != nullptr);
  Sequence out;
  SymbolId last = kDeltaSymbol;  // sentinel: no previous symbol
  for (const auto& point : trajectory.points) {
    auto [cx, cy] = CellOf(point.x, point.y);
    SymbolId sym = alphabet->Intern(CellName(cx, cy));
    if (collapse_repeats && sym == last) continue;
    out.Append(sym);
    last = sym;
  }
  return out;
}

SequenceDatabase GridDiscretizer::DiscretizeAll(
    const std::vector<Trajectory>& trajectories, bool collapse_repeats) const {
  SequenceDatabase db;
  for (const auto& trajectory : trajectories) {
    Sequence seq = Discretize(&db.alphabet(), trajectory, collapse_repeats);
    if (!seq.empty()) db.Add(std::move(seq));
  }
  return db;
}

}  // namespace seqhide
