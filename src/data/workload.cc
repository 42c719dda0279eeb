#include "src/data/workload.h"

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/data/grid.h"
#include "src/match/subsequence.h"

namespace seqhide {
namespace {

// Interns a grid-cell pattern into the workload's alphabet.
Sequence CellPattern(Alphabet* alphabet,
                     const std::vector<std::pair<size_t, size_t>>& cells) {
  Sequence out;
  for (const auto& [cx, cy] : cells) {
    out.Append(alphabet->Intern(GridDiscretizer::CellName(cx, cy)));
  }
  return out;
}

void FillSupports(ExperimentWorkload* w) {
  for (const auto& s : w->sensitive) {
    w->sensitive_supports.push_back(Support(s, w->db));
  }
  w->disjunctive_support = SupportAny(w->sensitive, w->db);
}

}  // namespace

ExperimentWorkload MakeTrucksWorkload(uint64_t seed) {
  TruckFleetOptions options;
  options.seed = seed;
  std::vector<Trajectory> trajectories = GenerateTruckFleet(options);
  auto grid = GridDiscretizer::Create(TruckFieldGrid(options));
  SEQHIDE_CHECK(grid.ok());

  ExperimentWorkload w;
  w.name = "TRUCKS";
  w.db = grid->DiscretizeAll(trajectories, /*collapse_repeats=*/true);
  w.sensitive.push_back(CellPattern(&w.db.alphabet(), {{6, 3}, {7, 2}}));
  w.sensitive.push_back(CellPattern(&w.db.alphabet(), {{4, 3}, {5, 3}}));
  FillSupports(&w);
  return w;
}

ExperimentWorkload MakeSyntheticWorkload(uint64_t seed) {
  CarMovementOptions options;
  options.seed = seed;
  std::vector<Trajectory> trajectories = GenerateCarMovement(options);
  auto grid = GridDiscretizer::Create(CarTownGrid(options));
  SEQHIDE_CHECK(grid.ok());

  ExperimentWorkload w;
  w.name = "SYNTHETIC";
  w.db = grid->DiscretizeAll(trajectories, /*collapse_repeats=*/true);
  w.sensitive.push_back(CellPattern(&w.db.alphabet(), {{2, 7}, {3, 7}}));
  w.sensitive.push_back(CellPattern(&w.db.alphabet(), {{5, 7}, {5, 6}}));
  FillSupports(&w);
  return w;
}

SequenceDatabase MakeRandomDatabase(const RandomDatabaseOptions& options) {
  SEQHIDE_CHECK_GE(options.max_length, options.min_length);
  SEQHIDE_CHECK_GT(options.alphabet_size, 0u);
  Rng rng(options.seed);
  SequenceDatabase db;
  // Pre-intern the alphabet so ids are stable regardless of usage order.
  std::vector<SymbolId> symbols;
  symbols.reserve(options.alphabet_size);
  for (size_t s = 0; s < options.alphabet_size; ++s) {
    symbols.push_back(db.alphabet().Intern(StrCat({"s", std::to_string(s)})));
  }
  for (size_t i = 0; i < options.num_sequences; ++i) {
    size_t len = options.min_length +
                 rng.NextBounded(options.max_length - options.min_length + 1);
    Sequence seq;
    SymbolId prev = symbols[rng.NextBounded(symbols.size())];
    for (size_t j = 0; j < len; ++j) {
      SymbolId sym = (j > 0 && rng.NextBernoulli(options.repeat_bias))
                         ? prev
                         : symbols[rng.NextBounded(symbols.size())];
      seq.Append(sym);
      prev = sym;
    }
    db.Add(std::move(seq));
  }
  return db;
}

}  // namespace seqhide
