#include "perfbench/gen.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "src/seq/binary_format.h"
#include "src/seq/database.h"
#include "src/seq/io.h"

namespace perfbench {
namespace {

// Inputs differ from seed to seed in content, not in difficulty: row
// lengths are stratified over their range and placed in a fixed order,
// and patterns are fixed by symbol popularity rank. The seed decides which
// symbol name holds which rank and every symbol drawn — so medians from
// different seeds measure the same amount of work.
struct Shape {
  size_t rows = 0;
  size_t min_len = 0;
  size_t max_len = 0;
  size_t alphabet = 0;
  // Chance that a position repeats one of the previous three symbols.
  double repeat_bias = 0.0;
  // The symbol of rank k is drawn with weight 1 / (k + 1)^zipf.
  double zipf = 0.0;
};

class Gen {
 public:
  Gen(uint64_t seed, const std::string& salt, size_t alphabet)
      : rng_(seed * 0x9E3779B97F4A7C15ull ^ Fnv1a(salt)), names_(alphabet) {
    std::iota(names_.begin(), names_.end(), size_t{0});
    std::shuffle(names_.begin(), names_.end(), rng_);
  }

  size_t Uniform(size_t lo, size_t hi) {  // inclusive
    return std::uniform_int_distribution<size_t>(lo, hi)(rng_);
  }
  double Unit() { return std::uniform_real_distribution<double>(0, 1)(rng_); }
  std::mt19937_64& rng() { return rng_; }

  // Name of the symbol with popularity rank `rank`.
  std::string Name(size_t rank) const {
    return "s" + std::to_string(names_[rank]);
  }

 private:
  std::mt19937_64 rng_;
  std::vector<size_t> names_;
};

seqhide::SequenceDatabase MakeDatabase(const Shape& shape, Gen* g) {
  seqhide::SequenceDatabase db;
  std::vector<double> weights(shape.alphabet);
  for (size_t k = 0; k < shape.alphabet; ++k) {
    weights[k] = 1.0 / std::pow(static_cast<double>(k + 1), shape.zipf);
  }
  std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
  std::vector<size_t> lengths(shape.rows);
  for (size_t r = 0; r < shape.rows; ++r) {
    lengths[r] = shape.min_len + (shape.max_len - shape.min_len) * r /
                                     std::max<size_t>(1, shape.rows - 1);
  }
  // The length order is shuffled the same way for every seed: rows of
  // uneven cost land in the same places, so a run split into equal-count
  // chunks is as unbalanced at one seed as at another.
  std::mt19937_64 order(0x5eed);
  std::shuffle(lengths.begin(), lengths.end(), order);
  std::vector<std::string> row;
  std::vector<size_t> ranks;
  for (size_t len : lengths) {
    row.clear();
    ranks.clear();
    for (size_t i = 0; i < len; ++i) {
      size_t k = pick(g->rng());
      if (!ranks.empty() && g->Unit() < shape.repeat_bias) {
        k = ranks[ranks.size() - 1 -
                  g->Uniform(0, std::min<size_t>(2, ranks.size() - 1))];
      }
      ranks.push_back(k);
      row.push_back(g->Name(k));
    }
    db.AddFromNames(row);
  }
  return db;
}

enum class Kind { kPlain, kGap, kWindow };

// A constrained-pattern text over the symbols of the given ranks.
std::string PatternText(const Gen& g, Kind kind,
                        const std::vector<size_t>& ranks, size_t bound = 0) {
  const std::string arrow =
      kind == Kind::kGap ? " ->[.." + std::to_string(bound) + "] " : " -> ";
  std::string s;
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) s += arrow;
    s += g.Name(ranks[i]);
  }
  if (kind == Kind::kWindow) s += " ; window<=" + std::to_string(bound);
  return s;
}

bool WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream f(path, std::ios::trunc);
  for (const std::string& l : lines) f << l << "\n";
  return static_cast<bool>(f);
}

std::string SaveDb(const seqhide::SequenceDatabase& db,
                   const std::string& path, bool binary) {
  const seqhide::Status st = binary
                                 ? seqhide::WriteBinaryDatabaseToFile(db, path)
                                 : seqhide::WriteDatabaseToFile(db, path);
  return st.ok() ? "" : "writing " + path + ": " + st.ToString();
}

std::string SavePatterns(const RunContext& ctx,
                         const std::vector<std::string>& patterns) {
  return WriteLines(ctx.dir + "/patterns.txt", patterns) ? ""
                                                         : "writing patterns.txt";
}

// Long rows of uneven length over a small alphabet; five patterns, one
// gap-bounded and one window-bounded, so the mark stage carries the job.
std::string GenerateSanitizeLong(const RunContext& ctx) {
  Shape shape;
  shape.rows = ctx.tiny ? 24 : 800;
  shape.min_len = ctx.tiny ? 12 : 32;
  shape.max_len = ctx.tiny ? 40 : 192;
  shape.alphabet = 20;
  shape.repeat_bias = 0.1;
  shape.zipf = 0.5;
  Gen g(ctx.seed, ctx.workload, shape.alphabet);
  const std::string err =
      SaveDb(MakeDatabase(shape, &g), ctx.dir + "/db.txt", false);
  if (!err.empty()) return err;
  return SavePatterns(ctx, {
                               PatternText(g, Kind::kPlain, {1, 11, 10}),
                               PatternText(g, Kind::kPlain, {5, 15, 12, 14}),
                               PatternText(g, Kind::kPlain, {4, 8, 19}),
                               PatternText(g, Kind::kGap, {6, 7, 1}, 6),
                               PatternText(g, Kind::kWindow, {12, 15, 18}, 16),
                           });
}

// Many short rows over a larger, repeat-biased alphabet; eight patterns
// over mid-popularity symbols, and a ψ that leaves most supporters
// untouched, so loading, counting, verifying and writing outweigh marking.
std::string GenerateSanitizeWide(const RunContext& ctx) {
  Shape shape;
  shape.rows = ctx.tiny ? 400 : 100000;
  shape.min_len = 10;
  shape.max_len = 30;
  shape.alphabet = 100;
  shape.repeat_bias = 0.25;
  shape.zipf = 0.8;
  Gen g(ctx.seed, ctx.workload, shape.alphabet);
  const std::string err =
      SaveDb(MakeDatabase(shape, &g), ctx.dir + "/db.seqhidb", true);
  if (!err.empty()) return err;
  return SavePatterns(ctx, {
                               PatternText(g, Kind::kPlain, {3, 17}),
                               PatternText(g, Kind::kPlain, {8, 5}),
                               PatternText(g, Kind::kPlain, {12, 25}),
                               PatternText(g, Kind::kPlain, {20, 9}),
                               PatternText(g, Kind::kPlain, {4, 14, 27}),
                               PatternText(g, Kind::kPlain, {6, 22, 11}),
                               PatternText(g, Kind::kGap, {10, 3, 19}, 5),
                               PatternText(g, Kind::kWindow, {7, 16, 28}, 5),
                           });
}

// A serving image plus a query pool: a few hot pattern sets (repeated,
// so the cache answers them) and a fresh pool cycled through in order,
// larger than the cache, so those always miss and reach the batcher.
// Query shapes (method, pattern count and length, constraint kind, symbol
// ranks) are the same for every seed; only the names and rows differ.
std::string GenerateServeMixed(const RunContext& ctx) {
  Shape shape;
  shape.rows = ctx.tiny ? 300 : 20000;
  shape.min_len = 10;
  shape.max_len = 30;
  shape.alphabet = 100;
  shape.repeat_bias = 0.25;
  shape.zipf = 0.8;
  Gen g(ctx.seed, ctx.workload, shape.alphabet);
  const std::string err =
      SaveDb(MakeDatabase(shape, &g), ctx.dir + "/db.seqhidb", true);
  if (!err.empty()) return err;

  const size_t hot = 8;
  const size_t fresh = ctx.tiny ? 40 : 400;
  // Pattern ranks come from a fixed stream, the same for every seed.
  Gen shapes(0, "serve-mixed-queries", shape.alphabet);
  std::vector<std::string> queries;
  for (size_t i = 0; i < hot + fresh; ++i) {
    std::string line = i < hot ? "hot" : "fresh";
    line += i % 2 == 0 ? "\tsupport" : "\tmatch-count";
    const size_t npatterns = 1 + (i / 2) % 2;
    for (size_t j = 0; j < npatterns; ++j) {
      const size_t shape_id = (i / 4 + j) % 6;
      const Kind kind = shape_id == 4   ? Kind::kGap
                        : shape_id == 5 ? Kind::kWindow
                                        : Kind::kPlain;
      std::vector<size_t> ranks;
      while (ranks.size() < 2 + shape_id % 2) {
        const size_t r = shapes.Uniform(0, 60);
        if (std::find(ranks.begin(), ranks.end(), r) == ranks.end()) {
          ranks.push_back(r);
        }
      }
      line += "\t" + PatternText(g, kind, ranks, 6);
    }
    queries.push_back(line);
  }
  // One sanitize request shape, so its latency is one distribution.
  const std::string sanitize =
      std::to_string(ctx.tiny ? 2 : 200) + "\t1\t" +
      PatternText(g, Kind::kPlain, {3, 17}) + "\t" +
      PatternText(g, Kind::kPlain, {8, 5}) + "\t" +
      PatternText(g, Kind::kGap, {10, 3, 19}, 5);
  if (!WriteLines(ctx.dir + "/queries.txt", queries)) {
    return "writing queries.txt";
  }
  if (!WriteLines(ctx.dir + "/sanitize.txt", {sanitize})) {
    return "writing sanitize.txt";
  }
  return "";
}

}  // namespace

std::string Generate(const RunContext& ctx) {
  if (ctx.workload == "sanitize-long") return GenerateSanitizeLong(ctx);
  if (ctx.workload == "sanitize-wide") return GenerateSanitizeWide(ctx);
  if (ctx.workload == "serve-mixed") return GenerateServeMixed(ctx);
  return "unknown workload '" + ctx.workload + "'";
}

}  // namespace perfbench
