// Caller-owned scratch buffers for the matching kernels.
//
// Every counting DP in src/match used to allocate its working tables per
// call; the sanitization pipeline calls them once per (sequence, pattern)
// pair per marking round, so allocation dominated short-sequence runs.
// A MatchScratch owns every buffer those kernels need; the scratch-taking
// overloads (CountMatchings, CountConstrainedMatchings, PositionDeltas…)
// reuse them via assign()/resize(), making the hot loops allocation-free
// once the buffers have warmed up to the workload's (n, m).
//
// Ownership rules:
//   * One MatchScratch per thread — the buffers are mutable state, so a
//     scratch must never be shared across concurrently running calls.
//     The parallel stages create one per ParallelFor chunk.
//   * Contents are overwritten by every call; nothing persists between
//     calls, so reuse across different sequences/patterns is always safe
//     and results are bit-identical to the allocating overloads.

#ifndef SEQHIDE_MATCH_SCRATCH_H_
#define SEQHIDE_MATCH_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/checked_math.h"
#include "src/obs/telemetry/mem_tracker.h"

namespace seqhide {

// DP rows/tables used by the matching kernels. The allocator charges
// every byte to the dp_scratch memory pool (obs/telemetry/mem_tracker.h),
// which is how the `memory` block in --stats-json and BENCH JSON knows
// how big the DP working set got; under SEQHIDE_OBS_DISABLED it is
// exactly std::allocator. Element access and layout are unchanged —
// kernels keep writing std::vector code.
using DpRow =
    std::vector<uint64_t,
                obs::telemetry::PoolAllocator<
                    uint64_t, obs::telemetry::MemPool::kDpScratch>>;
using DpTable = std::vector<DpRow>;

struct MatchScratch {
  // CountMatchings' rolled DP row.
  DpRow count_row;
  // Prefix/gap end table (PrefixEndTable layout: [m+1][n+1]).
  DpTable fwd;
  // PositionDeltas' suffix-extension table ([m+1][n]).
  DpTable bwd;
  // The anchored window kernel's tables ([m][min(Ws, n)], re-filled per
  // anchor): prefix embeddings from the anchor, used by windowed counting
  // and windowed δ, and suffix embeddings inside the slice (δ only).
  DpTable window_fwd;
  DpTable window_bwd;
  // BuildPrefixEndTable's running sums and column buffer.
  DpRow running;
  DpRow column;
  // PatternTrie::CountAll's per-node counter row (one slot per distinct
  // pattern prefix).
  DpRow trie_counts;
  // Per-pattern δ buffer used by PositionDeltasTotal's accumulation.
  DpRow pattern_deltas;
  // The local sanitizer's δ row per pattern ([|S|][n]), kept across its
  // marking rounds so a pattern the last mark did not touch is not
  // recomputed.
  DpTable pattern_delta_rows;
  // MatchKernel::CountRow's per-pattern counts buffer (plain vector: it is
  // the public out-param shape, not a DP table).
  std::vector<uint64_t> pattern_counts;

  // Memory ceiling (bytes) for any single DP table sized through this
  // scratch; 0 = unlimited. Stages running under a RunBudget set it so
  // that an over-budget n·m allocation is refused instead of attempted.
  size_t max_table_bytes = 0;
  // Sticky flag raised when a kernel refused an allocation because the
  // requested table would overflow size_t or exceed max_table_bytes. The
  // kernel then returns a safe zero result; callers that care translate
  // the flag into Status::ResourceExhausted (hide/sanitizer.cc does) and
  // must clear it before reuse.
  bool exhausted = false;

  // True iff a table of `cells` uint64 entries fits the ceiling (and its
  // byte size does not overflow). On failure sets `exhausted`.
  bool BudgetAllowsCells(size_t cells) {
    size_t bytes = 0;
    if (!CheckedMul(cells, sizeof(uint64_t), &bytes) ||
        (max_table_bytes != 0 && bytes > max_table_bytes)) {
      exhausted = true;
      return false;
    }
    return true;
  }

  // Checked-multiply variant for rows × cols tables.
  bool BudgetAllowsTable(size_t rows, size_t cols) {
    size_t bytes = 0;
    if (!CheckedTableBytes(rows, cols, sizeof(uint64_t), &bytes) ||
        (max_table_bytes != 0 && bytes > max_table_bytes)) {
      exhausted = true;
      return false;
    }
    return true;
  }
};

// Resizes *table to exactly rows × cols and zero-fills it, reusing the
// existing row capacity. Exact row count matters: PrefixEndTable readers
// use table.back().
inline void ResizeAndZeroTable(DpTable* table, size_t rows, size_t cols) {
  if (table->size() != rows) table->resize(rows);
  for (auto& row : *table) row.assign(cols, 0);
}

// Budget-checked variant: refuses (returns false, sets scratch->exhausted)
// when rows × cols × 8 overflows or exceeds scratch->max_table_bytes. On
// refusal *table is shrunk to a 1×1 zero table so readers that ignore the
// flag (TotalFromPrefixEndTable, table.back()) still see a valid, empty
// result instead of stale data.
inline bool TryResizeAndZeroTable(MatchScratch* scratch, DpTable* table,
                                  size_t rows, size_t cols) {
  if (!scratch->BudgetAllowsTable(rows, cols)) {
    ResizeAndZeroTable(table, 1, 1);
    return false;
  }
  ResizeAndZeroTable(table, rows, cols);
  return true;
}

}  // namespace seqhide

#endif  // SEQHIDE_MATCH_SCRATCH_H_
