#include "src/match/pattern_trie.h"

#include <algorithm>
#include <map>

#include "src/common/logging.h"
#include "src/match/count.h"
#include "src/obs/macros.h"

namespace seqhide {

PatternTrie::PatternTrie(const std::vector<Sequence>& patterns,
                         const std::vector<ConstraintSpec>& constraints) {
  SEQHIDE_CHECK(constraints.empty() || constraints.size() == patterns.size())
      << "constraints must be empty or parallel to patterns";
  parent_.push_back(kNoNode);  // root
  std::vector<SymbolId> node_symbol{-1};
  std::vector<uint32_t> node_depth{0};
  // Child lookup during the build only; the scan path never searches.
  std::map<std::pair<uint32_t, SymbolId>, uint32_t> children;

  terminal_.assign(patterns.size(), kNoNode);
  SymbolId max_sym = -1;
  for (size_t p = 0; p < patterns.size(); ++p) {
    if (!constraints.empty() && !constraints[p].IsUnconstrained()) continue;
    uint32_t v = 0;  // root
    for (size_t i = 0; i < patterns[p].size(); ++i) {
      const SymbolId s = patterns[p][i];
      SEQHIDE_DCHECK(IsRealSymbol(s))
          << "patterns must not contain the marking symbol";
      max_sym = std::max(max_sym, s);
      auto [it, inserted] = children.try_emplace(
          {v, s}, static_cast<uint32_t>(parent_.size()));
      if (inserted) {
        parent_.push_back(v);
        node_symbol.push_back(s);
        node_depth.push_back(node_depth[v] + 1);
      }
      v = it->second;
    }
    terminal_[p] = v;
    ++num_covered_;
  }

  // Per-symbol update lists, deepest node first within each symbol.
  // max_sym stays -1 when nothing is covered (or only empty patterns are);
  // the scan then finds every group empty.
  group_begin_.assign(max_sym < 0 ? 1 : static_cast<size_t>(max_sym) + 2, 0);
  std::vector<uint32_t> order;
  for (uint32_t v = 1; v < parent_.size(); ++v) order.push_back(v);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (node_symbol[a] != node_symbol[b]) {
      return node_symbol[a] < node_symbol[b];
    }
    return node_depth[a] > node_depth[b];
  });
  group_nodes_.assign(order.begin(), order.end());
  for (uint32_t v : order) {
    ++group_begin_[static_cast<size_t>(node_symbol[v]) + 1];
  }
  for (size_t t = 1; t < group_begin_.size(); ++t) {
    group_begin_[t] += group_begin_[t - 1];
  }
  SEQHIDE_COUNTER_INC("match.trie.builds");
  SEQHIDE_COUNTER_ADD("match.trie.nodes", parent_.size());
}

bool PatternTrie::CountAll(SequenceView seq, MatchScratch* scratch,
                           uint64_t* counts) const {
  const size_t nodes = parent_.size();
  if (!scratch->BudgetAllowsCells(nodes)) return false;
  SEQHIDE_COUNTER_INC("match.trie.passes");
  DpRow& c = scratch->trie_counts;
  c.assign(nodes, 0);
  c[0] = 1;

  const size_t n = seq.size();
  const size_t num_groups = group_begin_.empty() ? 0 : group_begin_.size() - 1;
  size_t updates = 0;
  for (size_t j = 0; j < n; ++j) {
    const SymbolId t = seq[j];
    // Δ and symbols outside every pattern have an empty group.
    if (t < 0 || static_cast<size_t>(t) >= num_groups) continue;
    const uint32_t begin = group_begin_[static_cast<size_t>(t)];
    const uint32_t end = group_begin_[static_cast<size_t>(t) + 1];
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t v = group_nodes_[k];
      c[v] = SatAdd(c[v], c[parent_[v]]);
    }
    updates += end - begin;
  }
  SEQHIDE_COUNTER_ADD("match.trie.node_updates", updates);

  for (size_t p = 0; p < terminal_.size(); ++p) {
    if (terminal_[p] != kNoNode) counts[p] = c[terminal_[p]];
  }
  return true;
}

size_t PatternSetUnion::AddOrigin(const std::vector<Sequence>& patterns) {
  const size_t origin = slots_.size();
  std::vector<size_t> slots;
  slots.reserve(patterns.size());
  for (const Sequence& pattern : patterns) {
    auto [it, inserted] =
        index_.try_emplace(pattern.symbols(), union_patterns_.size());
    if (inserted) union_patterns_.push_back(pattern);
    slots.push_back(it->second);
  }
  slots_.push_back(std::move(slots));
  return origin;
}

bool CountUnionOverDb(const PatternTrie& trie, const DatabaseView& db,
                      MatchScratch* scratch, std::vector<uint64_t>* totals,
                      std::vector<uint64_t>* supports) {
  const size_t n = trie.num_patterns();
  std::vector<uint64_t> row_counts(n, 0);
  std::vector<uint64_t> t(n, 0);
  std::vector<uint64_t> s(n, 0);
  for (size_t row = 0; row < db.size(); ++row) {
    std::fill(row_counts.begin(), row_counts.end(), 0);
    if (!trie.CountAll(db[row], scratch, row_counts.data())) return false;
    for (size_t p = 0; p < n; ++p) {
      t[p] = SatAdd(t[p], row_counts[p]);
      if (row_counts[p] > 0) ++s[p];
    }
  }
  SEQHIDE_COUNTER_INC("match.trie.union_passes");
  SEQHIDE_COUNTER_ADD("match.trie.union_rows", db.size());
  *totals = std::move(t);
  *supports = std::move(s);
  return true;
}

}  // namespace seqhide
