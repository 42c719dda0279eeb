#include "src/seq/view.h"

#include "src/seq/database.h"

namespace seqhide {

DatabaseView::DatabaseView(const SequenceDatabase& db,
                           const Alphabet* alphabet)
    : num_rows_(db.size()),
      alphabet_(alphabet != nullptr ? alphabet : &db.alphabet()) {
  rows_.reserve(db.size());
  for (size_t t = 0; t < db.size(); ++t) {
    rows_.push_back(SequenceView(db[t]));
    num_symbols_ += db[t].size();
  }
}

}  // namespace seqhide
