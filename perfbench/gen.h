// Seeded input generation. Runs as its own process step, so that the
// generator's memory never counts toward the measured peak RSS; the
// measured step reads only the files written here.
//
// Files in RunContext::dir:
//   sanitize-long   db.txt        text database, long rows of uneven length
//                   patterns.txt  one constrained pattern per line
//   sanitize-wide   db.seqhidb    seqhidb image, many short rows
//                   patterns.txt
//   serve-mixed     db.seqhidb
//                   queries.txt   "hot|fresh <TAB> method <TAB> pattern..."
//                   sanitize.txt  "psi <TAB> seed <TAB> pattern..."

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <string>

#include "perfbench/util.h"

namespace perfbench {

// Writes the workload's inputs; returns "" or an error message.
std::string Generate(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
