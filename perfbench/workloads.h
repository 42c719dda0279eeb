// The three workloads. Each runs one measured step over the inputs
// gen.h wrote and returns the result line's content.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/util.h"

namespace perfbench {

// sanitize-long, sanitize-wide.
Outcome RunSanitizeWorkload(const RunContext& ctx);
// serve-mixed.
Outcome RunServeWorkload(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
