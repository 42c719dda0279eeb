// perfbench: the end-to-end benchmark program of seqhide.
//
//   perfbench gen --workload W --seed N --dir D [--tiny]
//   perfbench run --workload W --seed N --dir D --seconds S --trace 0|1
//                 [--tiny] [--inject corrupt-one|unsanitized|wrong-oracle]
//
// `gen` writes the workload's inputs into D; `run` measures the system on
// them and prints one JSON result object as its last line. perfbench/run.py
// builds this binary and chains the two steps.

#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "perfbench/gen.h"
#include "perfbench/util.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench gen|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--tiny] [--inject KIND]\n";
  return 2;
}

// Every metric the list names is printed: a per-layer metric the
// workload does not exercise reads 0, and a missing end-to-end metric or
// a name outside the lists is a defect of the benchmark itself.
bool Complete(bool trace, Outcome* out) {
  const auto& specs = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::set<std::string> known;
  for (const MetricSpec& m : specs) {
    known.insert(m.name);
    auto it = out->metrics.find(m.name);
    if (it == out->metrics.end()) {
      if (!trace) {
        std::cerr << "perfbench: end-to-end metric " << m.name << " missing\n";
        return false;
      }
      out->Set(m.name, 0.0, m.unit);
    } else if (it->second.unit != m.unit) {
      std::cerr << "perfbench: metric " << m.name << " has unit "
                << it->second.unit << ", expected " << m.unit << "\n";
      return false;
    }
  }
  for (const auto& [name, m] : out->metrics) {
    if (known.count(name) == 0) {
      std::cerr << "perfbench: unlisted metric " << name << "\n";
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  RunContext ctx;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      ctx.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      ctx.dir = value;
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--inject") {
      if (value == "corrupt-one") {
        ctx.inject = Inject::kCorruptOneOutput;
      } else if (value == "unsanitized") {
        ctx.inject = Inject::kUnsanitizedOutput;
      } else if (value == "wrong-oracle") {
        ctx.inject = Inject::kWrongOracle;
      } else {
        return Usage("unknown --inject " + value);
      }
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (ctx.workload.empty() || ctx.dir.empty()) {
    return Usage("--workload and --dir are required");
  }
  if (!(ctx.seconds > 0)) return Usage("--seconds must be positive");

  if (command == "gen") {
    const std::string err = Generate(ctx);
    if (!err.empty()) {
      std::cerr << "perfbench gen: " << err << "\n";
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage("unknown command " + command);

  Outcome out;
  if (ctx.workload == "sanitize-long" || ctx.workload == "sanitize-wide") {
    out = RunSanitizeWorkload(ctx);
  } else if (ctx.workload == "serve-mixed") {
    out = RunServeWorkload(ctx);
  } else {
    return Usage("unknown workload " + ctx.workload);
  }
  out.notes.insert(out.notes.begin(), EnvironmentNote());
  if (!Complete(ctx.trace, &out)) return 1;
  PrintOutcome(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
