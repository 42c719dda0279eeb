// Shared plumbing of the end-to-end benchmark program: workload
// definitions, the run context, sample statistics, the result line, and
// process memory probes.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Fault planted by the smoke test to prove the output checks bite.
enum class Inject {
  kNone,
  kCorruptOneOutput,   // one job's output file differs from the others
  kUnsanitizedOutput,  // every job's output is replaced by its input
  kWrongOracle,        // one serve-mixed oracle value is off by one
};

struct RunContext {
  std::string workload;
  std::string dir;  // generated inputs + scratch outputs
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // smoke-test sizes
  Inject inject = Inject::kNone;
};

// One named metric on the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Human-readable lines printed before the result line (layer table,
  // the named end-to-end figures, sample counts).
  std::vector<std::string> notes;

  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Linear-interpolated percentile (q in [0,1]) of an unsorted sample.
double Percentile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

// The highest percentile, at most p99, with at least ten samples above
// it — the tail a sample of this size can support. 0.5 for tiny samples.
double TailQuantile(size_t samples);

// Peak resident set size since the last ResetPeakRss(), in MiB.
void ResetPeakRss();
double PeakRssMb();

uint64_t Fnv1a(const std::string& bytes);
// Whole file as bytes; empty on failure (with *ok=false).
std::string ReadFileBytes(const std::string& path, bool* ok);
bool WriteFileBytes(const std::string& path, const std::string& bytes);

std::vector<std::string> ReadLines(const std::string& path);

// Formats a double with every significant digit.
std::string Num(double v);

// Prints the notes, then the one-line JSON result as the last line.
void PrintOutcome(const Outcome& out);

// Build and host facts printed with every result.
std::string EnvironmentNote();

struct MetricSpec {
  const char* name;
  const char* unit;
};
// Every end-to-end metric (printed by untraced runs) and every per-layer
// metric (printed by traced runs), in BENCHMARK.json order. A workload a
// per-layer metric does not apply to reports it as 0.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
