#include "perfbench/util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

namespace perfbench {

void Outcome::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double TailQuantile(size_t samples) {
  if (samples < 20) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(samples);
  return std::min(0.99, std::floor(q * 100.0) / 100.0);
}

void ResetPeakRss() {
  // "5" resets the VmHWM high-water mark to the current RSS.
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadFileBytes(const std::string& path, bool* ok) {
  std::ifstream f(path, std::ios::binary);
  *ok = static_cast<bool>(f);
  if (!*ok) return {};
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
  return static_cast<bool>(f);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintOutcome(const Outcome& out) {
  for (const std::string& line : out.notes) std::cout << line << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (out.correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    if (!first) js << ", ";
    first = false;
    js << "\"" << name << "\": {\"value\": " << Num(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::string EnvironmentNote() {
#ifdef SEQHIDE_OBS_DISABLED
  const char* obs = "off";
#else
  const char* obs = "on";
#endif
  std::ostringstream s;
  s << "env: build_type=" << PERFBENCH_BUILD_TYPE
    << " compiler=" << PERFBENCH_COMPILER << " observability=" << obs
    << " nproc=" << std::thread::hardware_concurrency();
  return s.str();
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"job_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kList;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kList = {
      {"seq.load_s", "s"},
      {"seq.write_s", "s"},
      {"match.count_s", "s"},
      {"match.count_rows", "count"},
      {"match.dp_cells", "count"},
      {"match.supporting_share", "ratio"},
      {"hide.select_s", "s"},
      {"hide.mark_s", "s"},
      {"hide.mark_share", "ratio"},
      {"hide.delta_recomputations", "count"},
      {"hide.victims", "count"},
      {"hide.rounds", "count"},
      {"hide.marks", "count"},
      {"hide.verify_s", "s"},
      {"hide.verify_rescan_rows", "count"},
      {"hide.unattributed_s", "s"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.p99", "ms"},
      {"serve.work_ms.query.p50", "ms"},
      {"serve.work_ms.sanitize.p50", "ms"},
      {"serve.wire_ms.p50", "ms"},
      {"serve.batch.size_mean", "count"},
      {"serve.batch.coalesced_share", "ratio"},
      {"serve.batch.wait_us.p50", "us"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.admission.shed_share", "ratio"},
      {"serve.inflight_max", "count"},
      {"bench.traced_total_s", "s"},
      {"bench.gen_late_ms.p99", "ms"},
      {"bench.trace_overhead", "ratio"},
      {"bench.failed_share", "ratio"},
  };
  return kList;
}

}  // namespace perfbench
