// sanitize-long / sanitize-wide: replays the calls `seqhide_cli sanitize`
// makes — load (text: ReadDatabaseFromFile; seqhidb: OpenMapped then
// ToDatabase), parse the patterns, Sanitize, WriteDatabaseToFile — as one
// job, back to back, until the run's time is spent.

#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/hide/sanitizer.h"
#include "src/match/subsequence.h"
#include "src/mine/constrained_miner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_events.h"
#include "src/seq/binary_format.h"
#include "src/seq/io.h"

namespace perfbench {
namespace {

using seqhide::ConstraintSpec;
using seqhide::Result;
using seqhide::SanitizeReport;
using seqhide::Sequence;
using seqhide::SequenceDatabase;

struct Params {
  bool binary = false;
  size_t psi = 0;
  size_t threads = 1;
};

Params ParamsFor(const RunContext& ctx) {
  Params p;
  if (ctx.workload == "sanitize-long") {
    p.psi = ctx.tiny ? 1 : 4;
    p.threads = 2;
  } else {
    p.binary = true;
    p.psi = ctx.tiny ? 4 : 11000;
    p.threads = 1;
  }
  return p;
}

// Wall time of one job, split by layer.
struct JobTimes {
  double total = 0;
  double load = 0;
  double count = 0;
  double select = 0;
  double mark = 0;
  double verify = 0;
  double write = 0;
};

struct JobResult {
  bool ok = false;
  std::string error;
  JobTimes times;
  SanitizeReport report;
};

Result<SequenceDatabase> Load(const std::string& path, bool binary) {
  if (binary) {
    SEQHIDE_ASSIGN_OR_RETURN(seqhide::MappedDatabase mapped,
                             seqhide::MappedDatabase::OpenMapped(path));
    return mapped.ToDatabase();
  }
  return seqhide::ReadDatabaseFromFile(path);
}

// Sum of recorded span durations per path, in seconds.
std::map<std::string, double> SpanSeconds(
    const seqhide::obs::TraceEventRecorder& rec) {
  std::map<std::string, double> out;
  for (const seqhide::obs::TraceEvent& e : rec.Events()) {
    out[e.path] += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return out;
}

JobResult RunJob(const std::string& in_path, const std::string& out_path,
                 const std::vector<std::string>& pattern_texts,
                 const Params& params, bool traced) {
  JobResult r;
  std::optional<seqhide::obs::TraceEventRecorder> rec;
  if (traced) {
    rec.emplace();
    rec->Install();
  }
  const Clock::time_point t0 = Clock::now();
  Result<SanitizeReport> run = seqhide::Status::Internal("not run");
  {
    std::optional<Result<SequenceDatabase>> loaded;
    {
      seqhide::obs::Span span("seq.load");
      loaded.emplace(Load(in_path, params.binary));
    }
    r.times.load = SecondsSince(t0);
    if (!loaded->ok()) {
      r.error = "load: " + loaded->status().ToString();
      if (rec) rec->Uninstall();
      return r;
    }
    SequenceDatabase& db = loaded->value();
    std::vector<Sequence> patterns;
    std::vector<ConstraintSpec> constraints;
    bool any_constrained = false;
    for (const std::string& text : pattern_texts) {
      auto p = seqhide::ParseConstrainedPattern(&db.alphabet(), text);
      if (!p.ok()) {
        r.error = "pattern '" + text + "': " + p.status().ToString();
        if (rec) rec->Uninstall();
        return r;
      }
      if (!p->constraints.IsUnconstrained()) any_constrained = true;
      patterns.push_back(std::move(p->pattern));
      constraints.push_back(std::move(p->constraints));
    }
    // As the CLI does: an all-unconstrained set passes no constraints.
    if (!any_constrained) constraints.clear();
    seqhide::SanitizeOptions opts;
    opts.psi = params.psi;
    opts.num_threads = params.threads;
    {
      seqhide::obs::Span span("hide.sanitize");
      run = seqhide::Sanitize(&db, patterns, constraints, opts);
    }
    if (run.ok()) {
      const Clock::time_point tw = Clock::now();
      seqhide::Status st;
      {
        seqhide::obs::Span span("seq.write");
        st = seqhide::WriteDatabaseToFile(db, out_path);
      }
      r.times.write = SecondsSince(tw);
      if (!st.ok()) r.error = "write: " + st.ToString();
    } else {
      r.error = "sanitize: " + run.status().ToString();
    }
  }  // the database is released inside the job, as the CLI exits
  r.times.total = SecondsSince(t0);
  if (rec) rec->Uninstall();
  if (!r.error.empty()) return r;
  r.report = std::move(run).value();
  // Stage times: the program's own stage spans when they were recorded,
  // the report's stage timings otherwise (observability compiled out).
  const seqhide::StageTimings& st = r.report.stages;
  r.times.count = st.count_seconds;
  r.times.select = st.select_seconds;
  r.times.mark = st.mark_seconds;
  r.times.verify = st.verify_seconds;
  if (rec) {
    const auto spans = SpanSeconds(*rec);
    auto take = [&spans](const char* path, double* out) {
      auto it = spans.find(path);
      if (it != spans.end()) *out = it->second;
    };
    take("seq.load", &r.times.load);
    take("seq.write", &r.times.write);
    take("hide.sanitize/sanitize/count", &r.times.count);
    take("hide.sanitize/sanitize/select", &r.times.select);
    take("hide.sanitize/sanitize/mark", &r.times.mark);
    take("hide.sanitize/sanitize/verify", &r.times.verify);
  }
  r.ok = r.report.degraded == false;
  if (!r.ok) r.error = "sanitize degraded";
  return r;
}

uint64_t DpCells(const seqhide::obs::MetricsSnapshot& s) {
  uint64_t total = 0;
  for (const char* name : {"match.count.dp_cells", "match.gap.dp_cells"}) {
    auto it = s.counters.find(name);
    if (it != s.counters.end()) total += it->second;
  }
  return total;
}

uint64_t CounterOf(const seqhide::obs::MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// Re-counts every sensitive pattern on the written file with the
// library's support functions; each must be within ψ and equal the
// report's supports_after. Patterns are re-parsed by name against the
// re-read file's own alphabet.
void CheckWrittenFile(const std::string& out_path,
                      const std::vector<std::string>& pattern_texts,
                      const SanitizeReport& report, const Params& params,
                      Outcome* out) {
  auto written = seqhide::ReadDatabaseFromFile(out_path);
  if (!written.ok()) {
    out->Fail("re-reading output: " + written.status().ToString());
    return;
  }
  SequenceDatabase& db = written.value();
  for (size_t i = 0; i < pattern_texts.size(); ++i) {
    auto p = seqhide::ParseConstrainedPattern(&db.alphabet(), pattern_texts[i]);
    if (!p.ok()) {
      out->Fail("re-parsing pattern " + std::to_string(i));
      continue;
    }
    const size_t support =
        p->constraints.IsUnconstrained()
            ? seqhide::Support(p->pattern, db)
            : seqhide::ConstrainedSupport(p->pattern, p->constraints, db);
    if (support > params.psi) {
      out->Fail("pattern " + std::to_string(i) + " has support " +
                std::to_string(support) + " > psi " +
                std::to_string(params.psi) + " in the written file");
    }
    if (i >= report.supports_after.size() ||
        support != report.supports_after[i]) {
      out->Fail("pattern " + std::to_string(i) + ": recount " +
                std::to_string(support) +
                " differs from the reported supports_after");
    }
  }
}

}  // namespace

Outcome RunSanitizeWorkload(const RunContext& ctx) {
  Outcome out;
  const Params params = ParamsFor(ctx);
  const std::string in_path =
      ctx.dir + (params.binary ? "/db.seqhidb" : "/db.txt");
  const std::string out_path = ctx.dir + "/out.txt";
  const std::vector<std::string> patterns = ReadLines(ctx.dir + "/patterns.txt");
  if (patterns.empty()) {
    out.Fail("no patterns in " + ctx.dir + "/patterns.txt");
    return out;
  }

  // Bench-side copy of the unsanitized database text, for the planted
  // "unsanitized output" fault; built before anything is measured.
  std::string unsanitized_text;
  if (ctx.inject == Inject::kUnsanitizedOutput) {
    auto db = Load(in_path, params.binary);
    if (db.ok()) unsanitized_text = seqhide::WriteDatabaseToString(*db);
  }

  // Traced runs spend the first half untraced (the reference for the
  // tracing overhead) and the second half with a recorder installed.
  const double untraced_budget = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  const size_t min_jobs = 3;

  std::vector<JobTimes> plain;
  std::vector<JobTimes> traced;
  std::optional<uint64_t> ref_digest;
  std::optional<size_t> ref_marks;
  std::optional<SanitizeReport> last;
  uint64_t dp_cells = 0;
  uint64_t delta_recomputations = 0;

  ResetPeakRss();
  double peak_rss = 0;
  const Clock::time_point start = Clock::now();
  for (int phase = 0; phase < (ctx.trace ? 2 : 1); ++phase) {
    const bool trace_now = phase == 1;
    const Clock::time_point phase_start = Clock::now();
    const double budget = trace_now ? ctx.seconds / 2 : untraced_budget;
    size_t jobs = 0;
    while (jobs < min_jobs || SecondsSince(phase_start) < budget) {
      const auto before = seqhide::obs::MetricsRegistry::Default().Snapshot();
      JobResult job = RunJob(in_path, out_path, patterns, params, trace_now);
      const auto after = seqhide::obs::MetricsRegistry::Default().Snapshot();
      ++jobs;
      ++out.attempted;
      if (!job.ok) {
        ++out.failed;
        out.Fail("job " + std::to_string(out.attempted) + ": " + job.error);
        if (jobs > 50) break;
        continue;
      }
      (trace_now ? traced : plain).push_back(job.times);
      dp_cells = DpCells(after) - DpCells(before);
      delta_recomputations = CounterOf(after, "local.delta_recomputations") -
                             CounterOf(before, "local.delta_recomputations");

      // Output checks, outside the job's timed interval.
      peak_rss = std::max(peak_rss, PeakRssMb());
      if (ctx.inject == Inject::kUnsanitizedOutput) {
        WriteFileBytes(out_path, unsanitized_text);
      } else if (ctx.inject == Inject::kCorruptOneOutput && out.attempted == 2) {
        bool ok = false;
        WriteFileBytes(out_path, ReadFileBytes(out_path, &ok) + "s0\n");
      }
      bool read_ok = false;
      const uint64_t digest = Fnv1a(ReadFileBytes(out_path, &read_ok));
      bool job_failed = !read_ok;
      if (!ref_digest) ref_digest = digest;
      if (!ref_marks) ref_marks = job.report.marks_introduced;
      if (digest != *ref_digest) {
        out.Fail("job " + std::to_string(out.attempted) +
                 ": output digest differs from the first job's");
        job_failed = true;
      }
      if (job.report.marks_introduced != *ref_marks) {
        out.Fail("job " + std::to_string(out.attempted) + ": marks " +
                 std::to_string(job.report.marks_introduced) + " != " +
                 std::to_string(*ref_marks));
        job_failed = true;
      }
      if (job_failed) ++out.failed;
      last = std::move(job.report);
      ResetPeakRss();
    }
  }
  const double elapsed = SecondsSince(start);
  if (!last) {
    out.Fail("no job completed");
    return out;
  }
  // One recount covers every job: their outputs are byte-identical.
  const bool was_correct = out.correct;
  CheckWrittenFile(out_path, patterns, *last, params, &out);
  if (was_correct && !out.correct) ++out.failed;
  std::remove(out_path.c_str());

  auto series = [](const std::vector<JobTimes>& v, double JobTimes::*f) {
    std::vector<double> s;
    for (const JobTimes& t : v) s.push_back(t.*f);
    return s;
  };
  const std::vector<double> totals = series(plain, &JobTimes::total);
  std::vector<double> totals_ms;
  for (double t : totals) totals_ms.push_back(t * 1e3);
  const double tail_q = TailQuantile(totals_ms.size());

  out.Note(ctx.workload + ": " + std::to_string(out.attempted) + " jobs in " +
           Num(elapsed) + " s (" + std::to_string(plain.size()) +
           " untraced, " + std::to_string(traced.size()) + " traced), psi=" +
           std::to_string(params.psi) + ", threads=" +
           std::to_string(params.threads) + ", patterns=" +
           std::to_string(patterns.size()));
  std::string supports;
  for (size_t i = 0; i < last->supports_before.size(); ++i) {
    supports += (i ? " " : "") + std::to_string(last->supports_before[i]) +
                "->" + std::to_string(last->supports_after[i]);
  }
  out.Note("supports before->after: " + supports);
  out.Note("job_s p50=" + Num(Median(totals)) + " s, p" +
           std::to_string(static_cast<int>(tail_q * 100 + 0.5)) + "=" +
           Num(Percentile(totals, tail_q)) + " s over " +
           std::to_string(totals.size()) + " jobs; marks (M1)=" + std::to_string(last->marks_introduced) +
           "; failed_share=" +
           Num(out.attempted ? static_cast<double>(out.failed) / out.attempted : 0));

  if (!ctx.trace) {
    out.Set("setup_s", Median(series(plain, &JobTimes::load)), "s");
    out.Set("op_p50_ms", Median(totals_ms), "ms");
    out.Set("job_s", Median(totals), "s");
    out.Set("peak_rss_mb", peak_rss, "MiB");
    return out;
  }

  // Per-layer table: per-job means over the traced jobs, so the rows add
  // up to the mean traced job exactly, the remainder being unattributed.
  auto mean = [&](double JobTimes::*f) { return Mean(series(traced, f)); };
  const double total = mean(&JobTimes::total);
  const std::vector<std::pair<std::string, double>> rows = {
      {"seq.load_s", mean(&JobTimes::load)},
      {"match.count_s", mean(&JobTimes::count)},
      {"hide.select_s", mean(&JobTimes::select)},
      {"hide.mark_s", mean(&JobTimes::mark)},
      {"hide.verify_s", mean(&JobTimes::verify)},
      {"seq.write_s", mean(&JobTimes::write)},
  };
  double attributed = 0;
  out.Note("layer table (traced, mean per job over " +
           std::to_string(traced.size()) + " jobs):");
  for (const auto& [name, v] : rows) {
    attributed += v;
    out.Set(name, v, "s");
    char line[160];
    std::snprintf(line, sizeof(line), "  %-22s %12.6f s  %6.2f%%", name.c_str(),
                  v, total > 0 ? 100 * v / total : 0.0);
    out.Note(line);
  }
  const double unattributed = total - attributed;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-22s %12.6f s  %6.2f%%",
                "unattributed", unattributed,
                total > 0 ? 100 * unattributed / total : 0.0);
  out.Note(line);
  std::snprintf(line, sizeof(line), "  %-22s %12.6f s", "= job (traced mean)",
                total);
  out.Note(line);
  // Layers are disjoint sub-intervals of the job, so the remainder can
  // only be negative if the table is broken.
  if (unattributed < -1e-6 * std::max(1.0, total)) {
    out.Fail("layer rows exceed the job time by " + Num(-unattributed) + " s");
  }
  const SanitizeReport& rep = *last;
  out.Set("hide.unattributed_s", unattributed, "s");
  out.Set("bench.traced_total_s", total, "s");
  out.Set("hide.mark_share", total > 0 ? mean(&JobTimes::mark) / total : 0, "ratio");
  out.Set("match.count_rows", static_cast<double>(rep.count_rows), "count");
  out.Set("match.dp_cells", static_cast<double>(dp_cells), "count");
  out.Set("match.supporting_share",
          rep.count_rows ? static_cast<double>(rep.sequences_supporting_before) /
                               static_cast<double>(rep.count_rows)
                         : 0,
          "ratio");
  out.Set("hide.delta_recomputations", static_cast<double>(delta_recomputations),
          "count");
  out.Set("hide.victims", static_cast<double>(rep.sequences_sanitized), "count");
  out.Set("hide.rounds", static_cast<double>(rep.rounds_total), "count");
  out.Set("hide.marks", static_cast<double>(rep.marks_introduced), "count");
  out.Set("hide.verify_rescan_rows", static_cast<double>(rep.verify_rescan_rows),
          "count");
  out.Note("match.supporting_share base: " +
           std::to_string(rep.sequences_supporting_before) + " supporters / " +
           std::to_string(rep.count_rows) + " count_rows");
  const double untraced_median = Median(totals);
  const double traced_median = Median(series(traced, &JobTimes::total));
  out.Set("bench.trace_overhead",
          untraced_median > 0 ? traced_median / untraced_median - 1 : 0, "ratio");
  out.Set("bench.failed_share",
          out.attempted ? static_cast<double>(out.failed) / out.attempted : 0,
          "ratio");
  return out;
}

}  // namespace perfbench
