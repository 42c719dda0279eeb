// serve-mixed: an in-process serve::Server over a seqhidb image, driven
// open-loop through serve::ServeClient from this process.
//
// Load: two connections, each with one sender and one receiver thread.
// Queries arrive on a seeded Poisson schedule and sanitize requests on a
// fixed period (see Plan). Each request is timed from the moment it was
// due, so a late generator or a stalled server shows up as latency, and
// the generator's own lateness is reported beside it. The
// traffic is support / match-count queries — a hot set that the match
// cache answers and a fresh pool, cycled in order and larger than the
// cache, that misses and reaches the batcher — plus a small share of
// sanitize requests.
//
// Untraced runs spend three quarters of their time at the nominal rate
// and the rest on a fixed ladder of higher rates; traced runs spend two
// halves at the nominal rate, the second with a trace recorder installed.

#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/hide/sanitizer.h"
#include "src/match/constrained_count.h"
#include "src/match/count.h"
#include "src/match/subsequence.h"
#include "src/mine/constrained_miner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_events.h"
#include "src/seq/binary_format.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

namespace serve = seqhide::serve;

constexpr size_t kConnections = 2;
constexpr size_t kSetupRepeats = 15;
// Share of requests that are sanitize requests, and share of queries
// drawn from the hot set.
constexpr double kSanitizeShare = 0.03;
constexpr double kHotShare = 0.3;
// Service-level objective for max_qps_at_slo: query p99 within this.
constexpr double kSloP99Ms = 60.0;
// Rates of the capacity ladder, as multiples of the nominal rate.
constexpr double kLadder[] = {1.5, 2.0, 3.0};
// Window length for the query-latency percentiles: at the nominal rate a
// window holds about 200 queries, twenty beyond p90.
constexpr double kWindowSeconds = 1.0;
// How far ahead of a request's due time its sender stops sleeping.
constexpr std::chrono::microseconds kSpinWindow{300};
// How long a rung may take to drain before missing answers count failed.
constexpr double kDrainSeconds = 15.0;

struct Query {
  bool hot = false;
  serve::Method method = serve::Method::kSupport;
  std::vector<std::string> patterns;
  std::vector<uint64_t> expected;  // solo-path oracle
};

struct SanitizeJob {
  uint64_t psi = 0;
  uint64_t seed = 1;
  std::vector<std::string> patterns;
  serve::SanitizeSummary expected;  // in-process Sanitize oracle
};

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, '\t')) out.push_back(field);
  return out;
}

// Computes every oracle answer on a private copy of the image, before
// anything is measured; the copy is released on return.
std::string BuildOracles(const std::string& image, std::vector<Query>* queries,
                         std::vector<SanitizeJob>* jobs) {
  auto mapped = seqhide::MappedDatabase::OpenMapped(image);
  if (!mapped.ok()) return mapped.status().ToString();
  auto loaded = mapped->ToDatabase();
  if (!loaded.ok()) return loaded.status().ToString();
  seqhide::SequenceDatabase& db = *loaded;
  for (Query& q : *queries) {
    for (const std::string& text : q.patterns) {
      auto p = seqhide::ParseConstrainedPattern(&db.alphabet(), text);
      if (!p.ok()) return "pattern '" + text + "': " + p.status().ToString();
      uint64_t value = 0;
      if (q.method == serve::Method::kSupport) {
        value = p->constraints.IsUnconstrained()
                    ? seqhide::Support(p->pattern, db)
                    : seqhide::ConstrainedSupport(p->pattern, p->constraints, db);
      } else {
        for (size_t t = 0; t < db.size(); ++t) {
          value = seqhide::SatAdd(
              value, seqhide::CountConstrainedMatchings(p->pattern, p->constraints,
                                                        db[t]));
        }
      }
      q.expected.push_back(value);
    }
  }
  for (SanitizeJob& job : *jobs) {
    seqhide::SequenceDatabase copy = db;
    std::vector<seqhide::Sequence> patterns;
    std::vector<seqhide::ConstraintSpec> constraints;
    for (const std::string& text : job.patterns) {
      auto p = seqhide::ParseConstrainedPattern(&copy.alphabet(), text);
      if (!p.ok()) return "pattern '" + text + "': " + p.status().ToString();
      patterns.push_back(std::move(p->pattern));
      constraints.push_back(std::move(p->constraints));
    }
    seqhide::SanitizeOptions opts = seqhide::SanitizeOptions::HH();
    opts.psi = job.psi;
    opts.seed = job.seed;
    auto rep = seqhide::Sanitize(&copy, patterns, constraints, opts);
    if (!rep.ok()) return "oracle sanitize: " + rep.status().ToString();
    job.expected.marks_introduced = rep->marks_introduced;
    job.expected.sequences_sanitized = rep->sequences_sanitized;
    job.expected.supports_before.assign(rep->supports_before.begin(),
                                        rep->supports_before.end());
    job.expected.supports_after.assign(rep->supports_after.begin(),
                                       rep->supports_after.end());
  }
  return "";
}

struct Planned {
  double due_s = 0;  // offset from the phase start
  bool sanitize = false;
  size_t index = 0;  // into the query or sanitize pool
};

struct Record {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point recv;
  bool received = false;
  size_t inflight_at_send = 0;
  serve::Response resp;
};

// A query latency percentile measured while the load generator kept its
// schedule. The phase is cut into windows of `window_s` seconds; the half
// of the windows in which the generator ran least late (its p99 lateness)
// are kept, and the median of their q-th percentiles is returned. On a
// shared host, a window in which this process lost its CPUs shows up as a
// late generator, and dropping it keeps that stall out of the figure; the
// server's own stalls, such as queueing behind sanitize requests, recur
// in every window and stay in.
double CalmWindowPercentile(const std::vector<double>& values,
                            const std::vector<double>& late_ms,
                            const std::vector<double>& at_s, double window_s,
                            double q) {
  std::vector<std::vector<double>> vals, lates;
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t w = static_cast<size_t>(at_s[i] / window_s);
    if (w >= vals.size()) {
      vals.resize(w + 1);
      lates.resize(w + 1);
    }
    vals[w].push_back(values[i]);
    lates[w].push_back(late_ms[i]);
  }
  std::vector<std::pair<double, double>> windows;  // (lateness, percentile)
  for (size_t w = 0; w < vals.size(); ++w) {
    if (!vals[w].empty()) {
      windows.emplace_back(Percentile(lates[w], 0.99), Percentile(vals[w], q));
    }
  }
  std::sort(windows.begin(), windows.end());
  windows.resize((windows.size() + 1) / 2);
  std::vector<double> kept;
  for (const auto& [late, value] : windows) kept.push_back(value);
  return Median(kept);
}

struct PhaseResult {
  double rate = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t wrong = 0;
  std::vector<double> query_ms;     // from due time
  std::vector<double> query_due_s;  // parallel: due offset in the phase
  std::vector<double> query_late_ms;  // parallel: sent - due
  std::vector<double> sanitize_ms;  // from due time
  std::vector<double> late_ms;      // sent - due
  std::vector<double> queue_ms;
  std::vector<double> work_query_ms;
  std::vector<double> work_sanitize_ms;
  std::vector<double> wire_ms;  // (recv - sent) - queue - work
  size_t inflight_max = 0;
  bool backlog_grows = false;
  std::vector<std::string> errors;  // first few, for the notes

  bool MeetsSlo() const {
    return failed == 0 && !backlog_grows && !query_ms.empty() &&
           Percentile(query_ms, 0.99) <= kSloP99Ms;
  }
};

class LoadGenerator {
 public:
  LoadGenerator(const RunContext& ctx, std::vector<Query> queries,
         std::vector<SanitizeJob> jobs)
      : ctx_(ctx), queries_(std::move(queries)), jobs_(std::move(jobs)) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      (queries_[i].hot ? hot_ : fresh_).push_back(i);
    }
  }

  // Queries arrive as a Poisson stream; sanitize requests arrive on a
  // fixed period with a seeded phase, like a scheduled writer, so two of
  // them never overlap by chance and the query tail measures the server,
  // not the luck of the draw.
  std::vector<Planned> Plan(double rate, double seconds, uint64_t salt) {
    std::mt19937_64 rng(ctx_.seed * 0x9E3779B97F4A7C15ull + salt);
    std::exponential_distribution<double> gap(rate * (1 - kSanitizeShare));
    std::uniform_real_distribution<double> unit(0, 1);
    std::vector<Planned> plan;
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
      Planned p;
      p.due_s = t;
      if (unit(rng) < kHotShare || fresh_.empty()) {
        p.index = hot_[static_cast<size_t>(unit(rng) * hot_.size()) % hot_.size()];
      } else {
        p.index = fresh_[next_fresh_++ % fresh_.size()];
      }
      plan.push_back(p);
    }
    const double period = 1.0 / (rate * kSanitizeShare);
    size_t k = 0;
    for (double t = unit(rng) * period; t < seconds; t += period, ++k) {
      Planned p;
      p.due_s = t;
      p.sanitize = true;
      p.index = k % jobs_.size();
      plan.push_back(p);
    }
    std::sort(plan.begin(), plan.end(), [](const Planned& a, const Planned& b) {
      return a.due_s < b.due_s;
    });
    return plan;
  }

  serve::Request MakeRequest(const Planned& p, uint64_t id) const {
    serve::Request req;
    req.id = id;
    if (p.sanitize) {
      const SanitizeJob& job = jobs_[p.index];
      req.method = serve::Method::kSanitize;
      req.patterns = job.patterns;
      req.psi = job.psi;
      req.seed = job.seed;
      req.out = ctx_.dir + "/sanitized_" + std::to_string(id % 8) + ".txt";
    } else {
      const Query& q = queries_[p.index];
      req.method = q.method;
      req.patterns = q.patterns;
    }
    return req;
  }

  // Runs one open-loop phase against the server at `socket`.
  PhaseResult RunPhase(const std::string& socket, double rate, double seconds,
                       uint64_t salt) {
    PhaseResult out;
    out.rate = rate;
    const std::vector<Planned> plan = Plan(rate, seconds, salt);
    std::vector<Record> records(plan.size());
    const uint64_t base = next_id_;
    next_id_ += plan.size() + 1;

    std::vector<std::unique_ptr<serve::ServeClient>> clients;
    for (size_t c = 0; c < kConnections; ++c) {
      auto client = serve::ServeClient::ConnectUnix(socket);
      if (!client.ok()) {
        out.errors.push_back("connect: " + client.status().ToString());
        out.attempted = out.failed = plan.size();
        return out;
      }
      clients.push_back(std::move(client).value());
    }

    std::atomic<size_t> sent{0};
    std::atomic<size_t> received{0};
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    for (size_t i = 0; i < plan.size(); ++i) {
      records[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(plan[i].due_s));
    }
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < plan.size(); i += kConnections) {
          // Sleep to just short of the due time, then spin: a late wake-up
          // of the generator is not the server's latency.
          std::this_thread::sleep_until(records[i].due - kSpinWindow);
          while (Clock::now() < records[i].due) {
          }
          const serve::Request req = MakeRequest(plan[i], base + 1 + i);
          records[i].sent = Clock::now();
          const size_t now_sent = sent.fetch_add(1) + 1;
          records[i].inflight_at_send = now_sent - received.load();
          seqhide::obs::Span span("serve.send");
          if (!clients[c]->Send(req).ok()) break;
        }
      });
      threads.emplace_back([&, c] {
        const size_t expected = (plan.size() + kConnections - 1 - c) / kConnections;
        for (size_t n = 0; n < expected; ++n) {
          auto resp = clients[c]->Receive();
          if (!resp.ok()) break;
          const Clock::time_point now = Clock::now();
          if (resp->id <= base || resp->id > base + plan.size()) continue;
          Record& r = records[resp->id - base - 1];
          r.recv = now;
          r.resp = std::move(resp).value();
          r.received = true;
          received.fetch_add(1);
        }
      });
    }
    // Senders are the even threads; once they are done, give the server
    // a bounded time to answer, then unblock the receivers.
    for (size_t c = 0; c < kConnections; ++c) threads[2 * c].join();
    const Clock::time_point sent_all = Clock::now();
    while (received.load() < plan.size() && SecondsSince(sent_all) < kDrainSeconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto& client : clients) client->Shutdown();
    for (size_t c = 0; c < kConnections; ++c) threads[2 * c + 1].join();

    Score(plan, records, &out);
    return out;
  }

 private:
  void Score(const std::vector<Planned>& plan, const std::vector<Record>& records,
             PhaseResult* out) {
    auto ms = [](Clock::duration d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    out->attempted = plan.size();
    std::vector<double> inflight;
    for (size_t i = 0; i < plan.size(); ++i) {
      const Record& r = records[i];
      inflight.push_back(static_cast<double>(r.inflight_at_send));
      out->inflight_max = std::max(out->inflight_max, r.inflight_at_send);
      std::string error;
      if (!r.received) {
        error = "no response";
      } else if (r.resp.status != "ok") {
        error = "status " + r.resp.status + ": " + r.resp.error;
      } else if (!Correct(plan[i], r.resp)) {
        error = "wrong answer";
        ++out->wrong;
      }
      if (!error.empty()) {
        ++out->failed;
        if (out->errors.size() < 5) {
          out->errors.push_back("request " + std::to_string(i) + ": " + error);
        }
        continue;
      }
      const double total = ms(r.recv - r.due);
      const double queue = static_cast<double>(r.resp.queue_us) / 1e3;
      const double work = static_cast<double>(r.resp.work_us) / 1e3;
      out->late_ms.push_back(ms(r.sent - r.due));
      out->queue_ms.push_back(queue);
      out->wire_ms.push_back(ms(r.recv - r.sent) - queue - work);
      if (plan[i].sanitize) {
        out->sanitize_ms.push_back(total);
        out->work_sanitize_ms.push_back(work);
      } else {
        out->query_ms.push_back(total);
        out->query_due_s.push_back(plan[i].due_s);
        out->query_late_ms.push_back(ms(r.sent - r.due));
        out->work_query_ms.push_back(work);
      }
    }
    // A backlog that grows: requests sent in the last quarter of the
    // phase find far more in flight than those in the first quarter.
    const size_t q = inflight.size() / 4;
    if (q >= 10) {
      const std::vector<double> first(inflight.begin(), inflight.begin() + q);
      const std::vector<double> last(inflight.end() - q, inflight.end());
      out->backlog_grows = Mean(last) > 2 * Mean(first) + 4;
    }
  }

  bool Correct(const Planned& p, const serve::Response& resp) const {
    if (p.sanitize) {
      const serve::SanitizeSummary& want = jobs_[p.index].expected;
      const serve::SanitizeSummary& got = resp.sanitize;
      return resp.has_sanitize && !got.degraded &&
             got.marks_introduced == want.marks_introduced &&
             got.sequences_sanitized == want.sequences_sanitized &&
             got.supports_before == want.supports_before &&
             got.supports_after == want.supports_after;
    }
    return resp.values == queries_[p.index].expected;
  }

  const RunContext& ctx_;
  std::vector<Query> queries_;
  std::vector<SanitizeJob> jobs_;
  std::vector<size_t> hot_;
  std::vector<size_t> fresh_;
  size_t next_fresh_ = 0;
  uint64_t next_id_ = 0;
};

// Owns a started server; drains and joins it on Stop() or destruction.
struct LiveServer {
  std::unique_ptr<serve::Server> server;
  LiveServer() = default;
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  ~LiveServer() { Stop(); }
  void Stop() {
    if (server) {
      server->RequestDrain();
      server->Join();
      server.reset();
    }
  }
};

// Server::Create + Start until the first ping answers.
std::string StartServer(const serve::ServerOptions& opts, LiveServer* live,
                        double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto created = serve::Server::Create(opts);
  if (!created.ok()) return "Server::Create: " + created.status().ToString();
  live->server = std::move(created).value();
  const seqhide::Status started = live->server->Start();
  if (!started.ok()) return "Server::Start: " + started.ToString();
  auto client = serve::ServeClient::ConnectUnix(opts.socket_path);
  if (!client.ok()) return "connect: " + client.status().ToString();
  serve::Request ping;
  ping.id = 1;
  auto pong = (*client)->Call(ping);
  if (!pong.ok() || pong->status != "ok") return "first ping failed";
  *seconds = SecondsSince(t0);
  return "";
}

std::string Row(const char* name, double v, double total, const char* unit) {
  char line[160];
  std::snprintf(line, sizeof(line), "  %-22s %12.4f %s  %6.2f%%", name, v, unit,
                total > 0 ? 100 * v / total : 0.0);
  return line;
}

}  // namespace

Outcome RunServeWorkload(const RunContext& ctx) {
  Outcome out;
  std::vector<Query> queries;
  for (const std::string& line : ReadLines(ctx.dir + "/queries.txt")) {
    std::vector<std::string> f = SplitTabs(line);
    if (f.size() < 3) continue;
    Query q;
    q.hot = f[0] == "hot";
    q.method = f[1] == "support" ? serve::Method::kSupport
                                 : serve::Method::kMatchCount;
    q.patterns.assign(f.begin() + 2, f.end());
    queries.push_back(std::move(q));
  }
  std::vector<SanitizeJob> jobs;
  for (const std::string& line : ReadLines(ctx.dir + "/sanitize.txt")) {
    std::vector<std::string> f = SplitTabs(line);
    if (f.size() < 3) continue;
    SanitizeJob j;
    j.psi = std::stoull(f[0]);
    j.seed = std::stoull(f[1]);
    j.patterns.assign(f.begin() + 2, f.end());
    jobs.push_back(std::move(j));
  }
  if (queries.empty() || jobs.empty()) {
    out.Fail("missing queries.txt or sanitize.txt in " + ctx.dir);
    return out;
  }
  const std::string image = ctx.dir + "/db.seqhidb";
  const std::string err = BuildOracles(image, &queries, &jobs);
  if (!err.empty()) {
    out.Fail("oracle: " + err);
    return out;
  }
  if (ctx.inject == Inject::kWrongOracle) ++queries.front().expected.front();

  serve::ServerOptions opts;
  opts.db_path = image;
  opts.socket_path = ctx.dir + "/serve.sock";
  const double nominal = ctx.tiny ? 100 : 200;

  ResetPeakRss();
  LiveServer live;
  std::vector<double> setups;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    live.Stop();
    double s = 0;
    const std::string e = StartServer(opts, &live, &s);
    if (!e.empty()) {
      out.Fail("setup: " + e);
      return out;
    }
    setups.push_back(s);
  }

  LoadGenerator load(ctx, std::move(queries), std::move(jobs));
  const double nominal_seconds = ctx.seconds * (ctx.trace ? 0.5 : 0.75);
  std::vector<PhaseResult> ladder;
  PhaseResult nominal_run =
      load.RunPhase(opts.socket_path, nominal, nominal_seconds, 1);
  PhaseResult traced_run;
  seqhide::obs::MetricsSnapshot phase_metrics;
  serve::ServerStats stats_before;
  serve::ServerStats stats_after;
  uint64_t hits = 0, misses = 0, sheds = 0;
  if (ctx.trace) {
    seqhide::obs::MetricsRegistry::Default().Reset();
    stats_before = live.server->stats();
    const uint64_t hits0 = live.server->cache().hits();
    const uint64_t misses0 = live.server->cache().misses();
    const uint64_t sheds0 = live.server->admission().sheds();
    seqhide::obs::TraceEventRecorder rec;
    rec.Install();
    traced_run = load.RunPhase(opts.socket_path, nominal, nominal_seconds, 2);
    rec.Uninstall();
    phase_metrics = seqhide::obs::MetricsRegistry::Default().Snapshot();
    stats_after = live.server->stats();
    hits = live.server->cache().hits() - hits0;
    misses = live.server->cache().misses() - misses0;
    sheds = live.server->admission().sheds() - sheds0;
  } else {
    const double rung = (ctx.seconds - nominal_seconds) / std::size(kLadder);
    uint64_t salt = 10;
    for (double m : kLadder) {
      ladder.push_back(load.RunPhase(opts.socket_path, nominal * m, rung, salt++));
    }
  }
  const double peak_rss = PeakRssMb();
  live.Stop();

  // The result's attempted/failed cover the nominal rate; the ladder's
  // rungs above it probe capacity and may shed by design, but a wrong
  // answer on any rung still fails the run.
  for (const PhaseResult* p : {&nominal_run, &traced_run}) {
    out.attempted += p->attempted;
    out.failed += p->failed;
    for (const std::string& e : p->errors) out.Fail(e);
  }
  for (const PhaseResult& p : ladder) {
    if (p.wrong > 0) out.Fail(std::to_string(p.wrong) + " wrong answers at " +
                              Num(p.rate) + " req/s");
  }
  const PhaseResult& nom = nominal_run;
  auto windowed = [&nom](double q) {
    return CalmWindowPercentile(nom.query_ms, nom.query_late_ms, nom.query_due_s,
                                kWindowSeconds, q);
  };
  double max_qps = nom.MeetsSlo() ? nominal : 0;
  for (const PhaseResult& p : ladder) {
    if (p.MeetsSlo() && p.rate > max_qps) max_qps = p.rate;
  }
  out.Note("serve-mixed @ nominal " + Num(nominal) + " req/s: " +
           std::to_string(nom.query_ms.size()) + " queries, " +
           std::to_string(nom.sanitize_ms.size()) + " sanitize requests");
  out.Note("  per " + Num(kWindowSeconds) +
           "-s window, median over the calmer half of the windows: " +
           "query_p50_ms=" + Num(windowed(0.5)) + " query_p90_ms=" +
           Num(windowed(0.9)));
  out.Note("  setup_s p25/p50/p75 over " + std::to_string(setups.size()) +
           " starts: " + Num(Percentile(setups, 0.25)) + " " +
           Num(Median(setups)) + " " + Num(Percentile(setups, 0.75)));
  out.Note("  whole phase: query_p50_ms=" + Num(Median(nom.query_ms)) +
           " query_p90_ms=" + Num(Percentile(nom.query_ms, 0.90)) +
           " query_p99_ms=" + Num(Percentile(nom.query_ms, 0.99)) +
           " sanitize_req_p50_ms=" + Num(Median(nom.sanitize_ms)) +
           " query_work_p50_ms=" + Num(Median(nom.work_query_ms)) +
           " failed_share=" +
           Num(nom.attempted ? static_cast<double>(nom.failed) / nom.attempted : 0) +
           " gen_late_p99_ms=" + Num(Percentile(nom.late_ms, 0.99)));
  for (const PhaseResult& p : ladder) {
    out.Note("  ladder " + Num(p.rate) + " req/s: query_p99_ms=" +
             Num(Percentile(p.query_ms, 0.99)) + " failed=" +
             std::to_string(p.failed) + "/" + std::to_string(p.attempted) +
             " inflight_max=" + std::to_string(p.inflight_max) +
             (p.backlog_grows ? " backlog grows" : "") +
             (p.MeetsSlo() ? " meets SLO" : " misses SLO"));
  }
  if (!ctx.trace) {
    out.Note("  max_qps_at_slo=" + Num(max_qps) + " (query p99 <= " +
             Num(kSloP99Ms) + " ms, nothing failed, backlog flat)");
    out.Set("setup_s", Median(setups), "s");
    out.Set("op_p50_ms", windowed(0.5), "ms");
    out.Set("job_s", Median(nom.sanitize_ms) / 1e3, "s");
    out.Set("peak_rss_mb", peak_rss, "MiB");
    return out;
  }

  // Per-layer figures come from the traced half.
  const PhaseResult& tr = traced_run;
  const double late = Mean(tr.late_ms);
  const double queue = Mean(tr.queue_ms);
  std::vector<double> work_all = tr.work_query_ms;
  work_all.insert(work_all.end(), tr.work_sanitize_ms.begin(),
                  tr.work_sanitize_ms.end());
  const double work = Mean(work_all);
  std::vector<double> total_all = tr.query_ms;
  total_all.insert(total_all.end(), tr.sanitize_ms.begin(), tr.sanitize_ms.end());
  const double total = Mean(total_all);
  const double wire = total - late - queue - work;
  out.Note("layer table (traced, mean per request over " +
           std::to_string(total_all.size()) + " requests, from due time):");
  out.Note(Row("bench.gen_late", late, total, "ms"));
  out.Note(Row("serve.queue", queue, total, "ms"));
  out.Note(Row("serve.work", work, total, "ms"));
  out.Note(Row("unattributed (wire)", wire, total, "ms"));
  out.Note(Row("= request", total, total, "ms"));

  const auto& hist = phase_metrics.histograms;
  double batch_mean = 0, wait_p50 = 0;
  if (auto it = hist.find("serve.batch.size"); it != hist.end() && it->second.count) {
    batch_mean = static_cast<double>(it->second.sum) / it->second.count;
  }
  if (auto it = hist.find("serve.batch.wait_us"); it != hist.end()) {
    wait_p50 = seqhide::obs::HistogramPercentile(it->second, 0.5);
  }
  const double tr_queries = static_cast<double>(tr.query_ms.size());
  const uint64_t coalesced = stats_after.coalesced - stats_before.coalesced;
  out.Set("serve.queue_ms.p50", Percentile(tr.queue_ms, 0.5), "ms");
  out.Set("serve.queue_ms.p99", Percentile(tr.queue_ms, 0.99), "ms");
  out.Set("serve.work_ms.query.p50", Median(tr.work_query_ms), "ms");
  out.Set("serve.work_ms.sanitize.p50", Median(tr.work_sanitize_ms), "ms");
  out.Set("serve.wire_ms.p50", Median(tr.wire_ms), "ms");
  out.Set("serve.batch.size_mean", batch_mean, "count");
  out.Set("serve.batch.coalesced_share",
          tr_queries > 0 ? static_cast<double>(coalesced) / tr_queries : 0, "ratio");
  out.Set("serve.batch.wait_us.p50", wait_p50, "us");
  out.Set("serve.cache.hit_ratio",
          hits + misses ? static_cast<double>(hits) / (hits + misses) : 0, "ratio");
  out.Set("serve.admission.shed_share",
          tr.attempted ? static_cast<double>(sheds) / tr.attempted : 0, "ratio");
  out.Set("serve.inflight_max", static_cast<double>(tr.inflight_max), "count");
  out.Set("bench.traced_total_s", total / 1e3, "s");
  out.Set("bench.gen_late_ms.p99", Percentile(tr.late_ms, 0.99), "ms");
  const double untraced_p50 = Median(nom.query_ms);
  out.Set("bench.trace_overhead",
          untraced_p50 > 0 ? Median(tr.query_ms) / untraced_p50 - 1 : 0, "ratio");
  out.Set("bench.failed_share",
          out.attempted ? static_cast<double>(out.failed) / out.attempted : 0,
          "ratio");
  out.Note("ratio bases: coalesced " + std::to_string(coalesced) + " / " +
           Num(tr_queries) + " queries; cache hits " + std::to_string(hits) +
           " / " + std::to_string(hits + misses) + " lookups; sheds " +
           std::to_string(sheds) + " / " + std::to_string(tr.attempted) +
           " requests");
  return out;
}

}  // namespace perfbench
