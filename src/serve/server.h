// seqhide_server's engine: a long-running serving loop over one sequence
// database, built from the robustness machinery of the batch pipeline.
//
// Life of a request:
//   reader thread   parses the line; "ping" answers inline; everything
//                   else is offered to the AdmissionController — refusals
//                   get an explicit shed response (resource_exhausted /
//                   unavailable + retry_after_ms), admissions enter the
//                   bounded work queue.
//   worker thread   pops the item; a deadline that expired while queued
//                   answers deadline_exceeded without running; a client
//                   that disconnected cancels the item. The per-request
//                   deadline and the disconnect flag map onto
//                   RunBudget::deadline_seconds / RunBudget::cancel, so
//                   a sanitize that overruns degrades exactly like a
//                   budget-stopped batch run (checkpoint kept, report
//                   honest) instead of being killed.
//   response        exactly one per request read, written under the
//                   connection's write lock; every terminal outcome is
//                   appended to the run ledger as a "request" record.
//
// Durable jobs: a sanitize request carrying "job" is persisted into the
// state directory (spec file, write + fsync + rename) before it runs and
// checkpointed between marking rounds; Start() re-runs any leftover spec
// to completion — so a SIGKILL mid-request yields, after restart, a
// database byte-identical to an uninterrupted run.
//
// Drain (SIGTERM): RequestDrain() shuts the listener down and flips
// admission into shed-everything mode; Join() waits up to drain_grace_ms
// for in-flight work, then sets every outstanding cancel flag (in-flight
// sanitizes budget-stop and checkpoint) and finishes. Nothing is ever
// silently dropped: queued requests still get responses during drain.

#ifndef SEQHIDE_SERVE_SERVER_H_
#define SEQHIDE_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/constraints/constraints.h"
#include "src/obs/telemetry/run_ledger.h"
#include "src/seq/binary_format.h"
#include "src/serve/admission.h"
#include "src/serve/match_cache.h"
#include "src/serve/net.h"
#include "src/serve/protocol.h"

namespace seqhide {
namespace serve {

struct ServerOptions {
  // Database image: text or seqhidb v1, sniffed by magic. A seqhidb image
  // is mmapped, its rows validated once, and served zero-copy; a text
  // database is encoded into an in-memory seqhidb image at load. Either
  // way every request reads that one immutable image and its posting
  // lists — sanitize requests return their changed rows as an overlay
  // and never mutate it.
  std::string db_path;

  // Exactly one endpoint: a Unix-domain socket path, or TCP on
  // 127.0.0.1:tcp_port (port 0 = kernel-assigned, see Server::port()).
  std::string socket_path;
  std::optional<uint16_t> tcp_port;

  // Worker threads popping the request queue (request-level parallelism).
  size_t num_workers = 2;
  // Threads per sanitize/count run (row-sharded stage parallelism,
  // SanitizeOptions::num_threads). 0 = auto.
  size_t num_threads = 1;

  AdmissionLimits admission;
  // Match-info cache entries; 0 disables the cache.
  size_t cache_entries = 128;

  // Query batching (support / match-count only): a worker holding a
  // cache-miss query keeps the coalescing window open for up to
  // batch_max_wait_us, gathering further batchable requests (up to
  // batch_max_size including its own), and answers them all with one
  // union pattern-trie pass over the database. 1 pins batching off —
  // every query runs the legacy solo path. Coalescing is never allowed
  // to change a single response byte; only latency/throughput.
  size_t batch_max_size = 8;
  uint64_t batch_max_wait_us = 200;

  // Applied when a request carries no deadline_ms; 0 = none.
  double default_deadline_ms = 0.0;
  // How long Join() waits for in-flight work before cancelling it.
  uint64_t drain_grace_ms = 5000;

  // Directory for durable-job specs and checkpoints; "" disables the
  // "job" request field and startup recovery.
  std::string state_dir;
  // Sanitize execution knobs, forwarded to SanitizeOptions (identical
  // values make a server-run job byte-identical to the same CLI run).
  size_t mark_round_size = 256;
  size_t checkpoint_every_rounds = 1;

  // Optional run ledger for request records; not owned, may be null.
  obs::telemetry::RunLedger* ledger = nullptr;
};

// Monotonic outcome counters, readable while the server runs.
struct ServerStats {
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;  // non-ok terminal responses (not sheds)
  uint64_t sheds = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t disconnects = 0;
  uint64_t responses_dropped = 0;  // client gone before the write
  uint64_t recovered_jobs = 0;
  uint64_t batches = 0;    // union counting passes dispatched
  uint64_t coalesced = 0;  // requests answered by a shared (size>1) pass
};

class Server {
 public:
  // Loads the database and validates options; does not bind or serve.
  static Result<std::unique_ptr<Server>> Create(const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Recovers leftover durable jobs, binds the endpoint, and spawns the
  // accept/worker threads.
  Status Start();

  // Begins the drain sequence; idempotent, callable from any thread.
  void RequestDrain();
  bool draining() const;

  // Blocks until the server is fully drained and every thread joined.
  // Returns immediately if Start() was never called.
  void Join();

  uint16_t port() const { return listener_.port(); }
  const std::string& socket_path() const { return opts_.socket_path; }
  uint64_t db_fingerprint() const { return db_fingerprint_; }
  size_t db_rows() const { return db_.size(); }

  ServerStats stats() const;
  MatchInfoCache& cache() { return cache_; }
  AdmissionController& admission() { return admission_; }

 private:
  struct Connection;
  struct WorkItem;

  Server(const ServerOptions& opts, MappedDatabase db,
         uint64_t db_fingerprint);

  Status RecoverJobs();
  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  // Parses, admits, and enqueues one request line (reader thread).
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line);
  void ProcessItem(const std::shared_ptr<WorkItem>& item);
  Response DoQuery(const std::shared_ptr<WorkItem>& item);
  // `resume` re-runs a recovered job from its checkpoint.
  Response DoSanitize(const std::shared_ptr<WorkItem>& item, bool resume);

  // Batch path (batch_max_size > 1). A popped batchable query first tries
  // the fast path — cancel/deadline/malformed/cache-hit outcomes answer
  // immediately without holding a coalescing window open; on false the
  // item needs a counting pass and becomes the batch leader.
  bool BatchEligible(const WorkItem& item) const;
  bool TryQueryFastPath(const std::shared_ptr<WorkItem>& item,
                        std::chrono::steady_clock::time_point start);
  // Gathers further batchable items (queue_mu_ held via `lock`), waiting
  // up to batch_max_wait_us for arrivals; non-batchable items are left
  // queued for the other workers.
  void CollectBatchLocked(std::unique_lock<std::mutex>& lock,
                          std::vector<std::shared_ptr<WorkItem>>* batch);
  void ProcessBatch(const std::vector<std::shared_ptr<WorkItem>>& batch,
                    std::chrono::steady_clock::time_point leader_start);
  // The solo per-pattern kernel selection, shared by DoQuery and the
  // batch fallback so both paths produce the same bits by construction.
  uint64_t ComputePatternValue(Method method,
                               const ConstrainedPattern& cp) const;
  // Seals one request: timings, outcome stats, ledger record, response
  // write (or drop). The single exit for solo, fast-path, and batch.
  void FinishItem(const std::shared_ptr<WorkItem>& item, Response resp,
                  std::chrono::steady_clock::time_point start);
  // Removes the item's cancel flag from the drain sweep and its
  // connection's in-flight list.
  void RetireItem(const std::shared_ptr<WorkItem>& item);

  void WriteResponse(const std::shared_ptr<Connection>& conn, Response resp);
  void LedgerRecord(const Request& req, const Response& resp, bool shed,
                    bool recovered);
  size_t EstimateTableBytes(const Request& req) const;
  void ReapFinishedReaders();

  ServerOptions opts_;
  const MappedDatabase db_;
  const uint64_t db_fingerprint_;
  const size_t db_max_length_;

  Listener listener_;
  AdmissionController admission_;
  MatchInfoCache cache_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<WorkItem>> queue_;
  bool workers_stop_ = false;

  // Every outstanding item's cancel flag, for the drain-grace sweep.
  std::mutex cancels_mu_;
  std::vector<std::shared_ptr<std::atomic<bool>>> cancels_;

  std::mutex conns_mu_;
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };
  std::vector<ReaderSlot> readers_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> drain_requested_{false};

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace serve
}  // namespace seqhide

#endif  // SEQHIDE_SERVE_SERVER_H_
