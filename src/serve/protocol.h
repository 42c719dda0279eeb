// Wire protocol of seqhide_server: newline-delimited JSON over a stream
// socket. One request object per line in, one response object per line
// out, matched by the caller-chosen "id"; responses may arrive out of
// request order when the server runs more than one worker.
//
// Requests:
//   {"id":1,"method":"ping"}
//   {"id":2,"method":"support","patterns":["a -> b"],"deadline_ms":250}
//   {"id":3,"method":"match-count","patterns":["a -> b ; window<=4"]}
//   {"id":4,"method":"sanitize","patterns":["a -> b"],"psi":2,"seed":7,
//    "out":"/tmp/out.txt","job":"nightly"}
//
// Responses always carry "id" and "status". "status" is the lower-cased
// snake_case form of StatusCode ("ok", "resource_exhausted",
// "deadline_exceeded", ...), plus "unavailable" for requests refused
// because the server is draining. Shed responses ("resource_exhausted",
// "unavailable") carry "retry_after_ms" — the server's backpressure hint,
// honored by ServeClient. Nothing is ever silently dropped: every request
// the server reads gets exactly one response unless the client's
// connection is already gone.
//
// The shed/retry contract, deadline mapping, and drain sequence are
// documented in docs/robustness.md ("Serving").

#ifndef SEQHIDE_SERVE_PROTOCOL_H_
#define SEQHIDE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace seqhide {
namespace serve {

inline constexpr uint32_t kProtocolVersion = 1;

enum class Method {
  kPing,        // liveness + database identity (rows, fingerprint)
  kSupport,     // per-pattern (constrained) support
  kMatchCount,  // per-pattern total matching count
  kSanitize,    // full sanitization run over a view of the serving image
};

std::string_view MethodName(Method m);
Result<Method> ParseMethod(std::string_view name);

// Wire form of a StatusCode ("ok", "invalid_argument", ...).
std::string_view WireStatus(StatusCode code);
// Requests refused because the server is draining. Not a StatusCode: the
// condition is retryable against a replacement server, which none of the
// library codes expresses.
inline constexpr std::string_view kStatusUnavailable = "unavailable";
// True for wire statuses a client should retry after backing off.
bool IsRetryableWireStatus(std::string_view status);

struct Request {
  uint64_t id = 0;
  Method method = Method::kPing;
  // Per-request deadline in milliseconds from admission; 0 = server
  // default. Counts queue wait: a request that expires while queued is
  // answered deadline_exceeded without running.
  double deadline_ms = 0.0;
  // Constrained-pattern texts (constraints.h syntax). Required (non-empty)
  // for support / match-count / sanitize.
  std::vector<std::string> patterns;
  // sanitize only:
  uint64_t psi = 0;
  std::string algo = "HH";  // HH / HR / RH / RR
  uint64_t seed = 1;
  std::string out;  // path the sanitized database is written to
  // Optional durable-job name: the server persists the request spec in
  // its state directory before running, checkpoints between rounds, and
  // re-runs the job to completion on restart after a crash.
  std::string job;
};

// Strict parse of one request line: unknown keys, wrong types, and
// unknown methods are InvalidArgument (the server answers malformed
// lines with a status="invalid_argument" response, id 0 if unparsable).
Result<Request> ParseRequest(std::string_view line);
// One line, no trailing newline. Deterministic field order.
std::string SerializeRequest(const Request& req);

struct SanitizeSummary {
  uint64_t marks_introduced = 0;
  uint64_t sequences_sanitized = 0;
  std::vector<uint64_t> supports_before;
  std::vector<uint64_t> supports_after;
  bool degraded = false;
  std::string stop_reason;  // wire status of the budget stop; "" if none
  uint64_t rounds_completed = 0;
  uint64_t rounds_total = 0;
};

struct Response {
  uint64_t id = 0;
  std::string status = "ok";
  std::string error;  // human-readable detail when status != "ok"
  // Backpressure hint on shed responses; 0 = none.
  uint64_t retry_after_ms = 0;
  // support / match-count: one value per request pattern.
  std::vector<uint64_t> values;
  // support / match-count: "hit" or "miss" (match-info cache); "" else.
  std::string cache;
  // ping:
  uint64_t db_rows = 0;
  uint64_t db_fingerprint = 0;
  bool draining = false;
  // sanitize (present iff the run started):
  bool has_sanitize = false;
  SanitizeSummary sanitize;
  // Server-side timings (microseconds), for the latency histograms and
  // the ledger's request records.
  uint64_t queue_us = 0;
  uint64_t work_us = 0;
};

Result<Response> ParseResponse(std::string_view line);
std::string SerializeResponse(const Response& resp);

// Convenience: an error response for `req_id` from a Status, mapping the
// code through WireStatus.
Response ErrorResponse(uint64_t req_id, const Status& status);

}  // namespace serve
}  // namespace seqhide

#endif  // SEQHIDE_SERVE_PROTOCOL_H_
