// Differential property for seqhide_server's query batching: on seeded
// random instances, a pipelined volley of support / match-count requests
// answered by a coalescing server (batch sizes 2 and 8, worker counts 1,
// 2, and 8) must be byte-for-byte identical — modulo the queue_us /
// work_us timing fields — to the same volley answered by a
// `--batch-max-size 1` reference server, on a cold cache AND on a warm
// one. Batch composition must also be invisible to the semantic
// counters: every server ends with the same ok/error totals and the same
// cache hit/miss counts, whatever it coalesced.
//
// Each case stands up real servers over a Unix socket with the instance
// database written to disk, so the whole serving stack — admission,
// coalescing window, union pass, demux, cache — is under the property,
// not just the planner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/constraints/constraints.h"
#include "src/seq/database.h"
#include "src/serve/client.h"
#include "src/serve/match_cache.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "tests/prop/prop_gtest.h"

namespace seqhide {
namespace proptest {
namespace {

using serve::MatchInfoCache;
using serve::Method;
using serve::Request;
using serve::Response;
using serve::ServeClient;
using serve::Server;
using serve::ServerOptions;
using serve::ServerStats;

// Serving-shaped instances: clean databases (the serving image carries
// no Δ marks), non-empty rows, a few patterns with mixed constraints.
GenOptions ServeGen() {
  GenOptions gen;
  gen.min_sequences = 1;
  gen.max_sequences = 8;
  gen.min_length = 1;
  gen.max_length = 10;
  gen.delta_density = 0.0;
  gen.max_patterns = 3;
  gen.randomize_options = false;
  return gen;
}

// Renders a pattern + constraints back into the wire text syntax
// ("a ->[0..2] b ; window<=5"); ConstraintSpec::ToString() is a debug
// format, not parser input. Gap bounds on a length-1 pattern have no
// arrow to annotate and vanish — harmless, every server sees the same
// text.
std::string PatternText(const Alphabet& alphabet, const Sequence& pattern,
                        const ConstraintSpec& spec) {
  std::string out;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) {
      const GapBound g = spec.gap(i - 1);
      if (g.IsUnconstrained()) {
        out += " -> ";
      } else {
        out += " ->[";
        if (g.min_gap == g.max_gap) {
          out += std::to_string(g.min_gap);
        } else if (g.max_gap == GapBound::kNoMax) {
          out += std::to_string(g.min_gap) + "..";
        } else if (g.min_gap == 0) {
          out += ".." + std::to_string(g.max_gap);
        } else {
          out += std::to_string(g.min_gap) + ".." + std::to_string(g.max_gap);
        }
        out += "] ";
      }
    }
    out += alphabet.Name(pattern[i]);
  }
  if (spec.HasWindow()) {
    out += " ; window<=" + std::to_string(*spec.max_window());
  }
  return out;
}

// The volley: one request per pattern (alternating methods) plus the
// combined set in both orders. Deduped by (method, pattern-set)
// fingerprint — two identical in-flight requests would race for the
// cache miss/hit split on every server, batched or not, making the
// cache field scheduling-dependent rather than batching-dependent.
std::vector<Request> BuildVolley(const PropInstance& inst) {
  const Alphabet& alphabet = inst.db.alphabet();
  std::vector<std::string> texts;
  for (size_t i = 0; i < inst.patterns.size(); ++i) {
    // An empty constraints list means "all unconstrained" (GenInstance
    // emits that form on purpose); it has no entry to read.
    const ConstraintSpec spec = inst.constraints.empty()
                                    ? ConstraintSpec()
                                    : inst.constraints[i];
    texts.push_back(PatternText(alphabet, inst.patterns[i], spec));
  }
  std::vector<Request> volley;
  std::set<uint64_t> seen;
  uint64_t id = 1;
  auto add = [&](Method method, std::vector<std::string> patterns) {
    const uint64_t fp = serve::FingerprintPatterns(
        serve::MethodName(method), patterns);
    if (!seen.insert(fp).second) return;
    Request req;
    req.id = id++;
    req.method = method;
    req.patterns = std::move(patterns);
    volley.push_back(std::move(req));
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    add(i % 2 == 0 ? Method::kMatchCount : Method::kSupport, {texts[i]});
  }
  add(Method::kMatchCount, texts);
  std::vector<std::string> reversed(texts.rbegin(), texts.rend());
  add(Method::kSupport, reversed);  // fingerprints are order-sensitive
  return volley;
}

// Pipelines the volley (all sends, then all receives, matched by id) and
// returns id -> serialized response with timings zeroed. `tag` labels
// failures; a non-empty *error aborts the case.
std::map<uint64_t, std::string> Volley(ServeClient* client,
                                       const std::vector<Request>& reqs,
                                       uint64_t id_offset,
                                       const std::string& tag,
                                       std::string* error) {
  std::map<uint64_t, std::string> out;
  for (Request req : reqs) {
    req.id += id_offset;
    const Status sent = client->Send(req);
    if (!sent.ok()) {
      *error = tag + ": send failed: " + sent.ToString();
      return out;
    }
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    auto resp = client->Receive();
    if (!resp.ok()) {
      *error = tag + ": receive failed: " + resp.status().ToString();
      return out;
    }
    resp->queue_us = 0;
    resp->work_us = 0;
    out[resp->id - id_offset] = SerializeResponse(*resp);
  }
  return out;
}

struct ServerRun {
  std::map<uint64_t, std::string> cold;
  std::map<uint64_t, std::string> warm;
  ServerStats stats;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

// Boots a server over `db_path`, plays the volley cold then warm, drains,
// and collects the normalized responses plus the semantic counters.
ServerRun RunServer(const std::string& db_path, const std::string& socket,
                    size_t batch_max_size, size_t num_workers,
                    const std::vector<Request>& volley,
                    const std::string& tag, std::string* error) {
  ServerRun run;
  ServerOptions opts;
  opts.db_path = db_path;
  opts.socket_path = socket;
  opts.num_workers = num_workers;
  opts.cache_entries = 128;
  opts.batch_max_size = batch_max_size;
  opts.batch_max_wait_us = 3000;
  auto server = Server::Create(opts);
  if (!server.ok()) {
    *error = tag + ": create failed: " + server.status().ToString();
    return run;
  }
  const Status started = (*server)->Start();
  if (!started.ok()) {
    *error = tag + ": start failed: " + started.ToString();
    return run;
  }
  auto client = ServeClient::ConnectUnix(socket);
  if (!client.ok()) {
    *error = tag + ": connect failed: " + client.status().ToString();
  } else {
    run.cold = Volley(client->get(), volley, 0, tag + " cold", error);
    if (error->empty()) {
      run.warm = Volley(client->get(), volley, 1000, tag + " warm", error);
    }
  }
  (*server)->RequestDrain();
  (*server)->Join();
  run.stats = (*server)->stats();
  run.cache_hits = (*server)->cache().hits();
  run.cache_misses = (*server)->cache().misses();
  std::remove(socket.c_str());
  return run;
}

std::string DiffMaps(const std::map<uint64_t, std::string>& want,
                     const std::map<uint64_t, std::string>& got,
                     const std::string& tag) {
  if (want.size() != got.size()) {
    return tag + ": " + std::to_string(got.size()) + " responses vs " +
           std::to_string(want.size()) + " from the reference";
  }
  for (const auto& [id, line] : want) {
    auto it = got.find(id);
    if (it == got.end()) return tag + ": missing response id " +
                                std::to_string(id);
    if (it->second != line) {
      return tag + ": id " + std::to_string(id) + " diverges:\n  batched:   " +
             it->second + "\n  reference: " + line;
    }
  }
  return std::string();
}

TEST(ServeBatchProps, BatchedResponsesAreByteIdenticalToSolo) {
  PropConfig config;
  config.name = "serve/batched-equals-solo";
  config.seed = 0x5eed0b10;
  // Each case boots 7 real servers (reference + the batch×workers
  // matrix) and plays the volley twice on each — fewer, richer cases.
  config.cases = 20;
  config.gen = ServeGen();
  EXPECT_PROP_OK(CheckProperty(config, [](const PropInstance& inst) {
    const std::string dir = ::testing::TempDir();
    const std::string db_path = dir + "/prop_serve_batch_db.txt";
    {
      std::ofstream out(db_path);
      const Alphabet& alphabet = inst.db.alphabet();
      for (const Sequence& row : inst.db.sequences()) {
        for (size_t i = 0; i < row.size(); ++i) {
          if (i > 0) out << ' ';
          out << alphabet.Name(row[i]);
        }
        out << '\n';
      }
    }
    const std::vector<Request> volley = BuildVolley(inst);

    std::string error;
    const ServerRun reference =
        RunServer(db_path, dir + "/prop_sb_ref.sock", 1, 1, volley,
                  "reference", &error);
    if (!error.empty()) return error;

    int variant = 0;
    for (const size_t batch : {2u, 8u}) {
      for (const size_t workers : {1u, 2u, 8u}) {
        const std::string tag = "batch=" + std::to_string(batch) +
                                " workers=" + std::to_string(workers);
        const std::string socket =
            dir + "/prop_sb_" + std::to_string(variant++) + ".sock";
        const ServerRun run = RunServer(db_path, socket, batch, workers,
                                        volley, tag, &error);
        if (!error.empty()) return error;

        std::string diff = DiffMaps(reference.cold, run.cold, tag + " cold");
        if (diff.empty()) {
          diff = DiffMaps(reference.warm, run.warm, tag + " warm");
        }
        if (!diff.empty()) return diff;

        // Coalescing is invisible to the semantic counters.
        if (run.stats.requests_ok != reference.stats.requests_ok ||
            run.stats.requests_error != reference.stats.requests_error) {
          return tag + ": outcome counters diverge (ok " +
                 std::to_string(run.stats.requests_ok) + " vs " +
                 std::to_string(reference.stats.requests_ok) + ", error " +
                 std::to_string(run.stats.requests_error) + " vs " +
                 std::to_string(reference.stats.requests_error) + ")";
        }
        if (run.cache_hits != reference.cache_hits ||
            run.cache_misses != reference.cache_misses) {
          return tag + ": cache counters diverge (hits " +
                 std::to_string(run.cache_hits) + " vs " +
                 std::to_string(reference.cache_hits) + ", misses " +
                 std::to_string(run.cache_misses) + " vs " +
                 std::to_string(reference.cache_misses) + ")";
        }
      }
    }

    // The warm round really was served from the cache (same requests,
    // same fingerprints): one miss per volley entry, one hit per entry.
    if (reference.cache_misses != volley.size() ||
        reference.cache_hits != volley.size()) {
      return "reference cache counters off: hits " +
             std::to_string(reference.cache_hits) + ", misses " +
             std::to_string(reference.cache_misses) + ", volley " +
             std::to_string(volley.size());
    }
    std::remove(db_path.c_str());
    return std::string();
  }));
}

}  // namespace
}  // namespace proptest
}  // namespace seqhide
