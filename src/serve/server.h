#ifndef SWFOMC_SERVE_SERVER_H_
#define SWFOMC_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/engine.h"
#include "io/json.h"
#include "nnf/circuit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/budget.h"
#include "runtime/thread_pool.h"

namespace swfomc::serve {

/// Configuration of a long-lived inference server (`swfomc serve`).
struct ServerOptions {
  /// Worker threads for fanning a request's weight vectors out over the
  /// compiled circuit (1 = sequential, 0 = one per hardware thread).
  unsigned num_threads = 1;
  /// Bounds of the compiled-circuit LRU: entry count and resident bytes
  /// (CompiledQuery::MemoryBytes plus key/bookkeeping overhead). A
  /// circuit bigger than the whole byte bound on its own is served but
  /// not cached, mirroring ComponentCache's policy.
  std::size_t max_circuits = 64;
  std::size_t max_circuit_bytes = std::size_t{256} << 20;  // 256 MiB
  /// Longest accepted request line; longer lines get a per-request error
  /// response instead of an unbounded parse.
  std::size_t max_request_bytes = std::size_t{1} << 20;  // 1 MiB
  /// Default per-request resource envelope; a request's own budget_ms /
  /// max_decisions / max_memory_bytes fields override these field by
  /// field. Each compile and direct count arms a fresh budget from it.
  runtime::Limits limits;
  /// Structured span/event log for request tracing (not owned; null =
  /// disabled). Wired from `swfomc serve --trace-out FILE`.
  obs::TraceLog* trace = nullptr;
};

/// Point-in-time counters (the `stats` command's payload). Backed by
/// the server's MetricsRegistry; Stats() materializes a snapshot.
struct ServerStats {
  std::uint64_t requests = 0;    // query requests handled (ok or error)
  std::uint64_t errors = 0;      // requests answered with status "error"
  std::uint64_t cache_hits = 0;  // queries served from a cached circuit
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  /// Cumulative bytes accounted to evicted entries.
  std::uint64_t evicted_bytes = 0;
  std::size_t circuits = 0;       // entries resident in the LRU
  std::size_t circuit_bytes = 0;  // bytes accounted to those entries
  /// High-water mark of circuit_bytes over the server's lifetime.
  std::size_t circuit_bytes_peak = 0;
};

/// A long-lived batching WFOMC server: newline-delimited JSON requests
/// in, one-line JSON responses out. Each query names a sentence, a
/// domain size, and one or more weight vectors; the server compiles the
/// sentence once, keeps the circuit in a bounded LRU, and answers every
/// weight vector with a linear circuit pass — the compile-once-
/// evaluate-many amortization that makes warm queries orders of
/// magnitude cheaper than a cold `swfomc run`. Liftable FO² sentences
/// compile into a domain-parametric lifted circuit cached under the
/// canonical sentence alone, so requests at *different* domain sizes
/// share one entry; everything else compiles into a fixed-n d-DNNF
/// keyed on (sentence, domain size).
///
/// Request object (one per line; unknown fields are ignored):
///   {"cmd": "query",            -- default; also "stats", "quit",
///                                  "shutdown" (TCP: stop accepting)
///    "id": <any value>,         -- echoed verbatim in the response
///    "sentence": "...",         -- FO sentence (logic/parser.h syntax)
///    "domain": N,               -- domain size
///    "weights": [{"R": ["2", "1"], ...}, ...]
///                               -- zero or more weight vectors (a single
///                                  object is accepted as a batch of one);
///                                  each maps relation name -> [w, wbar],
///                                  exact rationals as strings or numbers
///    "mode": "compile",         -- default; "direct" re-counts per vector
///                                  without compiling (no cache)
///    "budget_ms": N, "max_decisions": N, "max_memory_bytes": N}
///                               -- optional per-request envelope
///
/// Responses carry the echoed "id", "status" ("ok" | "error"), and for
/// queries a "results" array aligned with the weight vectors; compile-
/// mode responses also report "kind" ("lifted" | "grounded") and
/// "cached". A request
/// whose compilation exhausts its budget falls back to one governed
/// direct count per weight vector, so results degrade to certified
/// bounds (or "aborted") per vector instead of failing the request.
/// Malformed lines yield an error *response* — the daemon never dies on
/// bad input.
///
/// HandleRequest is thread-safe: the circuit LRU and the evaluation-
/// arena pool are mutex-guarded, and compilation runs outside the cache
/// lock so a slow compile never blocks warm requests for other circuits.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  struct Reply {
    io::JsonValue json;
    /// The connection should close after sending `json` (cmd "quit" or
    /// "shutdown").
    bool quit = false;
  };

  /// Parses one request line and answers it. Never throws on bad input:
  /// malformed JSON, missing fields, unknown commands, oversized lines,
  /// and evaluation failures all produce a status:"error" reply.
  Reply HandleLine(std::string_view line);

  /// Answers one parsed request object (the JSONL layer sans framing).
  /// Thread-safe; never throws on bad request content.
  io::JsonValue HandleRequest(const io::JsonValue& request);

  /// Reads newline-delimited requests from `in` until EOF or a "quit" /
  /// "shutdown" command, writing one compact JSON response line per
  /// request to `out` (flushed per line — clients pipeline on it).
  /// Blank lines are ignored. Returns 0 (the daemon's clean exit).
  int ServeStream(std::istream& in, std::ostream& out);

  /// TCP mode: listens on `port` (0 = ephemeral), reports the bound port
  /// through `on_listening`, then serves connections sequentially, each
  /// with ServeStream semantics. Returns 0 after a "shutdown" command;
  /// throws std::runtime_error when the socket cannot be opened.
  int ServeTcp(std::uint16_t port,
               const std::function<void(std::uint16_t)>& on_listening = {});

  ServerStats Stats() const;
  const ServerOptions& options() const { return options_; }

  /// The server's live metrics registry — the source behind the `stats`
  /// and `metrics` protocol commands. Exposed so embedders (tests, a
  /// future scrape endpoint) can read instruments directly.
  const obs::MetricsRegistry& metrics() const { return registry_; }

 private:
  struct CacheEntry {
    std::string key;
    std::shared_ptr<const api::CompiledQuery> query;
    std::size_t bytes = 0;
  };

  /// One parsed weight vector: the reweights, or the error that made the
  /// vector unusable (reported per-result, not per-request).
  struct WeightVector {
    std::vector<api::RelationWeights> reweights;
    std::string error;
  };

  io::JsonValue HandleQuery(const io::JsonValue& request);
  io::JsonValue HandleStats(const io::JsonValue* id) const;
  io::JsonValue HandleMetrics(const io::JsonValue* id) const;

  /// LRU probe; moves a hit to the front. Returns nullptr on a miss.
  std::shared_ptr<const api::CompiledQuery> CacheLookup(
      const std::string& key);
  /// Inserts (or refreshes) a compiled circuit and evicts past either
  /// bound. Oversized circuits are dropped, not inserted.
  void CacheInsert(const std::string& key,
                   std::shared_ptr<const api::CompiledQuery> query);

  /// Arena pool: one nnf::Circuit::EvalArena per concurrently evaluating
  /// thread, reused across requests so steady-state serving does not
  /// allocate scratch.
  std::unique_ptr<nnf::Circuit::EvalArena> AcquireArena();
  void ReleaseArena(std::unique_ptr<nnf::Circuit::EvalArena> arena);

  ServerOptions options_;

  /// All server counters/gauges/histograms live here (ServerStats is a
  /// snapshot of these instruments plus the cache levels).
  mutable obs::MetricsRegistry registry_;
  /// Instrument pointers resolved once in the constructor.
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* evicted_bytes = nullptr;
    obs::Gauge* circuits = nullptr;
    obs::Gauge* circuit_bytes = nullptr;
    obs::Gauge* circuit_bytes_peak = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Histogram* warm_usec = nullptr;
    obs::Histogram* cold_usec = nullptr;
    obs::Histogram* batch_size = nullptr;
  };
  Instruments m_;

  /// Fans a request's weight vectors out; with num_threads 1 it has no
  /// workers and the loop runs on the calling thread.
  std::unique_ptr<runtime::ThreadPool> pool_;

  mutable std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  // most recently used at the front
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> index_;
  std::size_t cache_bytes_ = 0;
  std::size_t cache_bytes_peak_ = 0;  // guarded by cache_mutex_

  std::mutex arena_mutex_;
  std::vector<std::unique_ptr<nnf::Circuit::EvalArena>> free_arenas_;

  bool shutdown_requested_ = false;  // set by cmd "shutdown" (TCP loop)
};

}  // namespace swfomc::serve

#endif  // SWFOMC_SERVE_SERVER_H_
