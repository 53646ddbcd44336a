// The SPARQL-protocol endpoint: a small HTTP/1.1 server exposing one
// store. GET /sparql?query=... and POST /sparql (raw
// application/sparql-query or form-encoded) execute against the
// shared engine; each result is serialized in full, then sent as one
// Content-Length body in SPARQL 1.1 JSON or the sp2b binary format
// (protocol.h), negotiated via Accept. Every response, 200 or error,
// goes out through the same writer: one head, one send.
//
// Two serving modes share every path below /sparql:
//   static — the classic one: an immutable finalized store.
//   live   — constructed over a rdf::LiveStore: each request pins the
//     current epoch snapshot (readers never block ingest), POST
//     /update commits an N-Triples batch as the next epoch, and every
//     commit bumps the result cache's data generation so a response
//     computed against an older epoch can never be served after the
//     data changed.
//
// Threading reuses the engine's work-stealing pool: a dispatcher
// thread parks inside exec::ThreadPool::Shared().ParallelFor(workers,
// workers, lane) where every lane is a long-running worker loop
// draining a bounded queue of accepted connections. The accept thread
// is the admission controller — when the queue is full it answers 503
// immediately instead of letting latency collapse under overload.
//
// Outcome taxonomy mirrors the CLI exit codes: parse error -> 400
// ('E'), query timeout -> 408 ('T'), row cap -> 413 ('M'),
// success -> 200 ('+'), admission overflow -> 503.
#ifndef SP2B_NET_SERVER_H_
#define SP2B_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "sp2b/metrics.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/query_cache.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"

namespace sp2b::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;              // 0 binds an ephemeral port (see port())
  int workers = 4;           // concurrent connection-serving lanes
  size_t queue_capacity = 64;  // accepted-but-unclaimed connections; 503 past it
  double timeout_seconds = 0;  // per-query budget (0 = none) -> 408
  uint64_t max_rows = 0;       // per-query materialized-row cap -> 413
  std::string engine = "planned";  // sparql::EngineConfig::ByName level
  int idle_timeout_ms = 30'000;    // keep-alive idle limit per connection
  /// Per-response send budget: a client that cannot absorb its
  /// response within this many ms is reaped (counted in
  /// write_timeouts) so slow readers cannot wedge worker lanes.
  /// 0 disables the deadline.
  int send_timeout_ms = 10'000;
  /// Graceful-drain budget on Stop/SIGTERM: in-flight requests get
  /// this many ms to finish before leftovers are force-closed.
  int drain_timeout_ms = 5'000;
  /// SO_SNDBUF override for accepted sockets (0 = OS default). Small
  /// values make a slow reader hit the send deadline fast — a test
  /// knob, not a production one.
  int send_buffer_bytes = 0;

  /// Result cache: byte-budget LRU of serialized 200 responses keyed
  /// by canonical result key + wire format + row cap; 0 MB turns it
  /// off.
  size_t result_cache_mb = 32;
};

/// Atomic per-request counters plus the shared latency histogram;
/// rendered by GET /stats.
struct ServerMetrics {
  std::atomic<uint64_t> requests{0};     // everything that reached a worker
  std::atomic<uint64_t> ok{0};           // 200
  std::atomic<uint64_t> parse_errors{0};  // 400 from ParseError ('E')
  std::atomic<uint64_t> timeouts{0};      // 408 ('T')
  std::atomic<uint64_t> row_caps{0};      // 413 ('M')
  std::atomic<uint64_t> bad_requests{0};  // other 4xx/500
  std::atomic<uint64_t> admin{0};         // /health + /stats 200s
  std::atomic<uint64_t> updates{0};       // POST /update 200s (live mode)
  std::atomic<uint64_t> overloads{0};     // 503 at admission
  std::atomic<uint64_t> shed{0};          // accept-loop resource shedding
  std::atomic<uint64_t> read_errors{0};   // request never parsed (no request#)
  std::atomic<uint64_t> write_timeouts{0};  // response reaped by send deadline
  std::atomic<uint64_t> write_errors{0};    // peer gone / hard send error
  std::atomic<uint64_t> drain{0};           // connections entering drain
  std::atomic<uint64_t> drain_forced{0};    // still open at drain expiry
  LatencyHistogram latency;  // query execution + serialization, ms

  // Outcome counters move only after the response write succeeds, so
  // the books always balance:
  //   requests == ok + parse_errors + timeouts + row_caps
  //             + bad_requests + admin + updates
  //             + write_timeouts + write_errors

  /// `cache_json` / `ingest_json` (optional) are pre-rendered JSON
  /// objects appended as the "cache" / "ingest" members — the server
  /// passes its cache snapshot, and in live mode the ingest counters.
  std::string StatsJson(const std::string& cache_json = std::string(),
                        const std::string& ingest_json = std::string()) const;
};

class SparqlServer {
 public:
  /// Static mode: serves one immutable finalized store.
  SparqlServer(const rdf::Store& store, const rdf::Dictionary& dict,
               const rdf::Stats* stats, ServerConfig config);
  /// Live mode: serves epoch snapshots of `live` and accepts POST
  /// /update. Installs the commit hook that bumps the result cache's
  /// data generation (and uninstalls it on destruction); `live` must
  /// outlive the server.
  SparqlServer(rdf::LiveStore& live, ServerConfig config);
  ~SparqlServer();

  SparqlServer(const SparqlServer&) = delete;
  SparqlServer& operator=(const SparqlServer&) = delete;

  /// Binds + listens and spawns the accept and dispatcher threads.
  /// Throws HttpError when the address is unavailable.
  void Start();

  /// The bound port (the actual one when config.port was 0). Valid
  /// after Start().
  int port() const { return port_; }

  /// Graceful shutdown, idempotent (also run by the destructor):
  /// stops accepting, lets in-flight requests finish inside
  /// config.drain_timeout_ms (idle keep-alive connections see EOF
  /// immediately), then force-closes the stragglers and joins all
  /// threads.
  void Stop();

  const ServerMetrics& metrics() const { return metrics_; }

  /// Drops every cached result and bumps the result cache's
  /// store generation — call after mutating the store. (The bundled
  /// stores are immutable while served; this is the invalidation hook
  /// for tests and future mutable stores.) No-op when caching is off.
  void InvalidateCaches();

 private:
  void InitCaches();
  /// The "cache" JSON object for /stats (result cache present only).
  std::string CacheStatsJson() const;
  /// The "ingest" JSON object for /stats (live mode only).
  std::string IngestStatsJson() const;
  void AcceptLoop();
  void WorkerLane();
  void ServeConnection(int fd);
  /// One request/response exchange; returns false when the connection
  /// should close (error, Connection: close, or server stop).
  bool HandleRequest(class HttpConnection& conn, const struct HttpRequest& req);

  // Static mode: store_/stats_ are fixed and live_ is null. Live
  // mode: store_/stats_ are null and every request resolves both from
  // the epoch snapshot it pins. dict_ is stable in both (the live
  // store's dictionary supports concurrent readers while growing).
  const rdf::Store* store_;
  const rdf::Dictionary* dict_;
  const rdf::Stats* stats_;
  rdf::LiveStore* live_ = nullptr;
  ServerConfig config_;
  sparql::EngineConfig engine_config_;
  ServerMetrics metrics_;

  // Caching layer (null when disabled). The memo shortcuts raw query
  // text -> result key so a hot result-cache hit skips the parser.
  std::unique_ptr<sparql::ResultCache> result_cache_;
  std::unique_ptr<sparql::QueryTextMemo> query_memo_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};            // lanes exit (post-drain)
  std::atomic<bool> stop_accepting_{false};  // drain phase 1
  std::atomic<bool> draining_{false};        // drain phase 2
  std::atomic<bool> shutdown_started_{false};
  std::thread accept_thread_;
  std::thread dispatcher_thread_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;  // signaled when all work drains
  std::deque<int> pending_;     // accepted fds waiting for a lane
  std::set<int> active_fds_;    // fds a lane is currently serving
};

}  // namespace sp2b::net

#endif  // SP2B_NET_SERVER_H_
