#include "sp2b/net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "sp2b/fault.h"
#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/queries.h"
#include "sp2b/report.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/ntriples.h"

namespace sp2b::net {

namespace {

std::string CounterJson(const char* name, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu", name,
                static_cast<unsigned long long>(v));
  return buf;
}

/// The one response writer: a Content-Length head and the body in a
/// single send, for 200s and errors alike.
void WriteSimple(HttpConnection& conn, int status, const char* content_type,
                 const std::string& body, bool keep_alive) {
  std::string head = FormatResponseHead(
      status, {{"Content-Type", content_type},
               {"Content-Length", std::to_string(body.size())},
               {"Connection", keep_alive ? "keep-alive" : "close"}});
  conn.WriteAll(head + body);
}

void WriteError(HttpConnection& conn, int status, const std::string& message,
                bool keep_alive) {
  WriteSimple(conn, status, kContentTypeJson,
              "{\"error\": \"" + JsonEscape(message) + "\"}\n", keep_alive);
}

void SetSockTimeout(int fd, int opt, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv));
}

}  // namespace

std::string ServerMetrics::StatsJson(const std::string& cache_json,
                                     const std::string& ingest_json) const {
  std::string out = "{";
  out += CounterJson("requests", requests.load()) + ", ";
  out += CounterJson("ok", ok.load()) + ", ";
  out += CounterJson("parse_errors", parse_errors.load()) + ", ";
  out += CounterJson("timeouts", timeouts.load()) + ", ";
  out += CounterJson("row_caps", row_caps.load()) + ", ";
  out += CounterJson("bad_requests", bad_requests.load()) + ", ";
  out += CounterJson("admin", admin.load()) + ", ";
  out += CounterJson("updates", updates.load()) + ", ";
  out += CounterJson("overloads", overloads.load()) + ", ";
  out += CounterJson("shed", shed.load()) + ", ";
  out += CounterJson("read_errors", read_errors.load()) + ", ";
  out += CounterJson("write_timeouts", write_timeouts.load()) + ", ";
  out += CounterJson("write_errors", write_errors.load()) + ", ";
  out += CounterJson("drain", drain.load()) + ", ";
  out += CounterJson("drain_forced", drain_forced.load()) + ", ";
  out += CounterJson("faults_injected", fault::InjectedTotal()) + ", ";
  if (!cache_json.empty()) out += "\"cache\": " + cache_json + ", ";
  if (!ingest_json.empty()) out += "\"ingest\": " + ingest_json + ", ";
  // JsonDouble, not printf %.3f: a comma-decimal LC_NUMERIC would
  // render "1,5" and corrupt the JSON body.
  out += "\"latency\": {" + CounterJson("count", latency.count()) + ", ";
  out += "\"p50_ms\": " + JsonDouble(latency.PercentileMs(0.50), 3) + ", ";
  out += "\"p95_ms\": " + JsonDouble(latency.PercentileMs(0.95), 3) + ", ";
  out += "\"p99_ms\": " + JsonDouble(latency.PercentileMs(0.99), 3) + ", ";
  out += "\"mean_ms\": " + JsonDouble(latency.MeanMs(), 3) + ", ";
  out += "\"buckets\": ";
  out += latency.BucketsJson();
  out += "}}\n";
  return out;
}

SparqlServer::SparqlServer(const rdf::Store& store,
                           const rdf::Dictionary& dict,
                           const rdf::Stats* stats, ServerConfig config)
    : store_(&store),
      dict_(&dict),
      stats_(stats),
      config_(std::move(config)),
      engine_config_(sparql::EngineConfig::ByName(config_.engine)) {
  InitCaches();
}

SparqlServer::SparqlServer(rdf::LiveStore& live, ServerConfig config)
    : store_(nullptr),
      dict_(&live.dict()),
      stats_(nullptr),
      live_(&live),
      config_(std::move(config)),
      engine_config_(sparql::EngineConfig::ByName(config_.engine)) {
  InitCaches();
  // Every data commit advances the result cache's store generation.
  // Correctness does not ride on this hook's timing — entries carry
  // the data generation they were computed at and only hit when it
  // matches the requester's pinned one — the bump just drops the now-
  // dead entries promptly and keeps /stats' store_generation moving.
  if (result_cache_ != nullptr) {
    live_->SetCommitHook(
        [cache = result_cache_.get()](uint64_t) { cache->BumpGeneration(); });
  }
}

void SparqlServer::InitCaches() {
  if (config_.result_cache_mb > 0) {
    result_cache_ = std::make_unique<sparql::ResultCache>(
        config_.result_cache_mb * size_t{1024 * 1024});
    query_memo_ = std::make_unique<sparql::QueryTextMemo>(1024);
  }
}

std::string SparqlServer::CacheStatsJson() const {
  sparql::ResultCache::Stats rs = result_cache_->stats();
  std::string out = "{";
  out += CounterJson("result_hits", rs.hits) + ", ";
  out += CounterJson("result_misses", rs.misses) + ", ";
  out += CounterJson("result_evictions", rs.evictions) + ", ";
  out += CounterJson("result_entries", rs.entries) + ", ";
  out += CounterJson("result_bytes", rs.bytes) + ", ";
  out += CounterJson("store_generation", rs.generation);
  out += "}";
  return out;
}

std::string SparqlServer::IngestStatsJson() const {
  rdf::IngestStats is = live_->ingest_stats();
  std::string out = "{";
  out += CounterJson("batches", is.batches) + ", ";
  out += CounterJson("triples_added", is.triples_added) + ", ";
  out += CounterJson("triples_parsed", is.triples_parsed) + ", ";
  out += CounterJson("epochs", is.epochs) + ", ";
  out += CounterJson("generation", is.generation) + ", ";
  out += CounterJson("compactions", is.compactions) + ", ";
  out += CounterJson("compaction_failures", is.compaction_failures) + ", ";
  out += CounterJson("delta_runs", is.delta_runs) + ", ";
  out += CounterJson("delta_triples", is.delta_triples) + ", ";
  out += CounterJson("pinned_snapshots", is.pinned_snapshots) + ", ";
  out += CounterJson("pinned_high_water", is.pinned_high_water);
  out += "}";
  return out;
}

SparqlServer::~SparqlServer() {
  Stop();
  if (live_ != nullptr) live_->SetCommitHook(nullptr);
}

void SparqlServer::Start() {
  EnsureSigpipeSuppressed();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw HttpError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw HttpError("bad listen address " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw HttpError("bind to " + config_.host + " failed: " +
                    std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) throw HttpError("listen() failed");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (int i = 0; i < config_.workers; ++i) {
    lanes_.emplace_back([this] { WorkerLane(); });
  }
}

void SparqlServer::Stop() {
  if (draining_.exchange(true)) return;

  // Stop accepting. Shutting the listener down wakes a blocked
  // accept(); the loop sees draining_ and exits. The fd is closed only
  // after the join: AcceptLoop reads listen_fd_, and a number closed
  // under it could be reused and accept()ed.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Drain. SHUT_RD gives idle keep-alive readers immediate EOF while
  // letting in-flight responses keep writing (already-buffered request
  // bytes stay readable); wait for the lanes to finish everything
  // inside the drain budget, then force-close whatever outlived it.
  // stop_ is set under mu_ so no lane can check its wait predicate
  // between the store and the notify and then sleep through it.
  {
    std::unique_lock<std::mutex> lock(mu_);
    metrics_.drain.fetch_add(active_fds_.size() + pending_.size());
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RD);
    for (int fd : pending_) ::shutdown(fd, SHUT_RD);
    cv_.notify_all();
    drained_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.drain_timeout_ms),
        [this] { return active_fds_.empty() && pending_.empty(); });

    size_t leftovers = active_fds_.size() + pending_.size();
    if (leftovers > 0) metrics_.drain_forced.fetch_add(leftovers);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
    stop_.store(true);
    cv_.notify_all();
  }
  for (std::thread& lane : lanes_) lane.join();
  lanes_.clear();
}

void SparqlServer::AcceptLoop() {
  // Transient-error backoff: resource exhaustion (EMFILE & friends)
  // sheds with exponentially spaced retries instead of killing the
  // listener; anything unrecognized logs once and keeps going.
  int backoff_ms = 10;
  bool warned_resource = false;
  bool warned_other = false;
  auto backoff = [&](int ms) {
    if (draining_.load()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  while (!draining_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    int err = fd < 0 ? errno : 0;
    if (fault::Outcome f = fault::Probe(fault::Site::kNetAccept)) {
      // Simulate the accept itself failing: the real connection (if
      // any) is dropped without a byte, like a kernel-refused one.
      if (f.kind == fault::Outcome::Kind::kErrno ||
          f.kind == fault::Outcome::Kind::kFail) {
        if (fd >= 0) ::close(fd);
        fd = -1;
        err = f.kind == fault::Outcome::Kind::kErrno ? f.err : ECONNABORTED;
      }
    }
    if (fd < 0) {
      if (draining_.load()) return;
      if (err == EINTR || err == ECONNABORTED) continue;  // transient
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        metrics_.shed.fetch_add(1);
        if (!warned_resource) {
          std::fprintf(stderr,
                       "sp2b_serve: accept: %s; shedding with backoff\n",
                       std::strerror(err));
          warned_resource = true;
        }
        backoff(backoff_ms);
        backoff_ms = std::min(backoff_ms * 2, 200);
        continue;
      }
      if (!warned_other) {
        std::fprintf(stderr, "sp2b_serve: accept: %s; continuing\n",
                     std::strerror(err));
        warned_other = true;
      }
      backoff(10);
      continue;
    }
    backoff_ms = 10;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetSockTimeout(fd, SO_RCVTIMEO, config_.idle_timeout_ms);
    if (config_.send_timeout_ms > 0) {
      // Coarse send ticks (<= 500ms) so a blocking send on a stuffed
      // socket returns periodically and WriteAll can check its
      // per-response deadline.
      SetSockTimeout(fd, SO_SNDTIMEO, std::min(config_.send_timeout_ms, 500));
    }
    if (config_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.send_buffer_bytes,
                   sizeof(config_.send_buffer_bytes));
    }

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < config_.queue_capacity) {
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      cv_.notify_one();
      continue;
    }
    // Admission control: the queue is full — shed load now with an
    // immediate 503 instead of queueing unbounded latency.
    metrics_.overloads.fetch_add(1);
    HttpConnection conn(fd);
    try {
      WriteError(conn, 503, "server overloaded", /*keep_alive=*/false);
    } catch (const HttpError&) {
    }
  }
}

void SparqlServer::WorkerLane() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_.load() || !pending_.empty(); });
      if (stop_.load()) return;
      fd = pending_.front();
      pending_.pop_front();
      active_fds_.insert(fd);
    }
    ServeConnection(fd);
    std::lock_guard<std::mutex> lock(mu_);
    active_fds_.erase(fd);
    if (active_fds_.empty() && pending_.empty()) drained_cv_.notify_all();
  }
}

void SparqlServer::ServeConnection(int fd) {
  HttpConnection conn(fd);
  conn.SetSendTimeout(config_.send_timeout_ms);
  while (!stop_.load()) {
    HttpRequest req;
    HttpConnection::ReadStatus status;
    try {
      status = conn.ReadRequest(&req);
    } catch (const HttpError& e) {
      // The request never parsed (malformed head, truncated body,
      // mid-request disconnect): no `requests` increment happened, so
      // this is accounted separately from the request outcomes.
      metrics_.read_errors.fetch_add(1);
      conn.ArmSendDeadline();
      try {
        WriteError(conn, 400, e.what(), /*keep_alive=*/false);
      } catch (const HttpError&) {
      }
      return;
    }
    if (status != HttpConnection::ReadStatus::kOk) return;  // EOF / idle
    bool keep_alive = false;
    try {
      keep_alive = HandleRequest(conn, req);
    } catch (const SendTimeout&) {
      metrics_.write_timeouts.fetch_add(1);  // slow reader reaped
      return;
    } catch (const HttpError&) {
      metrics_.write_errors.fetch_add(1);  // peer went away mid-write
      return;
    }
    if (!keep_alive) return;
  }
}

bool SparqlServer::HandleRequest(HttpConnection& conn,
                                 const HttpRequest& req) {
  metrics_.requests.fetch_add(1);
  conn.ArmSendDeadline();  // fresh per-response send budget
  const std::string* conn_header = req.FindHeader("connection");
  bool keep_alive =
      conn_header == nullptr || conn_header->find("close") == std::string::npos;
  // Once shutdown starts every response closes its connection, so
  // in-flight work finishes but nothing new rides the keep-alive.
  if (draining_.load()) keep_alive = false;

  // Outcome counters increment only after the response write returned,
  // so a failed/reaped write is accounted once (as write_timeouts /
  // write_errors in ServeConnection) and `requests` always reconciles
  // with the sum of the outcome counters.
  std::string_view path = req.Path();
  if (path == "/health") {
    WriteSimple(conn, 200, "text/plain", "ok\n", keep_alive);
    metrics_.admin.fetch_add(1);
    return keep_alive;
  }
  if (path == "/stats") {
    std::string cache_json;
    if (result_cache_ != nullptr) cache_json = CacheStatsJson();
    std::string ingest_json;
    if (live_ != nullptr) ingest_json = IngestStatsJson();
    WriteSimple(conn, 200, kContentTypeJson,
                metrics_.StatsJson(cache_json, ingest_json), keep_alive);
    metrics_.admin.fetch_add(1);
    return keep_alive;
  }
  if (path == "/update") {
    if (live_ == nullptr) {
      WriteError(conn, 404, "updates not enabled (static store)", keep_alive);
      metrics_.bad_requests.fetch_add(1);
      return keep_alive;
    }
    if (req.method != "POST") {
      WriteError(conn, 405, "use POST for /update", keep_alive);
      metrics_.bad_requests.fetch_add(1);
      return keep_alive;
    }
    try {
      rdf::LiveStore::CommitResult committed =
          live_->IngestNTriples(req.body);
      char body[192];
      std::snprintf(body, sizeof(body),
                    "{\"parsed\": %llu, \"added\": %llu, \"epoch\": %llu, "
                    "\"generation\": %llu}\n",
                    static_cast<unsigned long long>(committed.parsed),
                    static_cast<unsigned long long>(committed.added),
                    static_cast<unsigned long long>(committed.epoch),
                    static_cast<unsigned long long>(committed.generation));
      WriteSimple(conn, 200, kContentTypeJson, body, keep_alive);
      metrics_.updates.fetch_add(1);
    } catch (const rdf::NTriplesError& e) {
      WriteError(conn, 400, std::string("bad N-Triples: ") + e.what(),
                 keep_alive);
      metrics_.bad_requests.fetch_add(1);
    }
    return keep_alive;
  }
  if (path != "/sparql" && path != "/") {
    WriteError(conn, 404, "no such endpoint", keep_alive);
    metrics_.bad_requests.fetch_add(1);
    return keep_alive;
  }

  // Resolve the store this request executes against. Live mode pins
  // the current epoch here — one consistent snapshot for planning,
  // execution, and the cache-generation tag, held (and its
  // memory kept alive) until the response is written.
  std::shared_ptr<const rdf::SnapshotStore> pinned;
  const rdf::Store* store = store_;
  const rdf::Stats* stats = stats_;
  uint64_t data_generation = 0;
  if (live_ != nullptr) {
    pinned = live_->Pin();
    store = pinned.get();
    stats = pinned->stats();
    data_generation = pinned->generation();
  }

  // Assemble the query text plus per-request limit overrides from the
  // SPARQL-protocol request forms.
  std::string query_text;
  bool have_query = false;
  double timeout_seconds = config_.timeout_seconds;
  uint64_t max_rows = config_.max_rows;
  auto absorb_params =
      [&](const std::vector<std::pair<std::string, std::string>>& params)
      -> const char* {
    for (const auto& [key, value] : params) {
      if (key == "query") {
        query_text = value;
        have_query = true;
      } else if (key == "timeout") {
        auto secs = ParsePositiveSeconds(value);
        if (!secs) return "malformed timeout parameter";
        timeout_seconds = *secs;
      } else if (key == "max-rows") {
        auto rows = ParsePositiveCount(value);
        if (!rows) return "malformed max-rows parameter";
        max_rows = *rows;
      }
    }
    return nullptr;
  };

  try {
    if (req.method == "GET") {
      if (const char* err = absorb_params(ParseFormEncoded(req.QueryString()))) {
        WriteError(conn, 400, err, keep_alive);
        metrics_.bad_requests.fetch_add(1);
        return keep_alive;
      }
    } else if (req.method == "POST") {
      const std::string* ct = req.FindHeader("content-type");
      std::string_view type = ct ? std::string_view(*ct) : std::string_view();
      type = type.substr(0, type.find(';'));
      if (const char* err = absorb_params(ParseFormEncoded(req.QueryString()))) {
        WriteError(conn, 400, err, keep_alive);
        metrics_.bad_requests.fetch_add(1);
        return keep_alive;
      }
      if (type == kContentTypeSparqlQuery) {
        query_text = req.body;
        have_query = true;
      } else if (type == kContentTypeForm) {
        if (const char* err = absorb_params(ParseFormEncoded(req.body))) {
          WriteError(conn, 400, err, keep_alive);
          metrics_.bad_requests.fetch_add(1);
          return keep_alive;
        }
      } else {
        WriteError(conn, 415, "unsupported content type", keep_alive);
        metrics_.bad_requests.fetch_add(1);
        return keep_alive;
      }
    } else {
      WriteError(conn, 405, "use GET or POST", keep_alive);
      metrics_.bad_requests.fetch_add(1);
      return keep_alive;
    }
  } catch (const HttpError& e) {  // malformed percent-encoding
    WriteError(conn, 400, e.what(), keep_alive);
    metrics_.bad_requests.fetch_add(1);
    return keep_alive;
  }
  if (!have_query) {
    WriteError(conn, 400, "missing query parameter", keep_alive);
    metrics_.bad_requests.fetch_add(1);
    return keep_alive;
  }

  ResultFormat format = ResultFormat::kJson;
  if (const std::string* accept = req.FindHeader("accept")) {
    if (accept->find(kContentTypeBinary) != std::string::npos) {
      format = ResultFormat::kBinary;
    }
  }

  auto t0 = std::chrono::steady_clock::now();

  // Wire format and row cap both change the bytes a request may
  // legally receive, so they join the canonical result key.
  auto cache_key = [&](const std::string& result_key) {
    std::string key = result_key;
    key += '\x1f';
    key += format == ResultFormat::kBinary ? 'B' : 'J';
    key += '\x1f';
    key += std::to_string(max_rows);
    return key;
  };
  auto serve_body = [&](const std::string& body) -> bool {
    WriteSimple(conn, 200, ContentTypeFor(format), body, keep_alive);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    metrics_.latency.Record(ms);
    metrics_.ok.fetch_add(1);
    return keep_alive;
  };

  // Fast path: the memo has seen this exact query text, so its result
  // key is known without parsing — a result-cache hit then skips
  // parse, plan, and execution entirely. The result cache counts hits
  // and misses inside Get, so each request calls it at most once
  // (either here or after canonicalization below, never both).
  std::optional<std::string> memo_key;
  if (result_cache_ != nullptr) {
    memo_key = query_memo_->Get(query_text);
    if (memo_key) {
      if (auto body =
              result_cache_->Get(cache_key(*memo_key), data_generation)) {
        return serve_body(*body);
      }
    }
  }

  // Execute and serialize fully before the first response byte:
  // timeout / row-cap / parse errors all surface while the status line
  // is still ours to choose.
  sparql::QueryResult result;
  std::string result_key;  // canonical; empty when caching is off
  try {
    sparql::AstQuery ast = sparql::Parse(query_text, DefaultPrefixes());
    sparql::QueryLimits limits;
    if (timeout_seconds > 0) {
      limits = sparql::QueryLimits::WithTimeout(std::chrono::milliseconds(
          static_cast<int64_t>(timeout_seconds * 1000)));
    }
    limits.max_rows = max_rows;

    if (memo_key) {
      result_key = std::move(*memo_key);
    } else if (result_cache_ != nullptr) {
      result_key = sparql::Canonicalize(ast).result_key;
      if (auto body =
              result_cache_->Get(cache_key(result_key), data_generation)) {
        query_memo_->Put(query_text, result_key);
        return serve_body(*body);
      }
    }

    sparql::Engine engine(*store, *dict_, engine_config_, stats);
    result = engine.Execute(ast, limits);
  } catch (const sparql::ParseError& e) {
    WriteError(conn, 400, std::string("parse error: ") + e.what(), keep_alive);
    metrics_.parse_errors.fetch_add(1);
    return keep_alive;
  } catch (const sparql::QueryTimeout&) {
    WriteError(conn, 408, "query timed out", keep_alive);
    metrics_.timeouts.fetch_add(1);
    return keep_alive;
  } catch (const sparql::QueryMemoryExhausted&) {
    WriteError(conn, 413, "query exceeded the row limit", keep_alive);
    metrics_.row_caps.fetch_add(1);
    return keep_alive;
  } catch (const HttpError&) {
    throw;  // a failed write inside the engine block is not a 500
  } catch (const std::exception& e) {
    WriteError(conn, 500, e.what(), keep_alive);
    metrics_.bad_requests.fetch_add(1);
    return keep_alive;
  }

  // Serialize into one body so the exact bytes can be cached; serve
  // the cached copy so a replay is byte-identical by construction.
  // Over-budget bodies pass through uncached.
  std::string body;
  SerializeResults(result, *dict_, format,
                   [&](std::string_view piece) { body.append(piece); });
  if (result_cache_ == nullptr) return serve_body(body);
  // Tagged with the generation this request executed at: if a commit
  // landed while we computed, the entry is already stale and the tag
  // keeps any later (higher-generation) reader off it.
  auto shared = result_cache_->Put(cache_key(result_key), std::move(body),
                                   data_generation);
  query_memo_->Put(query_text, result_key);
  return serve_body(*shared);
}

}  // namespace sp2b::net
