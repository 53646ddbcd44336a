// Chaos tests: the SPARQL endpoint under scripted fault injection
// (sp2b/fault.h). Every case asserts the robustness contract rather
// than a happy path: no hang (a watchdog aborts the binary), no
// crash, every client request reaches a terminal response or a
// client-visible error, non-faulted responses stay byte-identical to
// a clean server, and the /stats outcome counters reconcile exactly
// with what clients observed.
//
// The fault schedule is process-global, so the in-process test
// client's own connect/recv/send calls pass through the same probes
// as the server's. The schedules below are chosen to tolerate that:
// client-side injections surface as HttpError/ConnectError and are
// retried on a fresh connection, exactly like a real client.
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sp2b/fault.h"
#include "sp2b/gen/year_batches.h"
#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "test_util.h"

using namespace sp2b;
using namespace sp2b::net;

namespace {

// Queries used throughout: a benchmark join, an ASK, and a full scan
// whose response is large enough to exercise partial writes.
const char kScan[] = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
const char kAsk[] = "ASK { ?s ?p ?o }";

struct ChaosServer {
  LoadedDocument doc;
  std::unique_ptr<SparqlServer> server;

  explicit ChaosServer(ServerConfig config = {}, uint64_t triples = 1000) {
    // Result caching off: every request must execute and serialize,
    // so injected engine faults cannot hide behind cached bytes.
    config.result_cache_mb = 0;
    doc = GenerateDocument(triples, StoreKind::kIndex, true);
    server = std::make_unique<SparqlServer>(*doc.store, *doc.dict,
                                            doc.stats.get(), config);
    server->Start();
  }
};

/// Every case disarms on exit (including via CheckFailure) so one
/// case's schedule can never leak into the next.
struct DisarmGuard {
  ~DisarmGuard() { fault::Disarm(); }
};

/// The books must always balance, faults or not: every request that
/// reached a worker is accounted by exactly one outcome counter.
void CheckReconciled(const ServerMetrics& m) {
  uint64_t sum = m.ok.load() + m.parse_errors.load() + m.timeouts.load() +
                 m.row_caps.load() + m.bad_requests.load() + m.admin.load() +
                 m.write_timeouts.load() + m.write_errors.load();
  CHECK_EQ(m.requests.load(), sum);
}

/// One GET with client-side retry on a fresh connection. Injected
/// faults on the client half of the loopback pair (its connect, its
/// request send, its response read) surface here as HttpError or
/// ConnectError; a terminal HTTP status is returned as-is.
HttpResponse GetWithRetry(HttpClient& client, const std::string& target,
                          int attempts = 10) {
  for (int i = 0;; ++i) {
    try {
      return client.Get(target);
    } catch (const HttpError&) {
      client.Close();
      if (i + 1 >= attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

/// Outcome counters land *after* the response write returns, so a
/// client can observe its full response a hair before the server
/// books it; settle before sampling the books.
void Settle() { std::this_thread::sleep_for(std::chrono::milliseconds(150)); }

/// Polls an atomic counter until it reaches `want` or ~10s pass.
bool WaitForCounter(const std::atomic<uint64_t>& counter, uint64_t want) {
  for (int i = 0; i < 1000; ++i) {
    if (counter.load() >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return counter.load() >= want;
}

std::string SparqlTarget(const std::string& query) {
  return "/sparql?query=" + PercentEncode(query);
}

}  // namespace

// --------------------------------------------------------------------------
// The schedule grammar itself: valid specs arm deterministically,
// invalid ones are rejected with a message and leave faults disarmed.
// --------------------------------------------------------------------------
SP2B_TEST(fault_grammar) {
  DisarmGuard guard;
  std::string error;

  // nth triggers fire on exact multiples of the hit counter.
  CHECK(fault::Arm("net.send:nth=3:errno=EPIPE", &error));
  CHECK(fault::Armed());
  int injected = 0;
  for (int i = 0; i < 9; ++i) {
    fault::Outcome f = fault::Probe(fault::Site::kNetSend);
    if (f) {
      ++injected;
      CHECK(f.kind == fault::Outcome::Kind::kErrno);
      CHECK_EQ(f.err, EPIPE);
      CHECK_EQ((i + 1) % 3, 0);  // hits 3, 6, 9 only
    }
  }
  CHECK_EQ(injected, 3);
  CHECK_EQ(fault::HitsAt(fault::Site::kNetSend), 9u);
  CHECK_EQ(fault::InjectedAt(fault::Site::kNetSend), 3u);
  CHECK_EQ(fault::InjectedTotal(), 3u);
  // Unlisted sites stay clean.
  CHECK(!fault::Probe(fault::Site::kNetRecv));

  // Probability triggers are a pure function of (seed, site, hit#):
  // re-arming the same spec replays the identical injection pattern.
  auto pattern = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(static_cast<bool>(fault::Probe(fault::Site::kNetRecv)));
    }
    return fired;
  };
  CHECK(fault::Arm("seed=99;net.recv:p=0.25:short=2", &error));
  std::vector<bool> first = pattern();
  CHECK(fault::Arm("seed=99;net.recv:p=0.25:short=2", &error));
  CHECK(first == pattern());
  CHECK(fault::Arm("seed=100;net.recv:p=0.25:short=2", &error));
  CHECK(first != pattern());  // astronomically unlikely to collide

  // Short and delay actions carry their parameter through. delay=0
  // keeps the outcome observable without sleeping.
  CHECK(fault::Arm("net.recv:nth=1:short=7", &error));
  fault::Outcome shorty = fault::Probe(fault::Site::kNetRecv);
  CHECK(shorty.kind == fault::Outcome::Kind::kShort);
  CHECK_EQ(shorty.cap, 7u);
  CHECK(fault::Arm("engine.morsel:nth=1:delay=0", &error));
  CHECK(fault::Probe(fault::Site::kEngineMorsel).kind ==
        fault::Outcome::Kind::kDelay);
  CHECK(fault::Arm("plan.table_grow:nth=1:fail", &error));
  CHECK(fault::Probe(fault::Site::kPlanTableGrow).kind ==
        fault::Outcome::Kind::kFail);

  // Rejections: each bad spec must fail with a message and not arm.
  fault::Disarm();
  for (const char* bad :
       {"bogus.site:nth=1:fail", "net.send:nth=0:fail", "net.send:p=1.5:fail",
        "net.send:p=x:fail", "net.send:nth=1:errno=EBOGUS",
        "net.send:nth=1:short=0", "net.send:nth=1", "net.send:nth=1:wat=3",
        "seed=abc", "net.send:every=2:fail"}) {
    error.clear();
    CHECK(!fault::Arm(bad, &error));
    CHECK(!error.empty());
    CHECK(!fault::Armed());
  }

  // The empty spec (and all-whitespace rules) disarm cleanly.
  CHECK(fault::Arm("net.send:nth=1:fail", &error));
  CHECK(fault::Armed());
  CHECK(fault::Arm(" ; ", &error));
  CHECK(!fault::Armed());
  CHECK(!fault::Probe(fault::Site::kNetSend));
}

// --------------------------------------------------------------------------
// Send-path faults: short writes fragment the stream (harmless) and
// injected EPIPEs kill connections mid-response. Clients retry; every
// 200 body must be byte-identical to the clean server's, and the
// server's books must balance with exactly the 200s clients saw.
// --------------------------------------------------------------------------
SP2B_TEST(send_faults) {
  DisarmGuard guard;
  ChaosServer cs;
  HttpClient client("127.0.0.1", cs.server->port());

  // Reference bodies from the clean server, before arming.
  const std::vector<std::string> queries = {GetQuery("q1").text, kAsk, kScan};
  std::vector<std::string> reference;
  for (const std::string& q : queries) {
    HttpResponse clean = client.Get(SparqlTarget(q));
    CHECK_EQ(clean.status, 200);
    reference.push_back(clean.body);
  }
  Settle();
  const uint64_t base_ok = cs.server->metrics().ok.load();

  std::string error;
  CHECK(fault::Arm(
      "seed=3;net.send:nth=13:errno=EPIPE;net.send:nth=5:short=3", &error));

  uint64_t client_200 = 0;
  for (int i = 0; i < 36; ++i) {
    const size_t qi = static_cast<size_t>(i) % queries.size();
    HttpResponse resp = GetWithRetry(client, SparqlTarget(queries[qi]), 20);
    CHECK_EQ(resp.status, 200);
    CHECK(resp.body == reference[qi]);  // short writes corrupt nothing
    ++client_200;
  }
  fault::Disarm();
  CHECK(fault::InjectedTotal() > 0);  // the schedule actually fired

  Settle();
  const ServerMetrics& m = cs.server->metrics();
  // Every 200 the server recorded after arming was read by the client:
  // a write killed by an injected EPIPE is write_errors, never ok.
  CHECK_EQ(m.ok.load() - base_ok, client_200);
  CheckReconciled(m);
  cs.server->Stop();
}

// --------------------------------------------------------------------------
// Accept-path faults: simulated EMFILE sheds with backoff and
// simulated ECONNABORTED is skipped — in both cases the listener
// survives and later connections are served normally.
// --------------------------------------------------------------------------
SP2B_TEST(accept_faults) {
  DisarmGuard guard;
  ServerConfig config;
  config.workers = 2;
  ChaosServer cs(config, 500);
  HttpClient client("127.0.0.1", cs.server->port());

  HttpResponse clean = client.Get(SparqlTarget(kAsk));
  CHECK_EQ(clean.status, 200);
  const std::string reference = clean.body;
  client.Close();  // force fresh connects below, through the probes

  std::string error;
  CHECK(fault::Arm("seed=7;net.accept:nth=4:errno=EMFILE;"
                   "net.accept:p=0.2:errno=ECONNABORTED",
                   &error));

  for (int i = 0; i < 30; ++i) {
    HttpResponse resp = GetWithRetry(client, SparqlTarget(kAsk), 20);
    CHECK_EQ(resp.status, 200);
    CHECK(resp.body == reference);
    client.Close();  // next request opens a new connection
  }
  fault::Disarm();

  Settle();
  const ServerMetrics& m = cs.server->metrics();
  CHECK(m.shed.load() >= 1u);  // the EMFILE path was exercised
  CHECK(fault::InjectedAt(fault::Site::kNetAccept) >= 1u);
  CheckReconciled(m);

  // The listener is still healthy after the storm.
  HttpResponse after = client.Get("/health");
  CHECK_EQ(after.status, 200);
  cs.server->Stop();
}

// --------------------------------------------------------------------------
// Engine faults: injected morsel latency slows queries without
// corrupting them; injected table-growth failures surface as 413
// (memory outcome) and injected morsel failures as 500 — all three
// leave the server serving and the counters balanced.
// --------------------------------------------------------------------------
SP2B_TEST(engine_faults) {
  DisarmGuard guard;
  // The morsel hook fires per 16K-row parallel morsel or per 1024
  // serial candidates; 5000 triples guarantees the scan reaches it
  // on either path.
  ChaosServer cs({}, 5000);
  HttpClient client("127.0.0.1", cs.server->port());

  HttpResponse clean = client.Get(SparqlTarget(kScan));
  CHECK_EQ(clean.status, 200);
  const std::string reference = clean.body;

  // Phase 1: latency + allocation failure. Every 2000th table charge
  // fails, so a scan (5000 charges) trips it reliably — and only
  // after the 1024-candidate mark, so the morsel hook fires first.
  std::string error;
  CHECK(fault::Arm(
      "seed=11;engine.morsel:p=0.3:delay=2;plan.table_grow:nth=2000:fail",
      &error));
  uint64_t client_200 = 0, client_413 = 0;
  Settle();
  const uint64_t base_ok = cs.server->metrics().ok.load();
  for (int i = 0; i < 12; ++i) {
    HttpResponse resp = client.Get(SparqlTarget(i % 2 == 0 ? kScan : kAsk));
    if (resp.status == 200) {
      ++client_200;
      if (i % 2 == 0) CHECK(resp.body == reference);
    } else {
      CHECK_EQ(resp.status, 413);  // injected exhaustion, nothing else
      ++client_413;
    }
  }
  CHECK(client_413 >= 1u);  // the allocation fault actually fired
  CHECK(fault::HitsAt(fault::Site::kEngineMorsel) >= 1u);

  // Phase 2: hard morsel failure -> 500, still no crash or hang.
  CHECK(fault::Arm("engine.morsel:nth=1:fail", &error));
  const uint64_t base_500 = cs.server->metrics().bad_requests.load();
  HttpResponse broken = client.Get(SparqlTarget(kScan));
  CHECK_EQ(broken.status, 500);
  fault::Disarm();

  Settle();
  const ServerMetrics& m = cs.server->metrics();
  CHECK_EQ(m.ok.load() - base_ok, client_200);
  CHECK_EQ(m.row_caps.load(), client_413);
  CHECK_EQ(m.bad_requests.load() - base_500, 1u);
  CheckReconciled(m);

  // Disarmed, the engine is pristine again: byte-identical scan.
  HttpResponse after = client.Get(SparqlTarget(kScan));
  CHECK_EQ(after.status, 200);
  CHECK(after.body == reference);
  cs.server->Stop();
}

// --------------------------------------------------------------------------
// A client that never reads its (large) response must be reaped by
// the per-response send deadline — freeing its worker lane — while a
// concurrent well-behaved client keeps getting fast answers.
// --------------------------------------------------------------------------
SP2B_TEST(slow_reader_reaped) {
  ServerConfig config;
  config.workers = 2;
  config.send_timeout_ms = 500;
  config.send_buffer_bytes = 8192;  // small SO_SNDBUF: block writes fast
  ChaosServer cs(config, 5000);     // scan response far exceeds buffers
  const int port = cs.server->port();

  // The wedge: request the full scan, then never read a byte.
  HttpConnection wedged(ConnectTcp("127.0.0.1", port));
  wedged.WriteAll("GET " + SparqlTarget(kScan) +
                  " HTTP/1.1\r\nHost: x\r\n\r\n");

  // Meanwhile the other lane must stay responsive the whole time.
  // (Failures are recorded, not thrown: an exception escaping a
  // thread would terminate instead of failing the case.)
  std::atomic<bool> done{false};
  std::atomic<bool> fast_failed{false};
  std::atomic<uint64_t> fast_ok{0};
  double worst_ms = 0;
  std::thread fast([&] {
    try {
      HttpClient client("127.0.0.1", port);
      while (!done.load()) {
        auto t0 = std::chrono::steady_clock::now();
        HttpResponse resp = client.Get(SparqlTarget(kAsk));
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (resp.status != 200) fast_failed.store(true);
        worst_ms = std::max(worst_ms, ms);
        ++fast_ok;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    } catch (const std::exception&) {
      fast_failed.store(true);
    }
  });

  // The reaper must fire within the send budget (plus slack).
  CHECK(WaitForCounter(cs.server->metrics().write_timeouts, 1));
  done.store(true);
  fast.join();

  Settle();
  const ServerMetrics& m = cs.server->metrics();
  CHECK(m.write_timeouts.load() >= 1u);
  CHECK(!fast_failed.load());
  CHECK(fast_ok.load() >= 1u);
  // "Bounded" latency for the healthy client: nowhere near the 10s
  // wait a wedged lane would cause, even on a loaded CI machine.
  CHECK(worst_ms < 5000.0);
  CheckReconciled(m);

  wedged.Close();
  cs.server->Stop();
  // The reaped slot was released: the drain had nothing to force.
  CHECK_EQ(m.drain_forced.load(), 0u);
}

// --------------------------------------------------------------------------
// Graceful drain: Stop() while a (slowed) request is executing must
// let it finish and deliver its full response before shutdown.
// --------------------------------------------------------------------------
SP2B_TEST(drain_completes_inflight) {
  DisarmGuard guard;
  ServerConfig config;
  config.drain_timeout_ms = 10'000;
  // 5000 triples so the scan reaches the morsel fault hook (see
  // engine_faults); its injected delay keeps the request in flight.
  ChaosServer cs(config, 5000);
  const int port = cs.server->port();

  HttpClient warm("127.0.0.1", port);
  HttpResponse clean = warm.Get(SparqlTarget(kScan));
  CHECK_EQ(clean.status, 200);
  const std::string reference = clean.body;
  warm.Close();
  const uint64_t base_requests = cs.server->metrics().requests.load();

  // Stretch execution so the request is still in flight at Stop().
  std::string error;
  CHECK(fault::Arm("engine.morsel:nth=1:delay=500", &error));

  HttpResponse inflight;  // status stays 0 if the exchange failed
  std::thread client_thread([&] {
    try {
      HttpClient client("127.0.0.1", port);
      inflight = client.Get(SparqlTarget(kScan));
    } catch (const std::exception&) {
      // leave inflight.status == 0; asserted below
    }
  });

  // Wait until the request has reached a worker (requests++ happens
  // before execution), then stop mid-query.
  CHECK(WaitForCounter(cs.server->metrics().requests, base_requests + 1));
  cs.server->Stop();
  client_thread.join();
  fault::Disarm();

  // The in-flight request completed across the drain, byte-identical.
  CHECK_EQ(inflight.status, 200);
  CHECK(inflight.body == reference);
  const ServerMetrics& m = cs.server->metrics();
  CHECK(m.drain.load() >= 1u);
  CHECK_EQ(m.drain_forced.load(), 0u);
  CheckReconciled(m);
}

// --------------------------------------------------------------------------
// Drain expiry: a wedged connection that cannot finish inside the
// drain budget is force-closed, and Stop() returns promptly instead
// of waiting on the dead client forever.
// --------------------------------------------------------------------------
SP2B_TEST(drain_force_close) {
  ServerConfig config;
  config.drain_timeout_ms = 300;
  config.send_timeout_ms = 10'000;  // reaper far beyond the drain budget
  config.send_buffer_bytes = 8192;
  ChaosServer cs(config, 5000);

  // Wedge a lane mid-response-write, as in slow_reader_reaped.
  HttpConnection wedged(ConnectTcp("127.0.0.1", cs.server->port()));
  wedged.WriteAll("GET " + SparqlTarget(kScan) +
                  " HTTP/1.1\r\nHost: x\r\n\r\n");
  CHECK(WaitForCounter(cs.server->metrics().requests, 1));
  // Let the query finish and the lane block inside the send.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  auto t0 = std::chrono::steady_clock::now();
  cs.server->Stop();
  double stop_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  const ServerMetrics& m = cs.server->metrics();
  CHECK(m.drain_forced.load() >= 1u);
  // Stop = drain budget + force-close, not the send deadline and
  // certainly not forever.
  CHECK(stop_ms < 8000.0);
  CheckReconciled(m);
  wedged.Close();
}

// --------------------------------------------------------------------------
// Shutdown under load, many times over: each cycle starts a server,
// parks one idle keep-alive connection on a lane, puts one request in
// flight and stops. The lanes that finish those connections go back to
// their wait while Stop is waking them; a wakeup lost there parks a
// lane for good and Stop never returns (the watchdog then fails the
// case). TSan cannot see that race, since the flags are atomic, so
// the repetition is the check.
// --------------------------------------------------------------------------
SP2B_TEST(start_stop_cycles) {
  LoadedDocument doc = GenerateDocument(1000, StoreKind::kIndex, true);
  ServerConfig config;
  config.result_cache_mb = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    SparqlServer server(*doc.store, *doc.dict, doc.stats.get(), config);
    server.Start();
    const ServerMetrics& m = server.metrics();

    HttpClient idle("127.0.0.1", server.port());
    CHECK_EQ(idle.Get("/health").status, 200);

    HttpResponse inflight;  // status stays 0 if the exchange failed
    std::thread client_thread([&] {
      try {
        HttpClient client("127.0.0.1", server.port());
        inflight = client.Get(SparqlTarget(kScan));
      } catch (const std::exception&) {
      }
    });
    CHECK(WaitForCounter(m.requests, 2));
    server.Stop();
    client_thread.join();

    CHECK_EQ(inflight.status, 200);
    CHECK_EQ(m.admin.load(), 1u);
    CHECK_EQ(m.ok.load(), 1u);
    CheckReconciled(m);
  }
}

// --------------------------------------------------------------------------
// A compaction that runs out of memory must not take a live server
// down: the compactor books the failure, queries keep answering from
// the last published snapshot, and the next wake compacts for real.
// --------------------------------------------------------------------------
SP2B_TEST(compaction_failure) {
  DisarmGuard guard;
  gen::GeneratorConfig gen_cfg;
  gen_cfg.triple_limit = 3000;
  const std::vector<gen::YearBatch> batches =
      gen::GenerateYearBatches(gen_cfg);
  CHECK(batches.size() >= 4u);
  rdf::LiveStore::Config live_cfg;
  live_cfg.compact_after_runs = 2;  // the second commit wakes it
  rdf::LiveStore live(live_cfg);
  ServerConfig config;
  config.result_cache_mb = 0;
  SparqlServer server(live, config);
  server.Start();
  HttpClient client("127.0.0.1", server.port());
  auto stat = [&](const char* name) {
    return test::StatsCounter(client.Get("/stats").body, name);
  };
  auto wait_for = [&](const char* name, uint64_t want) {
    for (int i = 0; i < 1000 && stat(name) < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return stat(name);
  };
  // The answer a bulk load of batches [0, last] gives, byte for byte.
  const std::string query =
      "SELECT ?s ?title WHERE { ?s dc:title ?title } ORDER BY ?s";
  auto expected = [&](size_t last) {
    std::string text;
    for (size_t i = 0; i <= last; ++i) text += batches[i].ntriples;
    rdf::Dictionary dict;
    rdf::IndexStore store;
    std::istringstream in(text);
    rdf::ParseNTriples(in, dict, store);
    store.Finalize();
    sparql::Engine engine(store, dict, sparql::EngineConfig::Planned());
    std::string body;
    SerializeResults(engine.Execute(sparql::Parse(query, DefaultPrefixes())),
                     dict, ResultFormat::kJson,
                     [&](std::string_view piece) { body += piece; });
    return body;
  };
  auto commit = [&](size_t i) {
    HttpResponse r = client.Post("/update", "application/n-triples",
                                 batches[i].ntriples);
    CHECK_EQ(r.status, 200);
  };

  CHECK(fault::Arm("live.compact:nth=1:fail"));
  commit(0);
  commit(1);
  CHECK_EQ(wait_for("compaction_failures", 1), uint64_t{1});
  CHECK_EQ(stat("compactions"), uint64_t{0});
  CHECK_EQ(stat("delta_runs"), uint64_t{2});  // last snapshot kept
  HttpResponse during = client.Get(SparqlTarget(query));
  CHECK_EQ(during.status, 200);
  CHECK(during.body == expected(1));

  fault::Disarm();
  for (size_t i = 2; i < batches.size(); ++i) commit(i);
  CHECK(wait_for("compactions", 1) >= 1u);
  CHECK_EQ(stat("compaction_failures"), uint64_t{1});
  HttpResponse after = client.Get(SparqlTarget(query));
  CHECK_EQ(after.status, 200);
  CHECK(after.body == expected(batches.size() - 1));
  server.Stop();
  // Every request succeeded: the failed compaction never surfaced.
  const ServerMetrics& m = server.metrics();
  CHECK_EQ(m.requests.load(), m.ok.load() + m.admin.load() + m.updates.load());
}

// A scheduling or drain regression hangs rather than fails; the
// watchdog turns a hang into a loud, fast exit so CTest's TIMEOUT is
// the backstop, not the norm.
int main(int argc, char** argv) {
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(150));
    std::fprintf(stderr, "[FAIL] chaos watchdog: test hung, aborting\n");
    std::_Exit(2);
  }).detach();
  return sp2b::test::RunTests(argc, argv);
}
