// End-to-end SPARQL endpoint test: spawns the real sp2b_serve binary
// on loopback (ephemeral port, discovered through --port-file), then
// checks that every benchmark query served over HTTP — in both the
// JSON and the binary result format — decodes to exactly the result
// grid the in-process planned engine produces on the same generated
// document (seed 4711, so the two stores are identical). Also
// exercises the full wire outcome taxonomy: 400 parse error, 408
// timeout, 413 row cap, and 503 admission overflow, plus clean
// SIGTERM shutdown.
//
// Usage: test_http <path-to-sp2b_serve>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "test_util.h"

using namespace sp2b;
using namespace sp2b::net;

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("[ OK ] %s\n", what.c_str());
  } else {
    ++failures;
    std::printf("[FAIL] %s\n", what.c_str());
  }
}

struct ServerProcess {
  pid_t pid = -1;
  int port = 0;
  std::string port_file;

  /// Spawns sp2b_serve with the given extra args; false when the
  /// port never materialized.
  bool Spawn(const char* binary, const std::vector<std::string>& extra) {
    char name[64];
    std::snprintf(name, sizeof(name), "test_http_port.%d.%d.txt", getpid(),
                  spawn_counter_++);
    port_file = name;
    std::remove(port_file.c_str());

    std::vector<std::string> args = {binary, "--port-file", port_file};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // Quiet the child's progress chatter in test logs.
      FILE* sink = std::freopen("/dev/null", "w", stderr);
      (void)sink;
      execv(binary, argv.data());
      _exit(127);
    }
    for (int i = 0; i < 300; ++i) {  // up to 30s for generation + bind
      if (FILE* f = std::fopen(port_file.c_str(), "r")) {
        if (std::fscanf(f, "%d", &port) == 1 && port > 0) {
          std::fclose(f);
          return true;
        }
        std::fclose(f);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
  }

  /// SIGTERM + waitpid; returns the exit code (-1 on abnormal death).
  int Terminate() {
    if (pid < 0) return -1;
    kill(pid, SIGTERM);
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
    std::remove(port_file.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~ServerProcess() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
      std::remove(port_file.c_str());
    }
  }

  static int spawn_counter_;
};

int ServerProcess::spawn_counter_ = 0;

std::vector<std::string> ReferenceGrid(const sparql::QueryResult& result,
                                       const rdf::Dictionary& dict) {
  std::vector<std::string> grid;
  if (result.is_ask) {
    grid.push_back(result.ask_value ? "yes" : "no");
    return grid;
  }
  for (size_t i = 0; i < result.rows.size(); ++i) {
    grid.push_back(result.RowToString(i, dict));
  }
  std::sort(grid.begin(), grid.end());
  return grid;
}

int StatusOf(HttpClient& client, const std::string& target) {
  return client.Get(target).status;
}

/// Reads one counter out of the /stats JSON (0 when absent).
uint64_t StatsCounter(HttpClient& client, const std::string& name) {
  HttpResponse resp = client.Get("/stats");
  return resp.status == 200 ? test::StatsCounter(resp.body, name) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: test_http <sp2b_serve>\n");
    return 1;
  }
  const char* serve = argv[1];
  constexpr uint64_t kTriples = 5000;

  ServerProcess server;
  if (!server.Spawn(serve, {"--triples", std::to_string(kTriples),
                            "--workers", "4"})) {
    std::printf("[FAIL] sp2b_serve did not start\n");
    return 1;
  }
  std::printf("endpoint on 127.0.0.1:%d\n", server.port);

  // The same document the server generated (same seed), queried by
  // the same engine level, is the byte-level reference.
  LoadedDocument doc = GenerateDocument(kTriples, StoreKind::kIndex, true);
  sparql::Engine engine(*doc.store, *doc.dict,
                        sparql::EngineConfig::Planned(), doc.stats.get());

  HttpClient client("127.0.0.1", server.port);
  std::vector<BenchmarkQuery> queries = AllQueries();
  for (const BenchmarkQuery& q : AggregateQueries()) queries.push_back(q);

  // Outcome taxonomy over the wire — before the grid sweep below
  // warms the result cache, so the heavy query actually executes
  // (error outcomes are never cached).
  const std::string heavy = PercentEncode(GetQuery("q4").text);
  Check(StatusOf(client, "/sparql?query=NOT%20SPARQL") == 400,
        "malformed query -> 400");
  Check(StatusOf(client, "/sparql?query=" + heavy + "&timeout=0.000001") ==
            408,
        "microsecond budget -> 408");
  Check(StatusOf(client, "/sparql?query=" + heavy + "&max-rows=10") == 413,
        "10-row cap on q4 -> 413");

  for (const BenchmarkQuery& q : queries) {
    std::vector<std::string> expected = ReferenceGrid(
        engine.Execute(sparql::Parse(q.text, DefaultPrefixes())), *doc.dict);
    for (ResultFormat format : {ResultFormat::kJson, ResultFormat::kBinary}) {
      const char* fmt = format == ResultFormat::kJson ? "json" : "binary";
      std::vector<std::pair<std::string, std::string>> headers;
      if (format == ResultFormat::kBinary) {
        headers.emplace_back("Accept", kContentTypeBinary);
      }
      HttpResponse resp =
          client.Get("/sparql?query=" + PercentEncode(q.text), headers);
      if (resp.status != 200) {
        Check(false, q.id + " (" + fmt + "): status 200");
        continue;
      }
      std::vector<std::string> got;
      try {
        got = SortedWireGrid(DecodeResults(resp.body, format));
      } catch (const std::exception& e) {
        Check(false, q.id + " (" + fmt + "): decode: " + e.what());
        continue;
      }
      Check(got == expected, q.id + " (" + fmt + "): " +
                                 std::to_string(expected.size()) +
                                 " rows identical to in-process engine");
    }
  }

  // Every 200 is one Content-Length body (no chunked framing), and the
  // connection stays usable: a second request on the same keep-alive
  // socket is answered.
  {
    HttpConnection conn(ConnectTcp("127.0.0.1", server.port));
    for (const char* qid : {"q1", "q2"}) {
      conn.WriteAll("GET /sparql?query=" + PercentEncode(GetQuery(qid).text) +
                    " HTTP/1.1\r\nHost: x\r\n\r\n");
      HttpResponse resp;
      bool read = conn.ReadResponse(&resp) == HttpConnection::ReadStatus::kOk;
      const std::string* length = resp.FindHeader("content-length");
      Check(read && resp.status == 200 && length != nullptr &&
                *length == std::to_string(resp.body.size()) &&
                resp.FindHeader("transfer-encoding") == nullptr,
            std::string(qid) +
                " on one keep-alive connection: 200, Content-Length = body "
                "size, no Transfer-Encoding");
    }
  }

  // The grid sweep above served q4 twice, so it is in the result
  // cache now; a cached response is within any time budget, so the
  // same microsecond-budget request succeeds from cache.
  Check(StatusOf(client, "/sparql?query=" + heavy + "&timeout=0.000001") ==
            200,
        "microsecond budget on cached q4 -> 200 from cache");
  Check(StatusOf(client, "/stats") == 200, "/stats serves");
  Check(server.Terminate() == 0, "clean shutdown on SIGTERM");

  // 503 admission control: one worker held by an idle keep-alive
  // connection, a queue of one already full, next connection shed.
  ServerProcess small;
  if (!small.Spawn(serve, {"--triples", "100", "--workers", "1", "--queue",
                           "1"})) {
    std::printf("[FAIL] small sp2b_serve did not start\n");
    return 1;
  }
  {
    HttpConnection held(ConnectTcp("127.0.0.1", small.port));
    held.WriteAll("GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
    HttpResponse health;
    Check(held.ReadResponse(&health) == HttpConnection::ReadStatus::kOk &&
              health.status == 200,
          "worker occupied via keep-alive");
    HttpConnection queued(ConnectTcp("127.0.0.1", small.port));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    HttpConnection shed(ConnectTcp("127.0.0.1", small.port));
    HttpResponse overflow;
    Check(shed.ReadResponse(&overflow) == HttpConnection::ReadStatus::kOk &&
              overflow.status == 503,
          "queue overflow -> 503");
  }
  Check(small.Terminate() == 0, "small server clean shutdown");

  // Overload hardening: a client that never reads its large response
  // must be reaped by the per-response send deadline while the other
  // lane keeps serving, and a client that disconnects mid-body must
  // be accounted as a read error without wedging anything.
  ServerProcess slow;
  if (!slow.Spawn(serve, {"--triples", "5000", "--workers", "2",
                          "--send-timeout-ms", "500", "--send-buffer",
                          "8192"})) {
    std::printf("[FAIL] slow-reader sp2b_serve did not start\n");
    return 1;
  }
  {
    const std::string scan = PercentEncode("SELECT ?s ?p ?o WHERE { ?s ?p ?o }");
    // The wedge: ask for the full scan, then never read a byte. The
    // response cannot fit the shrunken socket buffers, so the lane
    // blocks writing until the send deadline reaps it.
    HttpConnection wedged(ConnectTcp("127.0.0.1", slow.port));
    wedged.WriteAll("GET /sparql?query=" + scan +
                    " HTTP/1.1\r\nHost: x\r\n\r\n");

    HttpClient probe("127.0.0.1", slow.port);
    bool fast_ok = true;
    uint64_t reaped = 0;
    for (int i = 0; i < 100 && reaped == 0; ++i) {
      if (probe.Get("/health").status != 200) fast_ok = false;
      reaped = StatsCounter(probe, "write_timeouts");
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    Check(reaped >= 1, "slow reader reaped by send deadline");
    Check(fast_ok, "healthy client served while slow reader wedged");

    {
      HttpConnection truncated(ConnectTcp("127.0.0.1", slow.port));
      truncated.WriteAll(
          "POST /sparql HTTP/1.1\r\nHost: x\r\n"
          "Content-Type: application/sparql-query\r\n"
          "Content-Length: 100\r\n\r\nASK {");
    }  // closed here: the advertised body never arrives
    uint64_t read_errors = 0;
    for (int i = 0; i < 100 && read_errors == 0; ++i) {
      read_errors = StatsCounter(probe, "read_errors");
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    Check(read_errors >= 1, "mid-body disconnect -> read_errors");
    Check(probe.Get("/health").status == 200,
          "server healthy after misbehaving clients");
  }
  Check(slow.Terminate() == 0, "slow-reader server clean shutdown");

  return failures == 0 ? 0 : 1;
}
