// Unit tests of the net layer: percent/form codecs, HTTP head
// parsing, both result wire formats (round-trip + malformed-input
// rejection), and the in-process SparqlServer: query execution over
// loopback, the 400/408/413 outcome mapping, /stats, keep-alive, and
// deterministic 503 admission control.
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "test_util.h"

using namespace sp2b;
using namespace sp2b::net;

SP2B_TEST(percent_codecs) {
  CHECK_EQ(PercentDecode("a%20b", false), "a b");
  CHECK_EQ(PercentDecode("a+b", false), "a+b");
  CHECK_EQ(PercentDecode("a+b", true), "a b");
  CHECK_EQ(PercentDecode("%41%6243", false), "Ab43");
  CHECK_EQ(PercentDecode("", true), "");
  for (const char* bad : {"%", "%4", "%4G", "%zz", "a%"}) {
    bool threw = false;
    try {
      PercentDecode(bad, false);
    } catch (const HttpError&) {
      threw = true;
    }
    CHECK(threw);
  }

  // Encode must survive its own decode for every byte value.
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  CHECK_EQ(PercentDecode(PercentEncode(all), false), all);
  // '+' and '%' in the original must not be mangled by form decoding
  // of the encoded text (they get escaped).
  CHECK_EQ(PercentDecode(PercentEncode("a+b%c d"), true), "a+b%c d");

  auto params = ParseFormEncoded("query=SELECT%20*&max-rows=5&flag");
  CHECK_EQ(params.size(), 3u);
  CHECK_EQ(params[0].first, "query");
  CHECK_EQ(params[0].second, "SELECT *");
  CHECK_EQ(params[1].first, "max-rows");
  CHECK_EQ(params[1].second, "5");
  CHECK_EQ(params[2].first, "flag");
  CHECK_EQ(params[2].second, "");
  CHECK(ParseFormEncoded("").empty());
}

SP2B_TEST(head_parsing) {
  HttpRequest req;
  CHECK(ParseRequestHead(
      "GET /sparql?query=x HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "ACCEPT:  application/x-sp2b-results \r\n\r\n",
      &req));
  CHECK_EQ(req.method, "GET");
  CHECK_EQ(req.target, "/sparql?query=x");
  CHECK_EQ(req.version, "HTTP/1.1");
  CHECK_EQ(std::string(req.Path()), "/sparql");
  CHECK_EQ(std::string(req.QueryString()), "query=x");
  CHECK(req.FindHeader("host") != nullptr);
  CHECK_EQ(*req.FindHeader("host"), "localhost");
  // Names are lower-cased and values trimmed.
  CHECK(req.FindHeader("accept") != nullptr);
  CHECK_EQ(*req.FindHeader("accept"), "application/x-sp2b-results");
  CHECK(req.FindHeader("absent") == nullptr);

  HttpRequest no_query;
  CHECK(ParseRequestHead("POST / HTTP/1.1\r\n\r\n", &no_query));
  CHECK_EQ(std::string(no_query.Path()), "/");
  CHECK_EQ(std::string(no_query.QueryString()), "");

  for (const char* bad :
       {"", "GET\r\n\r\n", "GET /x\r\n\r\n", "totally not http\r\n\r\n",
        "GET /x HTTP/1.1\r\nbroken-header-line\r\n\r\n"}) {
    HttpRequest out;
    CHECK(!ParseRequestHead(bad, &out));
  }

  HttpResponse resp;
  CHECK(ParseResponseHead(
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n",
      &resp));
  CHECK_EQ(resp.status, 503);
  CHECK_EQ(resp.status_text, "Service Unavailable");
  CHECK(resp.FindHeader("content-length") != nullptr);
  CHECK_EQ(*resp.FindHeader("content-length"), "2");
  HttpResponse bad_resp;
  CHECK(!ParseResponseHead("HTTP/1.1 abc\r\n\r\n", &bad_resp));

  std::string head = FormatResponseHead(408, {{"Content-Length", "0"}});
  CHECK(head.find("HTTP/1.1 408 Request Timeout\r\n") == 0);
  CHECK(head.find("Content-Length: 0\r\n") != std::string::npos);
  CHECK_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

SP2B_TEST(response_requires_content_length) {
  // The client reads only Content-Length framing, the one the server
  // writes: a chunked or close-delimited response is refused, and a
  // framed one on the same kind of socket still reads.
  auto read = [](const std::string& wire, HttpResponse* resp) {
    int fds[2];
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    HttpConnection peer(fds[0]);
    HttpConnection conn(fds[1]);
    peer.WriteAll(wire);
    peer.Close();
    return conn.ReadResponse(resp);
  };
  for (const char* wire :
       {"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "4\r\nbody\r\n0\r\n\r\n"}) {
    HttpResponse resp;
    bool refused = false;
    try {
      read(wire, &resp);
    } catch (const HttpError&) {
      refused = true;
    }
    CHECK(refused);
  }
  HttpResponse ok;
  CHECK(read("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody", &ok) ==
        HttpConnection::ReadStatus::kOk);
  CHECK_EQ(ok.body, "body");
}

namespace {

/// A hand-built result covering every term shape the wire formats
/// must carry: IRI, blank node, plain / typed / language-tagged /
/// control-character literals, an unbound slot, and a local
/// (aggregate-synthesized) term past the dictionary.
struct WireFixture {
  rdf::Dictionary dict;
  sparql::QueryResult result;

  WireFixture() {
    rdf::TermId iri = dict.InternIri("http://example.org/a");
    rdf::TermId blank = dict.InternBlank("b0");
    rdf::TermId plain = dict.InternLiteral("plain \"quoted\"\n", "");
    rdf::TermId typed = dict.InternLiteral(
        "42", "http://www.w3.org/2001/XMLSchema#integer");
    rdf::TermId tagged = dict.InternLiteral("hallo", "@de");
    rdf::TermId control = dict.InternLiteral(std::string("a\x01z", 3), "");

    result.var_names = {"x", "y", "hidden"};
    result.projection = {0, 1};  // "hidden" must never reach the wire
    result.rows.Reset(3);
    rdf::TermId local_id = sparql::kLocalTermBase;
    result.local_terms.push_back(
        {rdf::TermType::kLiteral, "7", "http://www.w3.org/2001/XMLSchema#integer"});
    rdf::TermId rows[][3] = {
        {iri, plain, iri},
        {blank, typed, iri},
        {tagged, rdf::kNoTerm, iri},
        {control, local_id, iri},
    };
    for (auto& row : rows) result.rows.Append(row);
  }
};

std::string SerializeToString(const sparql::QueryResult& result,
                              const rdf::Dictionary& dict,
                              ResultFormat format) {
  std::string out;
  SerializeResults(result, dict, format,
                   [&](std::string_view piece) { out.append(piece); });
  return out;
}

std::vector<std::string> EngineGrid(const sparql::QueryResult& result,
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

}  // namespace

SP2B_TEST(wire_roundtrip) {
  WireFixture fx;
  std::vector<std::string> reference = EngineGrid(fx.result, fx.dict);
  CHECK_EQ(reference.size(), 4u);

  for (ResultFormat format : {ResultFormat::kJson, ResultFormat::kBinary}) {
    std::string wire = SerializeToString(fx.result, fx.dict, format);
    WireResults decoded = DecodeResults(wire, format);
    CHECK(!decoded.is_ask);
    CHECK_EQ(decoded.vars.size(), 2u);
    CHECK_EQ(decoded.vars[0], "x");
    CHECK_EQ(decoded.vars[1], "y");
    CHECK_EQ(decoded.rows.size(), 4u);
    CHECK(SortedWireGrid(decoded) == reference);
  }

  // The JSON carries the datatype / language tag even though the grid
  // rendering ignores them.
  std::string json = SerializeToString(fx.result, fx.dict, ResultFormat::kJson);
  CHECK(json.find("\"xml:lang\": \"de\"") != std::string::npos);
  CHECK(json.find("XMLSchema#integer") != std::string::npos);
  CHECK(json.find("\\u0001") != std::string::npos);  // control escaped
  WireResults decoded = DecodeResults(json, ResultFormat::kJson);
  bool saw_tag = false, saw_control = false;
  for (const auto& row : decoded.rows) {
    for (const WireTerm& t : row) {
      if (t.datatype == "@de") saw_tag = true;
      if (t.lexical == std::string("a\x01z", 3)) saw_control = true;
    }
  }
  CHECK(saw_tag);
  CHECK(saw_control);

  // Binary round-trip preserves datatypes too.
  WireResults bin =
      DecodeResults(SerializeToString(fx.result, fx.dict, ResultFormat::kBinary),
                    ResultFormat::kBinary);
  saw_tag = false;
  for (const auto& row : bin.rows) {
    for (const WireTerm& t : row) {
      if (t.datatype == "@de") saw_tag = true;
    }
  }
  CHECK(saw_tag);

  // ASK round-trips through both formats.
  sparql::QueryResult ask;
  ask.is_ask = true;
  ask.ask_value = true;
  for (ResultFormat format : {ResultFormat::kJson, ResultFormat::kBinary}) {
    WireResults d =
        DecodeResults(SerializeToString(ask, fx.dict, format), format);
    CHECK(d.is_ask);
    CHECK(d.ask_value);
    CHECK_EQ(SortedWireGrid(d).size(), 1u);
    CHECK_EQ(SortedWireGrid(d)[0], "yes");
  }
}

SP2B_TEST(wire_malformed) {
  WireFixture fx;
  std::string bin = SerializeToString(fx.result, fx.dict, ResultFormat::kBinary);
  std::string json = SerializeToString(fx.result, fx.dict, ResultFormat::kJson);

  auto rejects = [](std::string_view body, ResultFormat format) {
    try {
      DecodeResults(body, format);
    } catch (const ProtocolError&) {
      return true;
    }
    return false;
  };

  CHECK(rejects("", ResultFormat::kBinary));
  CHECK(rejects("SPBX", ResultFormat::kBinary));
  // Every truncation of the binary body must throw, never read past
  // the end or return a partial table.
  for (size_t cut = 4; cut < bin.size(); cut += 7) {
    CHECK(rejects(std::string_view(bin).substr(0, cut), ResultFormat::kBinary));
  }
  CHECK(rejects(bin + "x", ResultFormat::kBinary));

  CHECK(rejects("", ResultFormat::kJson));
  CHECK(rejects("[1, 2]", ResultFormat::kJson));
  CHECK(rejects("{\"head\": {}}", ResultFormat::kJson));
  CHECK(rejects("{\"head\": {\"vars\": [\"x\"]}, \"results\": "
                "{\"bindings\": [{\"y\": {\"type\": \"uri\", \"value\": "
                "\"v\"}}]}}",
                ResultFormat::kJson));  // binding for unknown var
  CHECK(rejects("{\"head\": {\"vars\": [\"x\"]}, \"results\": "
                "{\"bindings\": [{\"x\": {\"type\": \"wat\", \"value\": "
                "\"v\"}}]}}",
                ResultFormat::kJson));  // unknown term type
  CHECK(rejects(json + "trailing", ResultFormat::kJson));
  // Lone surrogates in \u escapes are malformed.
  CHECK(rejects("{\"head\": {\"vars\": [\"x\"]}, \"results\": "
                "{\"bindings\": [{\"x\": {\"type\": \"literal\", \"value\": "
                "\"\\uD800\"}}]}}",
                ResultFormat::kJson));

  // A surrogate *pair* is fine and decodes to the astral code point.
  WireResults ok = DecodeResults(
      "{\"head\": {\"vars\": [\"x\"]}, \"results\": {\"bindings\": "
      "[{\"x\": {\"type\": \"literal\", \"value\": \"\\uD83D\\uDE00\"}}]}}",
      ResultFormat::kJson);
  CHECK_EQ(ok.rows.size(), 1u);
  CHECK_EQ(ok.rows[0][0].lexical, "\xF0\x9F\x98\x80");
}

namespace {

struct TestServer {
  LoadedDocument doc;
  std::unique_ptr<SparqlServer> server;

  explicit TestServer(ServerConfig config = {}, uint64_t triples = 1000) {
    doc = GenerateDocument(triples, StoreKind::kIndex, true);
    server = std::make_unique<SparqlServer>(*doc.store, *doc.dict,
                                            doc.stats.get(), config);
    server->Start();
  }
};

std::vector<std::string> HttpGrid(HttpClient& client, const std::string& query,
                                  ResultFormat format) {
  std::vector<std::pair<std::string, std::string>> headers;
  if (format == ResultFormat::kBinary) {
    headers.emplace_back("Accept", kContentTypeBinary);
  }
  HttpResponse resp =
      client.Get("/sparql?query=" + PercentEncode(query), headers);
  CHECK_EQ(resp.status, 200);
  const std::string* ct = resp.FindHeader("content-type");
  CHECK(ct != nullptr);
  CHECK_EQ(*ct, std::string(ContentTypeFor(format)));
  return SortedWireGrid(DecodeResults(resp.body, format));
}

}  // namespace

SP2B_TEST(server_endpoint) {
  TestServer ts;
  HttpClient client("127.0.0.1", ts.server->port());

  HttpResponse health = client.Get("/health");
  CHECK_EQ(health.status, 200);
  CHECK_EQ(health.body, "ok\n");

  // Q1, an ASK, and an aggregate over HTTP (both formats) must match
  // the in-process planned engine exactly.
  sparql::Engine engine(*ts.doc.store, *ts.doc.dict,
                        sparql::EngineConfig::Planned(), ts.doc.stats.get());
  for (const char* id : {"q1", "q6", "q12a", "qa1"}) {
    const std::string& text = GetQuery(id).text;
    sparql::QueryResult reference =
        engine.Execute(sparql::Parse(text, DefaultPrefixes()));
    std::vector<std::string> expected = EngineGrid(reference, *ts.doc.dict);
    CHECK(HttpGrid(client, text, ResultFormat::kJson) == expected);
    CHECK(HttpGrid(client, text, ResultFormat::kBinary) == expected);
  }

  // POST application/sparql-query and form-encoded bodies.
  const std::string ask = "ASK { ?s ?p ?o }";
  HttpResponse raw = client.Post("/sparql", kContentTypeSparqlQuery, ask);
  CHECK_EQ(raw.status, 200);
  CHECK(DecodeResults(raw.body, ResultFormat::kJson).ask_value);
  HttpResponse form = client.Post("/sparql", kContentTypeForm,
                                  "query=" + PercentEncode(ask));
  CHECK_EQ(form.status, 200);
  CHECK(DecodeResults(form.body, ResultFormat::kJson).ask_value);

  // Outcome taxonomy over the wire.
  HttpResponse parse_err =
      client.Get("/sparql?query=" + PercentEncode("NOT SPARQL"));
  CHECK_EQ(parse_err.status, 400);
  HttpResponse no_query = client.Get("/sparql");
  CHECK_EQ(no_query.status, 400);
  const std::string heavy = GetQuery("q4").text;
  HttpResponse rows = client.Get("/sparql?query=" + PercentEncode(heavy) +
                                 "&max-rows=1");
  CHECK_EQ(rows.status, 413);
  HttpResponse timeout = client.Get("/sparql?query=" + PercentEncode(heavy) +
                                    "&timeout=0.000001");
  CHECK_EQ(timeout.status, 408);
  HttpResponse bad_limit =
      client.Get("/sparql?query=" + PercentEncode(ask) + "&max-rows=5x");
  CHECK_EQ(bad_limit.status, 400);
  HttpResponse missing = client.Get("/no-such-path");
  CHECK_EQ(missing.status, 404);
  HttpResponse bad_method = client.Post("/sparql", "text/plain", ask);
  CHECK_EQ(bad_method.status, 415);

  // /stats reflects what happened above.
  HttpResponse stats = client.Get("/stats");
  CHECK_EQ(stats.status, 200);
  const std::string& body = stats.body;
  CHECK(body.find("\"parse_errors\": 1") != std::string::npos);
  CHECK(body.find("\"timeouts\": 1") != std::string::npos);
  CHECK(body.find("\"row_caps\": 1") != std::string::npos);
  CHECK(body.find("\"overloads\": 0") != std::string::npos);
  CHECK(body.find("\"latency\"") != std::string::npos);

  // `ok` and the latency histogram count query successes only —
  // /health and /stats hits contribute to `requests` but not to the
  // query outcome counters.
  const ServerMetrics& m = ts.server->metrics();
  CHECK_EQ(m.parse_errors.load(), 1u);
  CHECK_EQ(m.timeouts.load(), 1u);
  CHECK_EQ(m.row_caps.load(), 1u);
  CHECK_EQ(m.ok.load(), 10u);  // 4 queries x 2 formats + 2 POSTs
  CHECK_EQ(m.latency.count(), 10u);
  CHECK_EQ(m.bad_requests.load(), 4u);  // no-query, bad limit, 404, 415

  ts.server->Stop();
}

SP2B_TEST(server_admission_control) {
  // One worker, queue depth one: with the worker parked on an idle
  // keep-alive connection and the queue holding a second, a third
  // connection must be shed with 503 at accept time.
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  TestServer ts(config, 100);
  int port = ts.server->port();

  // Occupy the single worker: serve one request, then hold the
  // connection open (the lane blocks reading the next request).
  HttpConnection held(ConnectTcp("127.0.0.1", port));
  held.WriteAll("GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpResponse health;
  CHECK(held.ReadResponse(&health) == HttpConnection::ReadStatus::kOk);
  CHECK_EQ(health.status, 200);

  // Fill the queue with a connection no lane is free to claim.
  HttpConnection queued(ConnectTcp("127.0.0.1", port));
  // Give the accept loop time to enqueue it before the next connect.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Overflow: must be answered 503 by the accept thread itself.
  HttpConnection shed(ConnectTcp("127.0.0.1", port));
  HttpResponse overflow;
  CHECK(shed.ReadResponse(&overflow) == HttpConnection::ReadStatus::kOk);
  CHECK_EQ(overflow.status, 503);
  CHECK_EQ(ts.server->metrics().overloads.load(), 1u);

  // Releasing the held connection frees the lane; the queued
  // connection then gets served.
  held.Close();
  queued.WriteAll("GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpResponse late;
  CHECK(queued.ReadResponse(&late) == HttpConnection::ReadStatus::kOk);
  CHECK_EQ(late.status, 200);

  ts.server->Stop();
}

SP2B_TEST_MAIN()
