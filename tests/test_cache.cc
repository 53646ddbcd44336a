// The endpoint caching layer: canonicalization equivalence classes,
// the result cache LRU, PlanScript record/replay result identity
// (catalog queries and correlated OPTIONAL shapes),
// server-level cache hits + invalidation over HTTP, and the
// strict-numeric-parsing regressions (FILTER/ORDER BY type errors,
// Content-Length rejection, shared parse helpers).
#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "sp2b/net/http.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/sparql/query_cache.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/ntriples.h"
#include "sp2b/strict_parse.h"
#include "nested_shapes.h"
#include "test_util.h"

using namespace sp2b;

namespace {

const LoadedDocument& Fixture() {
  static LoadedDocument* doc = new LoadedDocument(
      GenerateDocument(5000, StoreKind::kIndex, /*with_stats=*/true));
  return *doc;
}

sparql::AstQuery ParseText(const std::string& text) {
  return sparql::Parse(text, DefaultPrefixes());
}

/// Order-independent result grid; ASK results render as one marker row.
std::vector<std::string> Grid(const sparql::QueryResult& r,
                              const rdf::Dictionary& dict) {
  std::vector<std::string> grid;
  if (r.is_ask) {
    grid.push_back(r.ask_value ? "ask=true" : "ask=false");
    return grid;
  }
  for (size_t i = 0; i < r.rows.size(); ++i) {
    grid.push_back(r.RowToString(i, dict));
  }
  std::sort(grid.begin(), grid.end());
  return grid;
}

std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  size_t pos = text.find(from);
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

}  // namespace

SP2B_TEST(canonical_equivalence) {
  // Whitespace / prefix spelling never reaches the AST, so any
  // reformatting of the same query shares its result key.
  std::string q1 = GetQuery("q1").text;
  std::string mangled = q1;
  std::replace(mangled.begin(), mangled.end(), '\n', ' ');
  sparql::CanonicalQuery a = sparql::Canonicalize(ParseText(q1));
  sparql::CanonicalQuery b = sparql::Canonicalize(ParseText(mangled));
  CHECK_EQ(a.result_key, b.result_key);
  std::string spelled = ReplaceOnce(
      q1, "rdf:type", "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>");
  CHECK(spelled != q1);
  CHECK_EQ(a.result_key,
           sparql::Canonicalize(ParseText(spelled)).result_key);

  // Renamed variables: different result bytes (the JSON carries
  // variable names) -> different result key.
  std::string renamed = q1;
  while (renamed.find("?journal") != std::string::npos) {
    renamed = ReplaceOnce(renamed, "?journal", "?zz");
  }
  sparql::CanonicalQuery c = sparql::Canonicalize(ParseText(renamed));
  CHECK(a.result_key != c.result_key);

  // Different constant -> different result key.
  std::string other = ReplaceOnce(q1, "Journal 1 (1940)", "Journal 1 (1950)");
  sparql::CanonicalQuery d = sparql::Canonicalize(ParseText(other));
  CHECK(a.result_key != d.result_key);

  // q3a/b/c differ only in a constant; q2 is another query.
  sparql::CanonicalQuery q3a =
      sparql::Canonicalize(ParseText(GetQuery("q3a").text));
  sparql::CanonicalQuery q3b =
      sparql::Canonicalize(ParseText(GetQuery("q3b").text));
  sparql::CanonicalQuery q2 =
      sparql::Canonicalize(ParseText(GetQuery("q2").text));
  CHECK(q3a.result_key != q3b.result_key);
  CHECK(q3a.result_key != q2.result_key);

  // LIMIT/OFFSET values are part of the key.
  std::string q11 = GetQuery("q11").text;
  sparql::CanonicalQuery e = sparql::Canonicalize(ParseText(q11));
  sparql::CanonicalQuery f = sparql::Canonicalize(
      ParseText(ReplaceOnce(q11, "OFFSET 50", "OFFSET 500")));
  CHECK(e.result_key != f.result_key);

  // Every catalog query has its own result key.
  std::vector<std::string> keys;
  for (const BenchmarkQuery& q : AllQueries()) {
    keys.push_back(sparql::Canonicalize(ParseText(q.text)).result_key);
  }
  std::sort(keys.begin(), keys.end());
  size_t distinct = static_cast<size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
  CHECK_EQ(distinct, AllQueries().size());
}

SP2B_TEST(path_canonicalization) {
  // Property paths canonicalize like ordinary patterns: two path
  // queries that differ only in an IRI constant have distinct result
  // keys (their result bytes differ).
  std::string qp1 = GetQuery("qp1").text;
  std::string other = ReplaceOnce(qp1, "foaf:Document", "foaf:Person");
  sparql::CanonicalQuery a = sparql::Canonicalize(ParseText(qp1));
  sparql::CanonicalQuery b = sparql::Canonicalize(ParseText(other));
  CHECK(a.result_key != b.result_key);
  std::string mangled = qp1;
  std::replace(mangled.begin(), mangled.end(), '\n', ' ');
  CHECK_EQ(a.result_key, sparql::Canonicalize(ParseText(mangled)).result_key);

  // Same for sequences: swapping the final step's IRI changes the key.
  std::string qp3 = GetQuery("qp3").text;
  std::string other_seq = ReplaceOnce(qp3, "foaf:name", "foaf:homepage");
  sparql::CanonicalQuery c = sparql::Canonicalize(ParseText(qp3));
  sparql::CanonicalQuery d = sparql::Canonicalize(ParseText(other_seq));
  CHECK(c.result_key != d.result_key);

  // The path operator itself is part of the key: + vs * vs plain
  // predicate vs sequence are four distinct keys.
  std::string star = ReplaceOnce(qp1, "rdfs:subClassOf+", "rdfs:subClassOf*");
  std::string plain = ReplaceOnce(qp1, "rdfs:subClassOf+", "rdfs:subClassOf");
  sparql::CanonicalQuery e = sparql::Canonicalize(ParseText(star));
  sparql::CanonicalQuery f = sparql::Canonicalize(ParseText(plain));
  CHECK(a.result_key != e.result_key);
  CHECK(a.result_key != f.result_key);
  CHECK(e.result_key != f.result_key);
  CHECK(a.result_key != c.result_key);
}

SP2B_TEST(result_cache_lru) {
  sparql::ResultCache cache(100);
  CHECK_EQ(cache.max_entry_bytes(), size_t{12});

  CHECK(cache.Get("a") == nullptr);  // miss
  auto a = cache.Put("a", std::string(10, 'x'));
  CHECK_EQ(*a, std::string(10, 'x'));
  auto hit = cache.Get("a");
  CHECK(hit != nullptr && *hit == std::string(10, 'x'));

  // Over the per-entry cap: served but never admitted.
  cache.Put("big", std::string(13, 'y'));
  CHECK(cache.Get("big") == nullptr);

  // Fill past the byte budget (11 x 10 bytes into 100); "a" is
  // re-touched each round, so eviction takes the oldest untouched key.
  for (int i = 0; i < 10; ++i) {
    cache.Get("a");
    cache.Put("k" + std::to_string(i), std::string(10, 'z'));
  }
  sparql::ResultCache::Stats s = cache.stats();
  CHECK_EQ(s.bytes, size_t{100});
  CHECK_EQ(s.entries, size_t{10});
  CHECK(cache.Get("a") != nullptr);   // kept hot
  CHECK(cache.Get("k0") == nullptr);  // evicted
  CHECK(cache.stats().evictions > 0);

  // Store change: everything out, generation up.
  cache.BumpGeneration();
  s = cache.stats();
  CHECK_EQ(s.entries, size_t{0});
  CHECK_EQ(s.bytes, size_t{0});
  CHECK_EQ(s.generation, uint64_t{1});
  CHECK(cache.Get("a") == nullptr);
}

SP2B_TEST(plan_replay_identical) {
  // Record the planner's decisions for every catalog query, replay
  // them, and require the replayed execution to produce the exact
  // result grid of a fresh plan (and of the recording run).
  const LoadedDocument& doc = Fixture();
  sparql::Engine engine(*doc.store, *doc.dict,
                        sparql::EngineConfig::Planned(), doc.stats.get());
  auto all = AllQueries();
  for (const BenchmarkQuery& q : AggregateQueries()) all.push_back(q);
  for (const BenchmarkQuery& q : all) {
    sparql::AstQuery ast = ParseText(q.text);
    sparql::PlanScript script;
    sparql::QueryResult recorded = engine.ExecutePrepared(
        ast, sparql::QueryLimits::None(), nullptr, &script);
    sparql::QueryResult replayed = engine.ExecutePrepared(
        ast, sparql::QueryLimits::None(), &script, nullptr);
    sparql::QueryResult plain = engine.Execute(ast);
    if (Grid(replayed, *doc.dict) != Grid(plain, *doc.dict) ||
        Grid(recorded, *doc.dict) != Grid(plain, *doc.dict)) {
      throw test::CheckFailure("replayed grid differs for " +
                               std::string(q.id));
    }
  }

  // Cross-query transfer: a script recorded for q3a replays on q3b
  // (same shape, different constant) with identical results.
  sparql::AstQuery q3a = ParseText(GetQuery("q3a").text);
  sparql::AstQuery q3b = ParseText(GetQuery("q3b").text);
  sparql::PlanScript script;
  engine.ExecutePrepared(q3a, sparql::QueryLimits::None(), nullptr, &script);
  CHECK(script.valid);
  sparql::QueryResult transferred = engine.ExecutePrepared(
      q3b, sparql::QueryLimits::None(), &script, nullptr);
  CHECK(Grid(transferred, *doc.dict) == Grid(engine.Execute(q3b), *doc.dict));

  // A truncated/garbage script must not change results either — the
  // planner falls back to its full search mid-build.
  sparql::PlanScript garbage;
  garbage.valid = true;
  garbage.merges = {{200, 201}};
  sparql::AstQuery q4 = ParseText(GetQuery("q4").text);
  sparql::QueryResult fallback = engine.ExecutePrepared(
      q4, sparql::QueryLimits::None(), &garbage, nullptr);
  CHECK(Grid(fallback, *doc.dict) == Grid(engine.Execute(q4), *doc.dict));

  // Correlated OPTIONALs plan like every other SELECT, so their
  // scripts are valid: replaying one (its
  // merges include the ones over the numbered left rows) must give
  // the backtracking evaluator's grid.
  for (const test::NestedShape& shape : test::NestedShapes()) {
    if (!shape.correlated) continue;
    LoadedDocument inline_doc = test::InlineDocument(shape.data);
    sparql::AstQuery ast = ParseText(shape.query);
    sparql::Engine planned(*inline_doc.store, *inline_doc.dict,
                           sparql::EngineConfig::Planned(), nullptr);
    sparql::PlanScript recorded;
    sparql::QueryResult first = planned.ExecutePrepared(
        ast, sparql::QueryLimits::None(), nullptr, &recorded);
    CHECK(recorded.valid);
    sparql::QueryResult replayed = planned.ExecutePrepared(
        ast, sparql::QueryLimits::None(), &recorded, nullptr);
    const std::vector<std::string> reference = Grid(
        test::RunQuery(inline_doc, shape.query, sparql::EngineConfig::Naive()),
        *inline_doc.dict);
    if (Grid(first, *inline_doc.dict) != reference ||
        Grid(replayed, *inline_doc.dict) != reference) {
      throw test::CheckFailure("replayed grid differs for " +
                               std::string(shape.name));
    }
  }
}

SP2B_TEST(strict_numeric_filter) {
  // A numeric-typed literal whose lexical form does not parse is a
  // SPARQL type error: the comparison errors and the row is rejected —
  // previously atof("12abc") read 12 and let the row through.
  LoadedDocument doc = test::InlineDocument(
      "<http://e/a> <http://e/p> "
      "\"12abc\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://e/b> <http://e/p> "
      "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "<http://e/c> <http://e/p> "
      "\"07\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n");
  for (const char* level : {"naive", "semantic", "planned"}) {
    sparql::QueryResult r = test::RunQuery(
        doc,
        "SELECT ?s WHERE { ?s <http://e/p> ?v "
        "FILTER (?v >= \"5\"^^xsd:integer) }",
        sparql::EngineConfig::ByName(level));
    // b (5) and c (07 = 7) qualify; a (12abc) is a type error.
    CHECK_EQ(r.rows.size(), size_t{2});
    // The malformed literal is rejected by every comparison operator,
    // including < (a type error is not "less than").
    sparql::QueryResult lt = test::RunQuery(
        doc,
        "SELECT ?s WHERE { ?s <http://e/p> ?v "
        "FILTER (?v < \"100\"^^xsd:integer) }",
        sparql::EngineConfig::ByName(level));
    CHECK_EQ(lt.rows.size(), size_t{2});
  }

  // ORDER BY: well-formed numbers sort by value ("9" before "100"),
  // and a malformed numeric does not masquerade as its prefix digits.
  LoadedDocument order_doc = test::InlineDocument(
      "<http://e/a> <http://e/p> \"100\" .\n"
      "<http://e/b> <http://e/p> \"9\" .\n");
  sparql::QueryResult ordered = test::RunQuery(
      order_doc,
      "SELECT ?v WHERE { ?s <http://e/p> ?v } ORDER BY ?v",
      sparql::EngineConfig::Semantic());
  CHECK_EQ(ordered.rows.size(), size_t{2});
  CHECK_EQ(ordered.RowToString(0, *order_doc.dict), "v=\"9\"");
  CHECK_EQ(ordered.RowToString(1, *order_doc.dict), "v=\"100\"");
}

SP2B_TEST(strict_parse_helpers) {
  CHECK_EQ(*ParseDigitsOnly("0"), uint64_t{0});
  CHECK_EQ(*ParseDigitsOnly("42"), uint64_t{42});
  CHECK(!ParseDigitsOnly(""));
  CHECK(!ParseDigitsOnly("-1"));
  CHECK(!ParseDigitsOnly("+5"));
  CHECK(!ParseDigitsOnly(" 5"));
  CHECK(!ParseDigitsOnly("5 "));
  CHECK(!ParseDigitsOnly("12a"));
  CHECK(!ParseDigitsOnly("99999999999999999999"));  // overflow

  CHECK_EQ(*ParseStrictDouble("2.5"), 2.5);
  CHECK_EQ(*ParseStrictDouble("-3"), -3.0);
  CHECK_EQ(*ParseStrictDouble(".5"), 0.5);
  CHECK_EQ(*ParseStrictDouble("1e3"), 1000.0);
  CHECK(!ParseStrictDouble(""));
  CHECK(!ParseStrictDouble("12abc"));
  CHECK(!ParseStrictDouble(" 5"));
  CHECK(!ParseStrictDouble("5 "));
  CHECK(!ParseStrictDouble("0x10"));
  CHECK(!ParseStrictDouble("inf"));
  CHECK(!ParseStrictDouble("nan"));

  CHECK_EQ(*ParseStrictInt64("-9223372036854775808"), INT64_MIN);
  CHECK_EQ(*ParseStrictInt64("9223372036854775807"), INT64_MAX);
  CHECK_EQ(*ParseStrictInt64("+7"), int64_t{7});
  CHECK(!ParseStrictInt64("9223372036854775808"));
  CHECK(!ParseStrictInt64("-9223372036854775809"));
  CHECK(!ParseStrictInt64("12.5"));
  CHECK(!ParseStrictInt64(""));
  CHECK(!ParseStrictInt64("-"));
}

SP2B_TEST(content_length_strict) {
  // Content-Length values with signs, embedded spaces, junk, or
  // overflow must be rejected with 400 — strtoull used to wrap "-1"
  // into a near-2^64 read.
  const LoadedDocument& doc = Fixture();
  net::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  net::SparqlServer server(*doc.store, *doc.dict, doc.stats.get(), cfg);
  server.Start();

  for (const char* bad : {"-5", "+5", "5x", " ", "", "1 2",
                          "99999999999999999999999"}) {
    int fd = net::ConnectTcp("127.0.0.1", server.port());
    net::HttpConnection conn(fd);
    std::string req =
        "POST /sparql HTTP/1.1\r\n"
        "Host: test\r\n"
        "Content-Type: application/sparql-query\r\n"
        "Content-Length:" +
        std::string(*bad == ' ' || *bad == '\0' ? "" : " ") + bad +
        "\r\n\r\n";
    conn.WriteAll(req);
    net::HttpResponse resp;
    CHECK(conn.ReadResponse(&resp) == net::HttpConnection::ReadStatus::kOk);
    if (resp.status != 400) {
      throw test::CheckFailure(std::string("Content-Length \"") + bad +
                               "\" answered " + std::to_string(resp.status) +
                               ", want 400");
    }
  }

  // Control: a well-formed digits-only length still works.
  net::HttpClient client("127.0.0.1", server.port());
  net::HttpResponse ok = client.Post(
      "/sparql", "application/sparql-query", GetQuery("q1").text);
  CHECK_EQ(ok.status, 200);
  server.Stop();
}

SP2B_TEST(server_cache_hits) {
  const LoadedDocument& doc = Fixture();
  net::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  net::SparqlServer server(*doc.store, *doc.dict, doc.stats.get(), cfg);
  server.Start();
  net::HttpClient client("127.0.0.1", server.port());

  // Repeat -> result-cache hit with byte-identical bodies.
  std::string path =
      "/sparql?query=" + net::PercentEncode(GetQuery("q2").text);
  net::HttpResponse first = client.Get(path);
  net::HttpResponse second = client.Get(path);
  CHECK_EQ(first.status, 200);
  CHECK_EQ(second.status, 200);
  CHECK(first.body == second.body);
  std::string stats = client.Get("/stats").body;
  CHECK(test::StatsCounter(stats, "result_hits") >= 1);
  CHECK(test::StatsCounter(stats, "result_misses") >= 1);
  CHECK(test::StatsCounter(stats, "result_entries") >= 1);
  CHECK_EQ(test::StatsCounter(stats, "store_generation"), uint64_t{0});

  // Same query at another OFFSET: a distinct result key, so two
  // result-cache misses with different bodies. No plan-cache counters
  // remain in /stats.
  uint64_t misses_q11 = test::StatsCounter(stats, "result_misses");
  std::string q11 = GetQuery("q11").text;
  net::HttpResponse o50 =
      client.Get("/sparql?query=" + net::PercentEncode(q11));
  std::string q11b = ReplaceOnce(q11, "OFFSET 50", "OFFSET 60");
  CHECK(q11b != q11);
  net::HttpResponse o60 =
      client.Get("/sparql?query=" + net::PercentEncode(q11b));
  CHECK_EQ(o50.status, 200);
  CHECK_EQ(o60.status, 200);
  CHECK(o50.body != o60.body);
  stats = client.Get("/stats").body;
  CHECK_EQ(test::StatsCounter(stats, "result_misses"), misses_q11 + 2);
  CHECK(stats.find("\"plan_") == std::string::npos);

  // Invalidation: generation bumps, the repeat is a miss again but
  // still byte-identical.
  uint64_t misses_before = test::StatsCounter(stats, "result_misses");
  server.InvalidateCaches();
  net::HttpResponse third = client.Get(path);
  CHECK_EQ(third.status, 200);
  CHECK(third.body == first.body);
  stats = client.Get("/stats").body;
  CHECK_EQ(test::StatsCounter(stats, "store_generation"), uint64_t{1});
  CHECK(test::StatsCounter(stats, "result_misses") > misses_before);
  server.Stop();

  // A zero budget is the off switch: no cache is built, /stats has
  // no "cache" member, and responses are unchanged.
  cfg.result_cache_mb = 0;
  net::SparqlServer uncached(*doc.store, *doc.dict, doc.stats.get(), cfg);
  uncached.Start();
  net::HttpClient plain("127.0.0.1", uncached.port());
  net::HttpResponse cold = plain.Get(path);
  CHECK_EQ(cold.status, 200);
  CHECK(cold.body == first.body);
  CHECK(plain.Get("/stats").body.find("\"cache\"") == std::string::npos);
  uncached.Stop();
}

SP2B_TEST_MAIN()
