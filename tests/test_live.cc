// The live-update layer: SnapshotStore's base+delta merge scans,
// snapshot isolation under concurrent ingest, per-epoch equivalence
// with from-scratch stores at the same generator year cut, compaction
// transparency, and the generation-tagged result cache over the wire
// (a stale hit across a batch commit must be impossible).
#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sp2b/gen/year_batches.h"
#include "sp2b/net/http.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "test_util.h"

using namespace sp2b;

namespace {

/// Store content as sorted N-Triples lines; two stores over different
/// dictionaries compare equal iff they hold the same triples.
std::vector<std::string> SortedGrid(const rdf::Store& store,
                                    const rdf::Dictionary& dict) {
  std::vector<std::string> lines;
  lines.reserve(store.size());
  store.Match({}, [&](const rdf::Triple& t) {
    lines.push_back(dict.ToNTriples(t.s) + " " + dict.ToNTriples(t.p) + " " +
                    dict.ToNTriples(t.o) + " .");
    return true;
  });
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> SortedRows(const sparql::QueryResult& r,
                                    const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  if (r.is_ask) {
    rows.push_back(r.ask_value ? "ask=true" : "ask=false");
    return rows;
  }
  for (size_t i = 0; i < r.rows.size(); ++i) {
    rows.push_back(r.RowToString(i, dict));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// From-scratch finalized IndexStore over `text`.
struct FreshDoc {
  rdf::Dictionary dict;
  rdf::IndexStore store;

  explicit FreshDoc(const std::string& text) {
    std::istringstream in(text);
    rdf::ParseNTriples(in, dict, store);
    store.Finalize();
  }
};

std::vector<gen::YearBatch> Batches(uint64_t triples) {
  gen::GeneratorConfig cfg;
  cfg.triple_limit = triples;
  return gen::GenerateYearBatches(cfg);
}

std::string ConcatThrough(const std::vector<gen::YearBatch>& batches,
                          size_t last) {
  std::string text;
  for (size_t i = 0; i <= last; ++i) text += batches[i].ntriples;
  return text;
}

// Disable background compaction in the single-threaded cases so run
// counts are deterministic; CompactNow() still covers the merge path.
rdf::LiveStore::Config NoBackground() {
  rdf::LiveStore::Config cfg;
  cfg.background_compaction = false;
  return cfg;
}

}  // namespace

// A snapshot with delta runs must answer every pattern shape exactly
// like a monolithic store holding the same triples, and its merged
// scans must come out in the permutation order the base store chose.
SP2B_TEST(merge_scan) {
  std::vector<gen::YearBatch> batches = Batches(4000);
  CHECK(batches.size() >= 4);

  rdf::LiveStore live{NoBackground()};
  for (const gen::YearBatch& b : batches) live.IngestNTriples(b.ntriples);
  std::shared_ptr<const rdf::SnapshotStore> snap = live.Pin();
  CHECK(snap->delta_runs() >= 2);  // merge path, not base delegation

  FreshDoc fresh(ConcatThrough(batches, batches.size() - 1));
  CHECK_EQ(snap->size(), fresh.store.size());
  CHECK(SortedGrid(*snap, live.dict()) == SortedGrid(fresh.store, fresh.dict));

  // Every bound-pattern shape: Count and Match agree with the fresh
  // store triple-for-triple (ids differ across dictionaries, so
  // compare rendered text).
  size_t checked = 0;
  fresh.store.Match({}, [&](const rdf::Triple& t) {
    if (++checked > 25) return false;
    const rdf::Term& term = fresh.dict.Lookup(t.s);
    rdf::TermId s = term.type == rdf::TermType::kIri
                        ? live.dict().FindIri(term.lexical)
                        : live.dict().FindBlank(term.lexical);
    CHECK(s != rdf::kNoTerm);
    rdf::TriplePattern by_s;
    by_s.s = s;
    rdf::TriplePattern fresh_by_s;
    fresh_by_s.s = t.s;
    CHECK_EQ(snap->Count(by_s), fresh.store.Count(fresh_by_s));

    // Merged scan order must follow the base permutation choice.
    rdf::ScanOrder order = snap->ScanOrderFor(by_s);
    std::vector<rdf::Triple> out;
    snap->Match(by_s, [&](const rdf::Triple& got) {
      out.push_back(got);
      return true;
    });
    CHECK_EQ(out.size(), snap->Count(by_s));
    for (size_t i = 1; i < out.size(); ++i) {
      bool ordered =
          order == rdf::ScanOrder::kPOS
              ? std::tie(out[i - 1].p, out[i - 1].o, out[i - 1].s) <=
                    std::tie(out[i].p, out[i].o, out[i].s)
              : true;  // subject-bound patterns route to POS-free orders
      CHECK(ordered);
    }
    return true;
  });
  CHECK(checked > 0);
}

// A pinned snapshot is immutable: commits after the pin must not
// change what it sees, while a fresh pin sees the new epoch.
SP2B_TEST(snapshot_isolation) {
  std::vector<gen::YearBatch> batches = Batches(3000);
  CHECK(batches.size() >= 3);

  rdf::LiveStore live{NoBackground()};
  live.IngestNTriples(batches[0].ntriples);
  std::shared_ptr<const rdf::SnapshotStore> pinned = live.Pin();
  uint64_t size_before = pinned->size();
  std::vector<std::string> grid_before = SortedGrid(*pinned, live.dict());

  for (size_t i = 1; i < batches.size(); ++i) {
    live.IngestNTriples(batches[i].ntriples);
  }
  std::shared_ptr<const rdf::SnapshotStore> fresh_pin = live.Pin();
  CHECK(fresh_pin->size() > size_before);
  CHECK(fresh_pin->epoch() > pinned->epoch());

  // The old pin still answers from its own epoch.
  CHECK_EQ(pinned->size(), size_before);
  CHECK(SortedGrid(*pinned, live.dict()) == grid_before);

  // Pin accounting counts live snapshot objects: the old pinned epoch
  // plus the current one (fresh_pin shares the store's own snapshot).
  rdf::IngestStats stats = live.ingest_stats();
  CHECK(stats.pinned_snapshots >= 2);
  CHECK(stats.pinned_high_water >= stats.pinned_snapshots);
}

// Every epoch published while streaming generator year batches must be
// sorted-grid-identical to a from-scratch store at the same cut, and
// answer the benchmark queries identically.
SP2B_TEST(epoch_equivalence) {
  std::vector<gen::YearBatch> batches = Batches(3000);
  std::vector<sparql::AstQuery> asts;
  for (const char* qid : {"q1", "q3a", "q9"}) {
    asts.push_back(sparql::Parse(GetQuery(qid).text, DefaultPrefixes()));
  }
  sparql::EngineConfig engine_cfg = sparql::EngineConfig::ByName("planned");

  rdf::LiveStore live{NoBackground()};
  for (size_t i = 0; i < batches.size(); ++i) {
    live.IngestNTriples(batches[i].ntriples);
    std::shared_ptr<const rdf::SnapshotStore> snap = live.Pin();
    FreshDoc fresh(ConcatThrough(batches, i));
    CHECK_EQ(snap->size(), fresh.store.size());
    CHECK(SortedGrid(*snap, live.dict()) ==
          SortedGrid(fresh.store, fresh.dict));
    sparql::Engine live_engine(*snap, live.dict(), engine_cfg, snap->stats());
    sparql::Engine fresh_engine(fresh.store, fresh.dict, engine_cfg, nullptr);
    for (const sparql::AstQuery& ast : asts) {
      CHECK(SortedRows(live_engine.Execute(ast), live.dict()) ==
            SortedRows(fresh_engine.Execute(ast), fresh.dict));
    }
  }
}

// Compaction folds delta runs into the base without changing content,
// data generation, or stats; old pins keep the pre-compaction view.
SP2B_TEST(compaction_equivalence) {
  std::vector<gen::YearBatch> batches = Batches(3000);
  rdf::LiveStore live{NoBackground()};
  for (const gen::YearBatch& b : batches) live.IngestNTriples(b.ntriples);

  std::shared_ptr<const rdf::SnapshotStore> before = live.Pin();
  CHECK(before->delta_runs() >= 2);
  std::vector<std::string> grid = SortedGrid(*before, live.dict());

  live.CompactNow();
  std::shared_ptr<const rdf::SnapshotStore> after = live.Pin();
  CHECK_EQ(after->delta_runs(), size_t{0});
  CHECK_EQ(after->size(), before->size());
  CHECK_EQ(after->generation(), before->generation());  // content unchanged
  CHECK(after->epoch() > before->epoch());
  CHECK(after->ScanIsDirect({}));  // back to zero-copy base scans
  CHECK(SortedGrid(*after, live.dict()) == grid);
  CHECK(SortedGrid(*before, live.dict()) == grid);  // old pin unaffected
  CHECK_EQ(live.ingest_stats().compactions, uint64_t{1});

  // Committing after compaction keeps the store consistent.
  rdf::LiveStore::CommitResult r = live.IngestNTriples(
      "<http://example.org/post-compact> "
      "<http://example.org/p> \"v\" .\n");
  CHECK_EQ(r.added, uint64_t{1});
  CHECK_EQ(live.Pin()->size(), after->size() + 1);
}

// Writers never block readers: query threads run the benchmark mix on
// pinned snapshots while the feeder streams every year batch, then
// each recorded epoch is audited against a from-scratch store.
SP2B_TEST(concurrent_ingest_query) {
  std::vector<gen::YearBatch> batches = Batches(3000);
  rdf::LiveStore live;  // background compaction on: full thread mix
  sparql::EngineConfig engine_cfg = sparql::EngineConfig::ByName("planned");
  sparql::AstQuery ast =
      sparql::Parse(GetQuery("q3a").text, DefaultPrefixes());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries_run{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const rdf::SnapshotStore> snap = live.Pin();
        sparql::Engine engine(*snap, live.dict(), engine_cfg, snap->stats());
        sparql::QueryResult result = engine.Execute(ast);
        // Row count can only grow with the data; it must be coherent
        // with the snapshot the engine ran against.
        CHECK(result.row_count() <= snap->size());
        queries_run.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::shared_ptr<const rdf::SnapshotStore>> pins;
  for (const gen::YearBatch& b : batches) {
    live.IngestNTriples(b.ntriples);
    pins.push_back(live.Pin());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  CHECK(queries_run.load() > 0);

  // Audit a sample of the recorded epochs (first, middle, last).
  for (size_t i : {size_t{0}, pins.size() / 2, pins.size() - 1}) {
    FreshDoc fresh(ConcatThrough(batches, i));
    CHECK_EQ(pins[i]->size() , fresh.store.size());
    CHECK(SortedGrid(*pins[i], live.dict()) ==
          SortedGrid(fresh.store, fresh.dict));
  }
}

// Generation-tagged result cache over the wire: a repeat within one
// epoch hits; a commit makes the old entry unreachable, so the next
// read reflects the new data — a stale hit must be impossible.
SP2B_TEST(cache_invalidation_wire) {
  std::vector<gen::YearBatch> batches = Batches(2000);
  rdf::LiveStore live{NoBackground()};
  for (const gen::YearBatch& b : batches) live.IngestNTriples(b.ntriples);

  net::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  net::SparqlServer server(live, cfg);
  server.Start();
  net::HttpClient client("127.0.0.1", server.port());

  std::string query =
      "SELECT ?s WHERE { ?s rdf:type bench:Article } ORDER BY ?s";
  std::string path = "/sparql?query=" + net::PercentEncode(query);

  net::HttpResponse first = client.Get(path);
  net::HttpResponse repeat = client.Get(path);
  CHECK_EQ(first.status, 200);
  CHECK(first.body == repeat.body);  // same epoch -> cached, identical
  std::string stats = client.Get("/stats").body;
  CHECK(test::StatsCounter(stats, "result_hits") >= 1);
  uint64_t generation_before = test::StatsCounter(stats, "store_generation");

  // Commit a new Article through the endpoint; the same GET must see
  // it immediately — the pre-commit cache entry is generation-dead.
  std::string triple =
      "<http://example.org/live-article> "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://localhost/vocabulary/bench/Article> .\n";
  net::HttpResponse update =
      client.Post("/update", "application/n-triples", triple);
  CHECK_EQ(update.status, 200);
  CHECK(update.body.find("\"added\": 1") != std::string::npos);

  net::HttpResponse after = client.Get(path);
  CHECK_EQ(after.status, 200);
  CHECK(after.body != first.body);
  CHECK(after.body.find("live-article") != std::string::npos);
  CHECK(first.body.find("live-article") == std::string::npos);

  // Repeat of the update is deduplicated, no epoch churn.
  net::HttpResponse dup = client.Post("/update", "application/n-triples",
                                      triple);
  CHECK_EQ(dup.status, 200);
  CHECK(dup.body.find("\"added\": 0") != std::string::npos);
  CHECK(client.Get(path).body == after.body);

  stats = client.Get("/stats").body;
  CHECK(test::StatsCounter(stats, "store_generation") > generation_before);
  CHECK_EQ(test::StatsCounter(stats, "updates"), uint64_t{2});
  CHECK(test::StatsCounter(stats, "batches") >= batches.size() + 1);
  server.Stop();
}

// /update on a static server is 404, non-POST is 405, malformed
// N-Triples is 400 — and a failed update commits nothing.
SP2B_TEST(update_endpoint_errors) {
  net::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 8;

  {
    LoadedDocument doc =
        GenerateDocument(1000, StoreKind::kIndex, /*with_stats=*/true);
    net::SparqlServer server(*doc.store, *doc.dict, doc.stats.get(), cfg);
    server.Start();
    net::HttpClient client("127.0.0.1", server.port());
    CHECK_EQ(client.Post("/update", "application/n-triples",
                         "<http://a> <http://b> <http://c> .\n")
                 .status,
             404);
    server.Stop();
  }

  rdf::LiveStore live{NoBackground()};
  net::SparqlServer server(live, cfg);
  server.Start();
  net::HttpClient client("127.0.0.1", server.port());
  CHECK_EQ(client.Get("/update").status, 405);

  net::HttpResponse bad =
      client.Post("/update", "application/n-triples", "not n-triples\n");
  CHECK_EQ(bad.status, 400);
  CHECK(bad.body.find("bad N-Triples") != std::string::npos);
  CHECK_EQ(live.Pin()->size(), uint64_t{0});  // nothing committed

  // A batch with a malformed line is rejected atomically.
  net::HttpResponse partial = client.Post(
      "/update", "application/n-triples",
      "<http://a> <http://b> <http://c> .\nbroken line\n");
  CHECK_EQ(partial.status, 400);
  CHECK_EQ(live.Pin()->size(), uint64_t{0});

  std::string stats = client.Get("/stats").body;
  // 405 (GET /update) + the two rejected bodies all land in
  // bad_requests; none count as successful updates.
  CHECK_EQ(test::StatsCounter(stats, "bad_requests"), uint64_t{3});
  CHECK_EQ(test::StatsCounter(stats, "updates"), uint64_t{0});
  server.Stop();
}

SP2B_TEST_MAIN()
