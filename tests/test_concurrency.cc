// Concurrency correctness: the thread pool's contract
// (coverage, exception propagation, zero-task / nested /
// oversubscription edge cases), N client threads hammering one shared
// immutable store with the full benchmark query set, and the parallel
// planned engine (morsel scans, partitioned hash joins, parallel
// unions) pinned sorted-grid-identical to the single-threaded planned
// engine. Run under ThreadSanitizer in CI.
#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sp2b/exec/thread_pool.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "test_util.h"

using namespace sp2b;

namespace {

/// Shared fixtures: one document per size, loaded once, queried by
/// every thread of every case — the "one shared immutable store" the
/// whole suite exercises.
const LoadedDocument& Fixture(uint64_t triples) {
  static std::map<uint64_t, LoadedDocument>* docs =
      new std::map<uint64_t, LoadedDocument>();
  auto it = docs->find(triples);
  if (it == docs->end()) {
    it = docs->emplace(triples, GenerateDocument(triples, StoreKind::kIndex,
                                                 /*with_stats=*/true))
             .first;
  }
  return it->second;
}

/// Sorted projected-row grid (lexical forms), enumeration-order
/// independent; ASK queries reduce to their boolean.
std::vector<std::string> SortedGrid(const LoadedDocument& doc,
                                    const std::string& query_text,
                                    const sparql::EngineConfig& cfg) {
  sparql::AstQuery ast = sparql::Parse(query_text, DefaultPrefixes());
  sparql::Engine engine(*doc.store, *doc.dict, cfg, doc.stats.get());
  sparql::QueryResult result = engine.Execute(ast);
  std::vector<std::string> grid;
  if (result.is_ask) {
    grid.push_back(result.ask_value ? "yes" : "no");
    return grid;
  }
  grid.reserve(result.row_count());
  for (size_t i = 0; i < result.row_count(); ++i) {
    grid.push_back(result.RowToString(i, *doc.dict));
  }
  std::sort(grid.begin(), grid.end());
  return grid;
}

std::vector<const BenchmarkQuery*> EveryQuery() {
  std::vector<const BenchmarkQuery*> out;
  for (const BenchmarkQuery& q : AllQueries()) out.push_back(&q);
  for (const BenchmarkQuery& q : AggregateQueries()) out.push_back(&q);
  return out;
}

/// Runs `clients` threads, each evaluating every benchmark query with
/// `cfg` against the shared `doc`, and checks each grid against the
/// single-threaded planned reference. Thread failures are collected
/// and rethrown on the test thread.
void RunClientGrid(const LoadedDocument& doc, const sparql::EngineConfig& cfg,
                   int clients) {
  std::vector<const BenchmarkQuery*> queries = EveryQuery();
  std::map<std::string, std::vector<std::string>> reference;
  for (const BenchmarkQuery* q : queries) {
    reference[q->id] = SortedGrid(doc, q->text, sparql::EngineConfig::Planned());
  }
  std::vector<std::string> failures(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (const BenchmarkQuery* q : queries) {
          std::vector<std::string> grid = SortedGrid(doc, q->text, cfg);
          if (grid != reference[q->id]) {
            std::ostringstream msg;
            msg << "client " << c << " query " << q->id << " diverged: "
                << grid.size() << " rows vs " << reference[q->id].size()
                << " reference rows";
            failures[c] = msg.str();
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = std::string("client threw: ") + e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) {
    if (!f.empty()) throw sp2b::test::CheckFailure(f);
  }
}

std::string Explain(const LoadedDocument& doc, const std::string& text,
                    const sparql::EngineConfig& cfg) {
  sparql::AstQuery ast = sparql::Parse(text, DefaultPrefixes());
  sparql::Engine engine(*doc.store, *doc.dict, cfg, doc.stats.get());
  std::string explain;
  engine.ExecuteExplained(ast, sparql::QueryLimits::None(), &explain);
  return explain;
}

}  // namespace

// ---------------------------------------------------------------------------
// Thread pool unit tests
// ---------------------------------------------------------------------------

SP2B_TEST(pool_parallel_for) {
  exec::ThreadPool pool(3);
  CHECK_EQ(pool.workers(), 3);
  // Every index executed exactly once, across several batch shapes.
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.ParallelFor(n, 4, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) CHECK_EQ(hits[i].load(), 1);
  }
  // Results land in their own slots: a scatter computation survives.
  std::vector<uint64_t> squares(5000);
  pool.ParallelFor(squares.size(), 4,
                   [&](size_t i) { squares[i] = i * i; });
  for (size_t i = 0; i < squares.size(); ++i) CHECK_EQ(squares[i], i * i);
  // Serial execution (parallelism 1) runs inline and in index order.
  std::vector<size_t> order;
  pool.ParallelFor(8, 1, [&](size_t i) { order.push_back(i); });
  for (size_t i = 0; i < order.size(); ++i) CHECK_EQ(order[i], i);
}

SP2B_TEST(pool_exceptions) {
  exec::ThreadPool pool(2);
  // The first exception is rethrown on the caller; the batch still
  // joins cleanly and unclaimed indices are skipped, not lost track of.
  bool caught = false;
  try {
    pool.ParallelFor(100, 3, [&](size_t i) {
      if (i == 13) throw std::runtime_error("boom at 13");
    });
  } catch (const std::runtime_error& e) {
    caught = std::string(e.what()).find("boom") != std::string::npos;
  }
  CHECK(caught);
  // The pool survives a failed batch: the next batch runs normally.
  std::atomic<int> count{0};
  pool.ParallelFor(64, 3, [&](size_t) { ++count; });
  CHECK_EQ(count.load(), 64);
}

SP2B_TEST(pool_edge_cases) {
  exec::ThreadPool pool(2);
  // Zero tasks: no-op, no hang.
  pool.ParallelFor(0, 4, [&](size_t) {
    throw std::logic_error("must not run");
  });
  // Nested ParallelFor from inside a lane flattens to inline serial
  // execution instead of deadlocking the (tiny) pool.
  std::atomic<int> inner{0};
  pool.ParallelFor(4, 3, [&](size_t) {
    pool.ParallelFor(8, 3, [&](size_t) { ++inner; });
  });
  CHECK_EQ(inner.load(), 4 * 8);
  // Oversubscription: far more requested lanes than cores, and more
  // tasks than lanes — everything still executes exactly once.
  exec::ThreadPool big;
  std::vector<std::atomic<int>> hits(10000);
  for (auto& h : hits) h = 0;
  big.ParallelFor(hits.size(), 32, [&](size_t i) { ++hits[i]; });
  for (auto& h : hits) CHECK_EQ(h.load(), 1);
  CHECK(big.workers() >= 31);
  // A pool can also be grown explicitly and reports its size.
  big.EnsureWorkers(40);
  CHECK_EQ(big.workers(), 40);
}

// ---------------------------------------------------------------------------
// Concurrent query execution
// ---------------------------------------------------------------------------

SP2B_TEST(concurrent_clients) {
  // Inter-query parallelism only: 4 client threads, each running all
  // Q1-Q12 / qa1-qa4 with the serial planned engine against one
  // shared 5k store. Any cursor or store state shared across engines
  // would corrupt a grid.
  RunClientGrid(Fixture(5000), sparql::EngineConfig::Planned(), 4);
}

SP2B_TEST(concurrent_parallel_clients) {
  // Inter- plus intra-query parallelism: 3 client threads each using
  // planned@2 (parallel operators on the shared pool) on a store
  // large enough that the fan-out gates actually engage.
  RunClientGrid(Fixture(30000), sparql::EngineConfig::ByName("planned@2"), 3);
}

SP2B_TEST(parallel_explain) {
  const LoadedDocument& doc = Fixture(30000);
  // threads=1 must preserve today's serial plans bit-for-bit.
  sparql::EngineConfig one = sparql::EngineConfig::ByName("planned@1");
  CHECK_EQ(one.threads, 1);
  bool saw_parallel = false;
  for (const char* id : {"q2", "q4", "q8", "q9"}) {
    const std::string& text = GetQuery(id).text;
    std::string serial = Explain(doc, text, sparql::EngineConfig::Planned());
    CHECK(serial == Explain(doc, text, one));
    CHECK(serial.find("Parallel") == std::string::npos);
    // threads=4: the cost gate may swap in parallel operators, and
    // EXPLAIN surfaces them with their fan-out.
    std::string parallel =
        Explain(doc, text, sparql::EngineConfig::ByName("planned@4"));
    if (parallel.find("ParallelScan[4]") != std::string::npos ||
        parallel.find("PartitionedHashJoin[4]") != std::string::npos ||
        parallel.find("ParallelUnion[4]") != std::string::npos) {
      saw_parallel = true;
    }
  }
  // At 30k triples at least one of the join-bound queries must have
  // cleared a fan-out gate; otherwise the gates (or the operator
  // naming) regressed.
  CHECK(saw_parallel);
}

SP2B_TEST(parallel_tables_identical) {
  // Lanes probe one shared hash index with the serial kernel and
  // stitch in morsel order, so planned@4 materializes the very table
  // planned does: row for row, not just the same sorted grid.
  const LoadedDocument& doc = Fixture(10000);
  const std::string q4 = GetQuery("q4").text;
  CHECK(Explain(doc, q4, sparql::EngineConfig::ByName("planned@4"))
            .find("PartitionedHashJoin[4]") != std::string::npos);
  for (const char* id : {"q4", "q6"}) {
    sparql::AstQuery ast = sparql::Parse(GetQuery(id).text, DefaultPrefixes());
    sparql::Engine serial(*doc.store, *doc.dict,
                          sparql::EngineConfig::Planned(), doc.stats.get());
    sparql::Engine parallel(*doc.store, *doc.dict,
                            sparql::EngineConfig::ByName("planned@4"),
                            doc.stats.get());
    const sparql::QueryResult a = serial.Execute(ast);
    const sparql::QueryResult b = parallel.Execute(ast);
    CHECK(a.rows.size() > 0);
    CHECK_EQ(a.rows.size(), b.rows.size());
    CHECK_EQ(a.rows.width(), b.rows.width());
    for (size_t r = 0; r < a.rows.size(); ++r) {
      if (!std::equal(a.rows.Row(r), a.rows.Row(r) + a.rows.width(),
                      b.rows.Row(r))) {
        throw sp2b::test::CheckFailure(std::string(id) + ": row " +
                                       std::to_string(r) + " differs");
      }
    }
  }
}

SP2B_TEST(shared_parallel_union_regression) {
  // Regression: a ParallelUnion whose branches share a
  // PartitionedHashJoin-rooted outer chain once deadlocked the pool
  // (~1 in 4 runs): a worker lane blocked on the shared operator's
  // mutex while the caller lane — holding that mutex — ran a nested
  // ParallelFor whose queued lane task no worker was free to claim.
  // The pool now revokes unclaimed lane tasks before its rendezvous.
  // Needs a store big enough that the nested operators clear their
  // fan-out gates (>= 2 morsels / partitions), hence 100k.
  const LoadedDocument& doc = Fixture(100000);
  const std::string query =
      "SELECT ?name WHERE { ?article rdf:type bench:Article . "
      "?author foaf:name ?name . ?article dc:creator ?author . "
      "{ ?article swrc:pages ?p } UNION "
      "{ ?article dcterms:references ?b } }";
  const std::vector<std::string> reference =
      SortedGrid(doc, query, sparql::EngineConfig::Planned());
  CHECK(reference.size() > 1000);
  for (int round = 0; round < 12; ++round) {
    std::vector<std::string> grid =
        SortedGrid(doc, query, sparql::EngineConfig::ByName("planned@2"));
    CHECK(grid == reference);
  }
}

SP2B_TEST(concurrent_store_scans) {
  // Raw store layer under concurrency: 4 threads each streaming
  // overlapping patterns through their own cursors on the one shared
  // store; every stream must match the single-threaded reference.
  const LoadedDocument& doc = Fixture(5000);
  rdf::TermId type = doc.dict->FindIri(
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  rdf::TermId creator = doc.dict->FindIri(
      "http://purl.org/dc/elements/1.1/creator");
  std::vector<rdf::TriplePattern> patterns = {
      {},  // full scan
      {rdf::kNoTerm, type, rdf::kNoTerm},
      {rdf::kNoTerm, creator, rdf::kNoTerm},
  };
  auto drain = [&](const rdf::TriplePattern& p) {
    std::vector<rdf::Triple> out;
    rdf::ScanCursor cursor;
    doc.store->Scan(p, &cursor);
    for (rdf::TripleBlock b = cursor.Next(); !b.empty(); b = cursor.Next()) {
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  };
  std::vector<std::vector<rdf::Triple>> reference;
  for (const auto& p : patterns) reference.push_back(drain(p));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (size_t k = 0; k < patterns.size(); ++k) {
          if (drain(patterns[k]) != reference[k]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK_EQ(mismatches.load(), 0);
}

SP2B_TEST_MAIN()
