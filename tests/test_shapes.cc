// Generated-query differential grids: the seeded shape generator
// emits parameterized star / chain / snowflake / path queries over
// the DBLP vocabulary (constants sampled from the store), and every
// query must produce the identical sorted result grid — and the
// identical order-independent checksum — on every {MemStore,
// IndexStore, VerticalStore} x {naive, indexed, semantic, planned,
// planned-hash, planned@4} combination, plus a pinned LiveStore
// snapshot. mem x naive is the ground truth. A failing query prints a
// one-line repro (the seed environment override plus the case name)
// and the full query text.
//
// The same corpus doubles as a parser fuzz harness: every rendered
// query must round-trip through Parse to a fixed point, and
// deterministic mutations of the corpus must yield ParseError or
// success — never a crash (the sanitizer CI job runs these cases
// under ASan/UBSan).
#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sp2b/gen/query_shapes.h"
#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "test_util.h"

using namespace sp2b;

namespace {

// Small enough that the naive engine (full scan per pattern) stays
// affordable across hundreds of generated queries, large enough that
// every predicate the generator samples has real triples.
constexpr uint64_t kShapeTriples = 2000;
constexpr size_t kQueriesPerShape = 50;

const StoreKind kStores[] = {StoreKind::kMem, StoreKind::kIndex,
                             StoreKind::kVertical};
const char* kStoreNames[] = {"mem", "index", "vertical"};
const char* kEngines[] = {"naive", "indexed", "semantic", "planned",
                          "planned-hash", "planned@4"};

/// SP2B_SHAPES_SEED overrides the corpus seed — the repro printed by
/// a failing case round-trips through this.
uint64_t CorpusSeed() {
  const char* env = std::getenv("SP2B_SHAPES_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260809;
}

const LoadedDocument& Fixture(StoreKind kind) {
  static auto* docs = new std::map<StoreKind, LoadedDocument>();
  auto it = docs->find(kind);
  if (it == docs->end()) {
    it = docs->emplace(kind, GenerateDocument(kShapeTriples, kind,
                                              /*with_stats=*/true))
             .first;
  }
  return it->second;
}

struct GridResult {
  std::vector<std::string> rows;  // sorted projected rows
  uint64_t checksum = 0;          // order-independent FNV over the grid
};

GridResult Grid(const rdf::Store& store, const rdf::Dictionary& dict,
                const rdf::Stats* stats, const std::string& query_text,
                const sparql::EngineConfig& cfg) {
  sparql::AstQuery ast = sparql::Parse(query_text, DefaultPrefixes());
  sparql::Engine engine(store, dict, cfg, stats);
  sparql::QueryResult result = engine.Execute(ast);
  GridResult grid;
  grid.checksum = ResultGridChecksum(result, dict);
  grid.rows.reserve(result.row_count());
  for (size_t i = 0; i < result.row_count(); ++i) {
    grid.rows.push_back(result.RowToString(i, dict));
  }
  std::sort(grid.rows.begin(), grid.rows.end());
  return grid;
}

[[noreturn]] void FailWithRepro(const gen::ShapeQuery& q,
                                const std::string& combo,
                                const std::string& case_name,
                                const std::string& why) {
  std::ostringstream msg;
  msg << q.id << " diverged on " << combo << " (" << why << ")\n"
      << "repro: SP2B_SHAPES_SEED=" << q.seed << " ./test_shapes "
      << case_name << "\n"
      << "query: " << q.text;
  throw test::CheckFailure(msg.str());
}

/// Differential grid over the full store x engine matrix for one
/// generated query, against the mem x naive ground truth, which is
/// executed once and returned.
GridResult CheckQuery(const gen::ShapeQuery& q, const std::string& case_name) {
  const LoadedDocument& ref_doc = Fixture(StoreKind::kMem);
  GridResult reference =
      Grid(*ref_doc.store, *ref_doc.dict, ref_doc.stats.get(), q.text,
           sparql::EngineConfig::ByName("naive"));
  for (size_t s = 0; s < 3; ++s) {
    const LoadedDocument& doc = Fixture(kStores[s]);
    for (const char* engine : kEngines) {
      // The mem x naive cell is the reference itself.
      if (kStores[s] == StoreKind::kMem && std::string(engine) == "naive") {
        continue;
      }
      GridResult got = Grid(*doc.store, *doc.dict, doc.stats.get(), q.text,
                            sparql::EngineConfig::ByName(engine));
      std::string combo = std::string(kStoreNames[s]) + " x " + engine;
      if (got.rows != reference.rows) {
        FailWithRepro(q, combo, case_name,
                      "rows: " + std::to_string(got.rows.size()) + " vs " +
                          std::to_string(reference.rows.size()));
      }
      if (got.checksum != reference.checksum) {
        FailWithRepro(q, combo, case_name, "checksum mismatch");
      }
    }
  }
  return reference;
}

/// One shape's corpus: kQueriesPerShape queries with depth / fanout /
/// selectivity swept deterministically from the seed.
std::vector<gen::ShapeQuery> ShapeCorpus(const std::string& shape) {
  const LoadedDocument& doc = Fixture(StoreKind::kIndex);
  gen::QueryShapeGenerator g(*doc.store, *doc.dict, CorpusSeed());
  std::vector<gen::ShapeQuery> out;
  out.reserve(kQueriesPerShape);
  for (size_t i = 0; i < kQueriesPerShape; ++i) {
    int sel = static_cast<int>(i % 3);
    int size = 1 + static_cast<int>(i % 6);
    if (shape == "star") {
      out.push_back(g.Star(size, sel));
    } else if (shape == "chain") {
      out.push_back(g.Chain(size, sel));
    } else if (shape == "snowflake") {
      out.push_back(g.Snowflake(1 + static_cast<int>(i % 4), sel));
    } else {
      out.push_back(g.Path(sel));
    }
  }
  return out;
}

void RunShapeGrid(const std::string& shape, const std::string& case_name) {
  size_t nonempty = 0;
  for (const gen::ShapeQuery& q : ShapeCorpus(shape)) {
    CHECK_EQ(q.shape, shape);
    if (!CheckQuery(q, case_name).rows.empty()) ++nonempty;
  }
  // The corpus must exercise real data, not vacuous empty grids.
  CHECK(nonempty >= kQueriesPerShape / 4);
}

}  // namespace

SP2B_TEST(star_grid) { RunShapeGrid("star", "star_grid"); }
SP2B_TEST(chain_grid) { RunShapeGrid("chain", "chain_grid"); }
SP2B_TEST(snowflake_grid) { RunShapeGrid("snowflake", "snowflake_grid"); }
SP2B_TEST(path_grid) { RunShapeGrid("path", "path_grid"); }

// A pinned LiveStore snapshot (built by ingesting the same fixture as
// N-Triples) must serve every shape the same grid as mem x naive —
// the snapshot's merged-scan surface is a fourth store column.
SP2B_TEST(live_snapshot_grid) {
  const LoadedDocument& ref_doc = Fixture(StoreKind::kMem);
  std::ostringstream nt;
  rdf::WriteNTriples(*ref_doc.store, *ref_doc.dict, nt);
  rdf::LiveStore live;
  live.IngestNTriples(nt.str());
  std::shared_ptr<const rdf::SnapshotStore> snap = live.Pin();

  gen::QueryShapeGenerator g(*ref_doc.store, *ref_doc.dict, CorpusSeed());
  std::vector<gen::ShapeQuery> corpus = g.Corpus(40);
  for (const gen::ShapeQuery& q : corpus) {
    GridResult reference =
        Grid(*ref_doc.store, *ref_doc.dict, ref_doc.stats.get(), q.text,
             sparql::EngineConfig::ByName("naive"));
    for (const char* engine : {"semantic", "planned", "planned@4"}) {
      GridResult got = Grid(*snap, live.dict(), nullptr, q.text,
                            sparql::EngineConfig::ByName(engine));
      if (got.rows != reference.rows || got.checksum != reference.checksum) {
        FailWithRepro(q, std::string("live-snapshot x ") + engine,
                      "live_snapshot_grid", "grid mismatch");
      }
    }
  }
}

// Same seed, same store -> byte-identical corpus (ids and texts);
// different seed -> at least one sampled constant differs.
SP2B_TEST(generator_determinism) {
  const LoadedDocument& doc = Fixture(StoreKind::kIndex);
  gen::QueryShapeGenerator a(*doc.store, *doc.dict, 7);
  gen::QueryShapeGenerator b(*doc.store, *doc.dict, 7);
  std::vector<gen::ShapeQuery> ca = a.Corpus(60);
  std::vector<gen::ShapeQuery> cb = b.Corpus(60);
  CHECK_EQ(ca.size(), cb.size());
  for (size_t i = 0; i < ca.size(); ++i) {
    CHECK_EQ(ca[i].id, cb[i].id);
    CHECK_EQ(ca[i].text, cb[i].text);
    CHECK_EQ(ca[i].seed, uint64_t{7});
  }
  gen::QueryShapeGenerator c(*doc.store, *doc.dict, 8);
  std::vector<gen::ShapeQuery> cc = c.Corpus(60);
  bool diverged = false;
  for (size_t i = 0; i < cc.size(); ++i) {
    if (cc[i].text != ca[i].text) diverged = true;
  }
  CHECK(diverged);
  // Every query carries complete metadata.
  for (const gen::ShapeQuery& q : ca) {
    CHECK(!q.shape.empty());
    CHECK(q.depth >= 1);
    CHECK(q.fanout >= 1);
    CHECK(q.selectivity >= 0 && q.selectivity <= 2);
    CHECK(q.id.find(q.shape) == 0);
  }
}

// Render(Parse(text)) must be a fixed point for every generated query
// and for the whole benchmark catalog.
SP2B_TEST(fuzz_roundtrip) {
  const LoadedDocument& doc = Fixture(StoreKind::kIndex);
  gen::QueryShapeGenerator g(*doc.store, *doc.dict, CorpusSeed());
  for (const gen::ShapeQuery& q : g.Corpus(200)) {
    sparql::AstQuery ast = sparql::Parse(q.text, {});
    std::string r1 = sparql::Render(ast);
    std::string r2 = sparql::Render(sparql::Parse(r1, {}));
    if (r1 != r2) {
      FailWithRepro(q, "parser round-trip", "fuzz_roundtrip",
                    "Render(Parse(Render)) is not a fixed point");
    }
  }
  for (const BenchmarkQuery& q : AllQueries()) {
    std::string r1 = sparql::Render(sparql::Parse(q.text, DefaultPrefixes()));
    std::string r2 = sparql::Render(sparql::Parse(r1, {}));
    CHECK_EQ(r1, r2);
  }
  for (const BenchmarkQuery& q : AggregateQueries()) {
    std::string r1 = sparql::Render(sparql::Parse(q.text, DefaultPrefixes()));
    std::string r2 = sparql::Render(sparql::Parse(r1, {}));
    CHECK_EQ(r1, r2);
  }
}

// Deterministic mutations of well-formed queries plus a hand-written
// corpus of malformed path syntax: Parse must either succeed or throw
// ParseError — anything else (crash, hang, non-ParseError exception)
// fails. The sanitizer CI job runs this under ASan/UBSan.
SP2B_TEST(malformed_corpus) {
  const LoadedDocument& doc = Fixture(StoreKind::kIndex);
  gen::QueryShapeGenerator g(*doc.store, *doc.dict, CorpusSeed());
  std::vector<std::string> corpus;
  for (const gen::ShapeQuery& q : g.Corpus(40)) corpus.push_back(q.text);

  auto try_parse = [](const std::string& text) {
    try {
      sparql::Parse(text, {});
    } catch (const sparql::ParseError&) {
      // expected for malformed input
    }
  };

  uint64_t h = CorpusSeed();
  auto next = [&h]() {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    return h;
  };
  for (const std::string& text : corpus) {
    for (int m = 0; m < 8; ++m) {
      std::string mutant = text;
      size_t pos = next() % std::max<size_t>(1, mutant.size());
      switch (next() % 5) {
        case 0:
          mutant.resize(pos);  // truncate
          break;
        case 1:
          mutant.erase(pos, 1);  // drop a byte
          break;
        case 2:
          mutant.insert(pos, 1, "+*/{}<>\"?.\\"[next() % 11]);
          break;
        case 3:
          mutant[pos] = static_cast<char>(next() % 256);  // corrupt
          break;
        default:
          mutant.insert(pos, mutant.substr(pos / 2, 16));  // duplicate
          break;
      }
      try_parse(mutant);
    }
  }

  const char* hand_written[] = {
      "",
      "SELECT",
      "SELECT * WHERE {",
      "SELECT * WHERE { ?a <p>+* ?b }",
      "SELECT * WHERE { ?a ?v+ ?b }",     // closure needs a constant IRI
      "SELECT * WHERE { ?a ?v* ?b }",
      "SELECT * WHERE { ?a <p>/?v ?b }",  // sequence steps must be IRIs
      "SELECT * WHERE { ?a <p>/ }",
      "SELECT * WHERE { ?a <p>+ }",
      "SELECT * WHERE { ?a <p> \"unterminated }",
      "SELECT * WHERE { ?a <p> \"esc\\",
      "SELECT ?x WHERE { ?x <p>+ ?y . FILTER (?y = ) }",
      "ASK { ?a <p>* ?b",
  };
  for (const char* text : hand_written) try_parse(text);
  // Moderate nesting must not blow the recursive-descent stack.
  std::string deep = "SELECT * WHERE ";
  for (int i = 0; i < 64; ++i) deep += "{ ";
  deep += "?a <p> ?b ";
  for (int i = 0; i < 64; ++i) deep += "} ";
  try_parse(deep);

  // The mutated corpus must not have broken the parser's state for
  // good input: a well-formed query still parses.
  sparql::AstQuery ok =
      sparql::Parse("SELECT * WHERE { ?a <http://p>+ ?b }", {});
  CHECK_EQ(ok.where.triples.size(), size_t{1});
}

// LIMIT pushdown: eligible plans carry the marker and return exactly
// the capped rows; ORDER BY / DISTINCT suppress the pushdown and
// still return correct results.
SP2B_TEST(limit_pushdown) {
  const LoadedDocument& doc = Fixture(StoreKind::kIndex);
  const std::string base =
      "SELECT ?d ?n WHERE { ?d <http://purl.org/dc/elements/1.1/creator> "
      "?p . ?p <http://xmlns.com/foaf/0.1/name> ?n }";
  sparql::Engine planned(*doc.store, *doc.dict,
                         sparql::EngineConfig::ByName("planned"),
                         doc.stats.get());

  uint64_t total = 0;
  {
    sparql::QueryResult full = planned.Execute(sparql::Parse(base, {}));
    total = full.row_count();
    CHECK(total > 10);
  }
  {
    std::string explain;
    sparql::QueryResult r = planned.ExecuteExplained(
        sparql::Parse(base + " LIMIT 5", {}), {}, &explain);
    CHECK_EQ(r.row_count(), size_t{5});
    CHECK(explain.find("limit-pushdown") != std::string::npos);
  }
  {
    // ORDER BY needs the full result: no pushdown marker, and the
    // limited rows equal the head of the full ordering.
    std::string explain;
    sparql::QueryResult r = planned.ExecuteExplained(
        sparql::Parse(base + " ORDER BY ?n LIMIT 5", {}), {}, &explain);
    CHECK_EQ(r.row_count(), size_t{5});
    CHECK(explain.find("limit-pushdown") == std::string::npos);
  }
  {
    std::string explain;
    sparql::QueryResult r = planned.ExecuteExplained(
        sparql::Parse("SELECT DISTINCT ?n WHERE { ?p "
                      "<http://xmlns.com/foaf/0.1/name> ?n } LIMIT 5",
                      {}),
        {}, &explain);
    CHECK_EQ(r.row_count(), size_t{5});
    CHECK(explain.find("limit-pushdown") == std::string::npos);
  }
  {
    // OFFSET composes: cap = offset + limit, slice still exact.
    sparql::QueryResult r =
        planned.Execute(sparql::Parse(base + " LIMIT 7 OFFSET 3", {}));
    CHECK_EQ(r.row_count(), size_t{7});
  }
  // The backtracking engines stop early too and agree on row counts.
  for (const char* engine : {"naive", "semantic"}) {
    sparql::Engine e(*doc.store, *doc.dict,
                     sparql::EngineConfig::ByName(engine), doc.stats.get());
    sparql::QueryResult r = e.Execute(sparql::Parse(base + " LIMIT 5", {}));
    CHECK_EQ(r.row_count(), size_t{5});
    sparql::QueryResult all = e.Execute(sparql::Parse(base, {}));
    CHECK_EQ(all.row_count(), total);
  }
}

SP2B_TEST_MAIN()
