// Cross-engine differential correctness: every benchmark query (Q1-Q12
// variants and the aggregate extension qa1-qa4) must produce the
// identical result grid on every {MemStore, IndexStore, VerticalStore}
// x {naive, indexed, semantic, planned, planned-hash, planned@4}
// combination of the fixed-seed 5k fixture. The mem x naive combination — a full scan
// per pattern in syntactic order, no rewrites — is the ground truth;
// any optimization that changes a sorted projected-row grid is a bug.
// Including both planned (order-aware merge joins) and planned-hash
// (hash joins only) pins the two join strategies against each other on
// every store: a merge join picked over a hash join must produce the
// identical sorted results. One CTest case per query keeps failures
// localized.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sp2b/queries.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/ntriples.h"
#include "nested_shapes.h"
#include "test_util.h"

using namespace sp2b;

namespace {

constexpr uint64_t kFixtureTriples = 5000;  // seed 4711

const char* kStoreNames[] = {"mem", "index", "vertical"};
const StoreKind kStores[] = {StoreKind::kMem, StoreKind::kIndex,
                             StoreKind::kVertical};
// "planned@4" is the planned engine with intra-query parallelism
// (morsel-driven scans, partitioned hash joins, parallel unions): the
// differential grid pins every parallel plan against mem x naive too.
const char* kEngines[] = {"naive", "indexed", "semantic", "planned",
                          "planned-hash", "planned@4"};

const LoadedDocument& Fixture(StoreKind kind) {
  static std::map<StoreKind, LoadedDocument>* docs =
      new std::map<StoreKind, LoadedDocument>();
  auto it = docs->find(kind);
  if (it == docs->end()) {
    it = docs->emplace(kind, GenerateDocument(kFixtureTriples, kind,
                                              /*with_stats=*/true))
             .first;
  }
  return it->second;
}

/// The comparable result grid: one string per solution (projected
/// columns resolved to lexical forms), sorted so enumeration order —
/// which legitimately differs between backtracking and hash-join
/// execution — cannot cause false mismatches. ASK queries reduce to
/// their boolean.
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

void RunDifferential(const std::string& id) {
  const BenchmarkQuery& query = GetQuery(id);
  const std::vector<std::string> reference =
      SortedGrid(Fixture(StoreKind::kMem), query.text,
                 sparql::EngineConfig::Naive());
  for (size_t s = 0; s < 3; ++s) {
    const LoadedDocument& doc = Fixture(kStores[s]);
    for (const char* engine : kEngines) {
      std::vector<std::string> grid =
          SortedGrid(doc, query.text, sparql::EngineConfig::ByName(engine));
      if (grid == reference) continue;
      std::ostringstream msg;
      msg << id << " diverges on " << kStoreNames[s] << " x " << engine
          << ": " << grid.size() << " rows vs " << reference.size()
          << " reference rows";
      size_t limit = std::min<size_t>(3, std::max(grid.size(),
                                                  reference.size()));
      for (size_t i = 0; i < limit; ++i) {
        msg << "\n  got: " << (i < grid.size() ? grid[i] : "-")
            << "\n  ref: " << (i < reference.size() ? reference[i] : "-");
      }
      throw sp2b::test::CheckFailure(msg.str());
    }
  }
}

}  // namespace

#define SP2B_DIFFERENTIAL_TEST(id) \
  SP2B_TEST(id) { RunDifferential(#id); }

SP2B_DIFFERENTIAL_TEST(q1)
SP2B_DIFFERENTIAL_TEST(q2)
SP2B_DIFFERENTIAL_TEST(q3a)
SP2B_DIFFERENTIAL_TEST(q3b)
SP2B_DIFFERENTIAL_TEST(q3c)
SP2B_DIFFERENTIAL_TEST(q4)
SP2B_DIFFERENTIAL_TEST(q5a)
SP2B_DIFFERENTIAL_TEST(q5b)
SP2B_DIFFERENTIAL_TEST(q6)
SP2B_DIFFERENTIAL_TEST(q7)
SP2B_DIFFERENTIAL_TEST(q8)
SP2B_DIFFERENTIAL_TEST(q9)
SP2B_DIFFERENTIAL_TEST(q10)
SP2B_DIFFERENTIAL_TEST(q11)
SP2B_DIFFERENTIAL_TEST(q12a)
SP2B_DIFFERENTIAL_TEST(q12b)
SP2B_DIFFERENTIAL_TEST(q12c)
SP2B_DIFFERENTIAL_TEST(qa1)
SP2B_DIFFERENTIAL_TEST(qa2)
SP2B_DIFFERENTIAL_TEST(qa3)
SP2B_DIFFERENTIAL_TEST(qa4)

// Property paths at scale: on a 30k document the planner must route
// the closure through the TransitiveClosure operator (visible in
// EXPLAIN), produce the same grid as the backtracking engines, and
// plan identically whether or not the parallel executor is engaged —
// planned@1's explain output must be string-equal to planned's, so
// parallelism can never silently change a path plan.
SP2B_TEST(path_explain) {
  LoadedDocument doc =
      GenerateDocument(30000, StoreKind::kIndex, /*with_stats=*/true);
  auto explain_of = [&](const std::string& text,
                        const sparql::EngineConfig& cfg) {
    sparql::AstQuery ast = sparql::Parse(text, DefaultPrefixes());
    sparql::Engine engine(*doc.store, *doc.dict, cfg, doc.stats.get());
    std::string explain;
    engine.ExecuteExplained(ast, sparql::QueryLimits::None(), &explain);
    return explain;
  };
  for (const char* id : {"qp1", "qp2", "qp3", "qp4"}) {
    const BenchmarkQuery& query = GetQuery(id);
    std::string planned =
        explain_of(query.text, sparql::EngineConfig::ByName("planned"));
    // Closure queries (qp1 subClassOf+, qp2 subClassOf*) must run
    // through the TransitiveClosure operator; sequence queries (qp3,
    // qp4) desugar into joins over the hidden '#'-prefixed slot, so
    // their plans show the internal variable instead.
    const char* marker =
        (std::strcmp(id, "qp1") == 0 || std::strcmp(id, "qp2") == 0)
            ? "TransitiveClosure"
            : "?#p0";
    if (planned.find(marker) == std::string::npos) {
      throw sp2b::test::CheckFailure(std::string(id) + ": expected '" +
                                     marker + "' in plan:\n" + planned);
    }
    std::string planned1 =
        explain_of(query.text, sparql::EngineConfig::ByName("planned@1"));
    if (planned != planned1) {
      throw sp2b::test::CheckFailure(
          std::string(id) + ": planned@1 plan diverges from planned:\n" +
          planned + "\n--- vs ---\n" + planned1);
    }
    // The plan-level result still matches the backtracking semantic
    // engine on the same 30k store.
    sparql::AstQuery ast = sparql::Parse(query.text, DefaultPrefixes());
    sparql::Engine semantic(*doc.store, *doc.dict,
                            sparql::EngineConfig::Semantic(),
                            doc.stats.get());
    sparql::Engine plan_engine(*doc.store, *doc.dict,
                               sparql::EngineConfig::ByName("planned"),
                               doc.stats.get());
    sparql::QueryResult rs = semantic.Execute(ast);
    sparql::QueryResult rp = plan_engine.Execute(ast);
    std::vector<std::string> gs, gp;
    for (size_t i = 0; i < rs.row_count(); ++i) {
      gs.push_back(rs.RowToString(i, *doc.dict));
    }
    for (size_t i = 0; i < rp.row_count(); ++i) {
      gp.push_back(rp.RowToString(i, *doc.dict));
    }
    std::sort(gs.begin(), gs.end());
    std::sort(gp.begin(), gp.end());
    if (gs != gp) {
      throw sp2b::test::CheckFailure(
          std::string(id) + ": planned grid diverges from semantic at 30k (" +
          std::to_string(gp.size()) + " vs " + std::to_string(gs.size()) +
          " rows)");
    }
  }
}

// The handcrafted shapes of nested_shapes.h: every level must match
// naive, and the planned levels must run every shape through the
// operator tree — every EXPLAIN line executed (numeric rows=), the
// correlated shapes visibly planned on numbered left rows, and an
// AntiJoin exactly in the shapes marked `anti`.
SP2B_TEST(nested_shapes) {
  for (const test::NestedShape& shape : test::NestedShapes()) {
    LoadedDocument doc = test::InlineDocument(shape.data);
    const std::vector<std::string> reference =
        SortedGrid(doc, shape.query, sparql::EngineConfig::Naive());
    for (const char* engine : kEngines) {
      const sparql::EngineConfig cfg = sparql::EngineConfig::ByName(engine);
      std::vector<std::string> grid = SortedGrid(doc, shape.query, cfg);
      if (grid != reference) {
        std::ostringstream msg;
        msg << shape.name << " diverges on " << engine << ": got "
            << grid.size() << " rows vs " << reference.size()
            << " reference";
        for (const std::string& row : grid) msg << "\n  got: " << row;
        for (const std::string& row : reference) msg << "\n  ref: " << row;
        throw sp2b::test::CheckFailure(msg.str());
      }
      if (!cfg.planned()) continue;
      sparql::Engine plan_engine(*doc.store, *doc.dict, cfg, nullptr);
      std::string explain;
      plan_engine.ExecuteExplained(
          sparql::Parse(shape.query, DefaultPrefixes()),
          sparql::QueryLimits::None(), &explain);
      std::istringstream lines(explain);
      std::string line;
      bool ok = !explain.empty() &&
                explain.find("unsupported") == std::string::npos &&
                (explain.find("RowId") != std::string::npos) ==
                    shape.correlated &&
                (explain.find("AntiJoin") != std::string::npos) == shape.anti;
      while (ok && std::getline(lines, line)) {
        size_t at = line.find("rows=");
        ok = at != std::string::npos && at + 5 < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[at + 5]));
      }
      if (!ok) {
        throw sp2b::test::CheckFailure(std::string(shape.name) + " on " +
                                       engine + ": unexpected plan:\n" +
                                       explain);
      }
    }
  }
}

// Pins the documented fixed-relation `p*` deviation at every level:
// `p*` adds a self-pair only for nodes incident to a `p` edge, so a
// node with no `p` edge reaches nothing (SPARQL 1.1 would pair it with
// itself), and `?x p* ?x` relates exactly the incident nodes.
SP2B_TEST(reflexive_path_semantics) {
  LoadedDocument doc = test::InlineDocument(
      "<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/b> <http://e/p> <http://e/c> .\n"
      "<http://e/d> <http://e/q> <http://e/d> .\n"
      "<http://e/e> <http://e/q> <http://e/a> .\n");
  struct Case {
    const char* query;
    std::vector<std::string> grid;
  };
  const Case cases[] = {
      {"SELECT ?y WHERE { <http://e/d> <http://e/p>* ?y }", {}},
      {"ASK { <http://e/d> <http://e/p>* <http://e/d> }", {"no"}},
      {"SELECT ?x WHERE { ?x <http://e/p>* ?x }",
       {"x=<http://e/a>", "x=<http://e/b>", "x=<http://e/c>"}},
      {"SELECT ?y WHERE { <http://e/a> <http://e/p>* ?y }",
       {"y=<http://e/a>", "y=<http://e/b>", "y=<http://e/c>"}},
      {"SELECT ?y WHERE { <http://e/a> <http://e/p>+ ?y }",
       {"y=<http://e/b>", "y=<http://e/c>"}},
  };
  for (const Case& c : cases) {
    for (const char* engine : kEngines) {
      std::vector<std::string> grid =
          SortedGrid(doc, c.query, sparql::EngineConfig::ByName(engine));
      if (grid == c.grid) continue;
      std::ostringstream msg;
      msg << c.query << " on " << engine << ": got " << grid.size()
          << " rows, want " << c.grid.size();
      for (const std::string& row : grid) msg << "\n  got: " << row;
      throw sp2b::test::CheckFailure(msg.str());
    }
  }
}

// Twenty nested OPTIONALs, each filtering on its grandparent's
// variable, so every level is correlated inside its parent. Each level
// is decided once, before any operator is built: planning stays far
// below a doubling per level, and the rows carry one hidden row-id
// column per RowId the kept plan holds, at most one per level.
SP2B_TEST(deep_correlated_optionals) {
  constexpr int kDepth = 20;
  auto x = [](int j) { return "?x" + std::to_string(j); };
  // G_j = { ?xj <p> ?x(j+1) FILTER (?x(j+1) != ?x(j-2)) OPTIONAL G_(j+1) }
  std::string group;
  for (int j = kDepth; j >= 1; --j) {
    std::string g = x(j) + " <http://e/p> " + x(j + 1);
    if (j >= 2) g += " FILTER (" + x(j + 1) + " != " + x(j - 2) + ")";
    if (!group.empty()) g += " OPTIONAL { " + group + " }";
    group = std::move(g);
  }
  const std::string query =
      "SELECT * WHERE { ?x0 <http://e/p> ?x1 OPTIONAL { " + group + " } }";
  const size_t vars = kDepth + 2;  // ?x0 .. ?x21
  // A three-cycle with an exit: the filters both pass and fail.
  LoadedDocument doc = test::InlineDocument(
      "<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/b> <http://e/p> <http://e/c> .\n"
      "<http://e/c> <http://e/p> <http://e/a> .\n"
      "<http://e/c> <http://e/p> <http://e/d> .\n"
      "<http://e/d> <http://e/p> <http://e/b> .\n");
  const std::vector<std::string> reference =
      SortedGrid(doc, query, sparql::EngineConfig::Naive());
  const sparql::AstQuery ast = sparql::Parse(query, DefaultPrefixes());
  for (const char* engine : {"planned", "planned-hash", "planned@4"}) {
    sparql::Engine planned(*doc.store, *doc.dict,
                           sparql::EngineConfig::ByName(engine), nullptr);
    std::string explain;
    const auto start = std::chrono::steady_clock::now();
    sparql::QueryResult result = planned.ExecuteExplained(
        ast, sparql::QueryLimits::None(), &explain);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    std::vector<std::string> grid;
    for (size_t i = 0; i < result.row_count(); ++i) {
      grid.push_back(result.RowToString(i, *doc.dict));
    }
    std::sort(grid.begin(), grid.end());
    size_t row_ids = 0;  // left joins keyed on a row id
    for (size_t at = explain.find("LeftJoin [?#r"); at != std::string::npos;
         at = explain.find("LeftJoin [?#r", at + 1)) {
      ++row_ids;
    }
    const size_t width = result.rows.width();
    if (grid != reference || ms > 500.0 || row_ids == 0 ||
        width != vars + row_ids || row_ids > kDepth) {
      std::ostringstream msg;
      msg << engine << ": " << grid.size() << " rows vs "
          << reference.size() << " reference, " << ms << " ms, width "
          << width << ", " << row_ids << " row-id left joins\n"
          << explain;
      throw sp2b::test::CheckFailure(msg.str());
    }
  }
}

SP2B_TEST_MAIN()
