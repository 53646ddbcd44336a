// sp2b_query: run one benchmark query (or an ad-hoc SPARQL string)
// against an N-Triples document, with a choice of engine level.
//
// Usage:
//   sp2b_query <document.nt> <q1..q12c | -> [engine] [max_rows]
//              [--explain] [--timeout <seconds>] [--max-rows <n>]
//     engine: naive | indexed | semantic | planned | planned-hash, with
//             an optional @N thread count (planned@4); default semantic
//     '-' reads a SPARQL query from stdin (SP2B prefixes pre-declared)
//     --explain   print the physical operator tree with estimated and
//                 actual cardinalities (implies the planned engine)
//     --timeout   abort after the given wall-clock budget (exit 3)
//     --max-rows  abort after materializing this many rows (exit 4)
//
// Exit codes: 0 success, 1 error, 2 usage, 3 timeout, 4 memory limit.
//
// Example:
//   sp2b_gen -t 50000 -o d.nt && sp2b_query d.nt q8
//   sp2b_query d.nt q4 planned --explain
//   echo 'SELECT ?s WHERE { ?s rdf:type bench:Article } LIMIT 3' |
//     sp2b_query d.nt -
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sp2b/queries.h"
#include "sp2b/report.h"
#include "sp2b/runner.h"
#include "sp2b/sparql/parser.h"

using namespace sp2b;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitTimeout = 3;
constexpr int kExitMemory = 4;

int Usage() {
  std::fprintf(stderr,
               "usage: sp2b_query <document.nt> <query-id|-> "
               "[naive|indexed|semantic|planned|planned-hash][@N] "
               "[max_rows]\n"
               "       [--explain] [--timeout <seconds>] [--max-rows <n>]\n");
  return kExitUsage;
}

int Run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const sparql::QueryTimeout&) {
    std::fprintf(stderr, "error: query timed out\n");
    return kExitTimeout;
  } catch (const sparql::QueryMemoryExhausted&) {
    std::fprintf(stderr, "error: query exceeded the row/memory limit\n");
    return kExitMemory;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "error: out of memory\n");
    return kExitMemory;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

namespace {

int Run(int argc, char** argv) {
  std::vector<std::string> positional;
  bool explain = false;
  double timeout_seconds = 0.0;
  uint64_t max_result_rows = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--explain") {
      explain = true;
    } else if (arg == "--timeout") {
      if (++i >= argc) return Usage();
      auto secs = ParsePositiveSeconds(argv[i]);  // strict: "2x" is an error
      if (!secs) return Usage();
      timeout_seconds = *secs;
    } else if (arg == "--max-rows") {
      if (++i >= argc) return Usage();
      auto rows = ParsePositiveCount(argv[i]);
      if (!rows) return Usage();
      max_result_rows = *rows;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (positional.size() < 2 || positional.size() > 4) return Usage();

  std::string path = positional[0];
  std::string qid = positional[1];
  // --explain renders the physical plan, which only the planned
  // engine builds.
  std::string engine_name =
      positional.size() > 2 ? positional[2] : explain ? "planned" : "semantic";
  size_t display_rows = 25;
  if (positional.size() > 3) {
    auto rows = ParsePositiveCount(positional[3]);
    if (!rows) return Usage();
    display_rows = static_cast<size_t>(*rows);
  }

  sparql::EngineConfig cfg;
  try {
    cfg = sparql::EngineConfig::ByName(engine_name);
  } catch (const std::out_of_range&) {
    return Usage();
  }
  if (explain && !cfg.planned()) {
    std::fprintf(stderr, "error: --explain requires the planned engine\n");
    return Usage();
  }

  std::string text;
  if (qid == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    text = GetQuery(qid).text;
  }

  LoadedDocument doc = LoadDocument(path, StoreKind::kIndex, true);
  std::fprintf(stderr, "loaded %s triples in %.2fs (%.1f MB in memory)\n",
               FormatCount(doc.triples).c_str(), doc.load_seconds,
               static_cast<double>(doc.memory_bytes) / (1024 * 1024));

  sparql::AstQuery ast = sparql::Parse(text, DefaultPrefixes());
  sparql::Engine engine(*doc.store, *doc.dict, cfg, doc.stats.get());
  sparql::QueryLimits limits;
  if (timeout_seconds > 0) {
    limits = sparql::QueryLimits::WithTimeout(std::chrono::milliseconds(
        static_cast<int64_t>(timeout_seconds * 1000)));
  }
  limits.max_rows = max_result_rows;

  auto t0 = std::chrono::steady_clock::now();
  std::string plan_text;
  sparql::QueryResult result =
      engine.ExecuteExplained(ast, limits, explain ? &plan_text : nullptr);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (explain) {
    std::printf("%s\n", plan_text.c_str());
  }
  if (result.is_ask) {
    std::printf("%s\n", result.ask_value ? "yes" : "no");
  } else {
    for (size_t i = 0; i < result.row_count() && i < display_rows; ++i) {
      std::printf("%s\n", result.RowToString(i, *doc.dict).c_str());
    }
    if (result.row_count() > display_rows) {
      std::printf("... (%s rows total)\n",
                  FormatCount(result.row_count()).c_str());
    }
  }
  std::fprintf(stderr, "%s rows in %.4fs (%s probes, engine=%s)\n",
               FormatCount(result.row_count()).c_str(), secs,
               FormatCount(result.stats.probes).c_str(),
               cfg.name().c_str());
  return 0;
}

}  // namespace
