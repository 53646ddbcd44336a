// Join-strategy benchmark: the queries the paper designed to stress
// join processing — q4 (unbound-variable chain join, near-quadratic
// result), q5a (implicit join through a FILTER equality), q8 (UNION
// with inequality filters), q9 (unbound-predicate UNION) — across the
// optimization levels on 50k and 250k triples, plus the
// "planned-hash" engine: the hash-join-only planner kept as the
// baseline the order-aware merge joins are measured against. q9 is
// where the merge pays off most: both UNION branches become galloping
// ScanMergeJoin intersections of two sorted index ranges instead of a
// 250k-row hash build. SP2B_SIZES / SP2B_TIMEOUT override the
// defaults; --json <path> additionally emits machine-readable
// per-query timings.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.h"

using namespace sp2b;
using namespace sp2b::bench;

namespace {

/// Emits the grid as a JSON array of {query, engine, triples, ms}
/// records.
bool WriteJson(const std::string& path, const ResultGrid& grid,
               const std::vector<EngineSpec>& specs,
               const std::vector<uint64_t>& sizes,
               const std::vector<std::string>& ids) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  bool first = true;
  for (uint64_t size : sizes) {
    for (const EngineSpec& s : specs) {
      for (const std::string& qid : ids) {
        const QueryRun* run = grid.Find(s.name, size, qid);
        if (run == nullptr || run->outcome != Outcome::kSuccess) continue;
        if (!first) out << ",\n";
        first = false;
        char ms[32];
        std::snprintf(ms, sizeof(ms), "%.3f", run->seconds * 1000.0);
        out << "  {\"query\": \"" << qid << "\", \"engine\": \"" << s.name
            << "\", \"triples\": " << size << ", \"ms\": " << ms << "}";
      }
    }
  }
  out << "\n]\n";
  out.flush();  // surface buffered-write failures before reporting
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  std::printf("== Join strategies: optimizer levels on the join-bound "
              "queries ==\n");
  DocumentPool pool;
  std::vector<uint64_t> sizes =
      std::getenv("SP2B_SIZES") ? SizesFromEnv()
                                : std::vector<uint64_t>{50000, 250000};
  RunOptions opts;
  opts.timeout_seconds = TimeoutFromEnv(30.0);

  std::vector<EngineSpec> specs = OptimizerLevelSpecs();
  specs.insert(specs.end() - 1, PlannedHashEngineSpec());
  std::vector<std::string> ids{"q4", "q5a", "q8", "q9"};
  ResultGrid grid = RunGrid(pool, specs, sizes, ids, opts, /*verbose=*/true);

  for (const std::string& qid : ids) {
    std::printf("--- %s: %s ---\n", qid.c_str(),
                GetQuery(qid).description.c_str());
    std::vector<std::string> headers{"size"};
    for (const EngineSpec& s : specs) {
      headers.push_back(s.name + " [s]");
      headers.push_back("results");
    }
    Table table(headers);
    for (uint64_t size : sizes) {
      std::vector<std::string> row{SizeLabel(size)};
      for (const EngineSpec& s : specs) {
        const QueryRun* run = grid.Find(s.name, size, qid);
        if (run->outcome == Outcome::kSuccess) {
          row.push_back(FormatSeconds(run->seconds));
          row.push_back(FormatCount(run->result_count));
        } else {
          row.push_back(std::string(1, OutcomeChar(run->outcome)));
          row.push_back("-");
        }
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  auto speedup_table = [&](const char* title, const char* base) {
    std::printf("--- planned vs. %s speedup ---\n", title);
    Table speedup({"size", "q4", "q5a", "q8", "q9"});
    for (uint64_t size : sizes) {
      std::vector<std::string> row{SizeLabel(size)};
      for (const std::string& qid : ids) {
        const QueryRun* s = grid.Find(base, size, qid);
        const QueryRun* p = grid.Find("planned", size, qid);
        if (s->outcome == Outcome::kSuccess &&
            p->outcome == Outcome::kSuccess && p->seconds > 0) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.2fx", s->seconds / p->seconds);
          row.push_back(buf);
        } else {
          row.push_back("-");
        }
      }
      speedup.AddRow(std::move(row));
    }
    std::printf("%s\n", speedup.ToString().c_str());
  };
  // planned-hash is the PR-2 planner (hash joins only): the delta is
  // exactly what order-aware merge joins buy.
  speedup_table("planned-hash (merge-join gain)", "planned-hash");
  speedup_table("semantic", "semantic");

  std::printf(
      "Star- and chain-shaped BGPs dominate real query logs; physical\n"
      "order pays off exactly there: q9's UNION branches collapse into\n"
      "galloping ScanMergeJoin intersections of two sorted index\n"
      "ranges (no hash build, no materialized scan), while q4's star\n"
      "sides still build once and meet in a single bushy hash join.\n");

  if (!json_path.empty()) {
    if (!WriteJson(json_path, grid, specs, sizes, ids)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
