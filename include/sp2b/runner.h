// Document provisioning and query running: loads/generates documents
// into a chosen store, defines the engine lineup benchmarked by the
// paper tables, and executes benchmark queries with timeout/memory
// outcome classification.
#ifndef SP2B_RUNNER_H_
#define SP2B_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sp2b/metrics.h"
#include "sp2b/queries.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"
#include "sp2b/strict_parse.h"

namespace sp2b {

/// A parsed document resident in a store.
struct LoadedDocument {
  uint64_t triples = 0;
  double load_seconds = 0.0;
  uint64_t memory_bytes = 0;  // store + dictionary estimate
  std::unique_ptr<rdf::Store> store;
  std::unique_ptr<rdf::Dictionary> dict;
  std::unique_ptr<rdf::Stats> stats;  // null unless with_stats
};

LoadedDocument LoadDocument(const std::string& path, StoreKind kind,
                            bool with_stats);

/// Generates `triples` (seed 4711) straight into a store, bypassing
/// the filesystem.
LoadedDocument GenerateDocument(uint64_t triples, StoreKind kind,
                                bool with_stats);

/// One benchmarked engine: a storage scheme plus an optimizer config.
/// `in_memory` engines re-load the document from file on every query
/// (the ARQ/SesameM execution model of Fig. 5 top).
struct EngineSpec {
  std::string name;
  StoreKind store_kind = StoreKind::kIndex;
  sparql::EngineConfig config = sparql::EngineConfig::Indexed();
  bool in_memory = false;
};

/// mem-naive, mem-filter (in-memory) and native-index,
/// native-vertical, native-planned.
std::vector<EngineSpec> DefaultEngineSpecs();

/// The fastest correct backtracking configuration (hexastore +
/// semantic optimizer): quickstart's Table V counts and the
/// optimizer ablation's semantic column.
EngineSpec SemanticEngineSpec();

/// The operator-tree engine with merge joins disabled — the
/// hash-join-only planner, kept as the measurable baseline the
/// order-aware merge joins are benchmarked against (bench_joins).
EngineSpec PlannedHashEngineSpec();

/// The optimization-level ablation lineup on the hexastore:
/// naive -> indexed -> semantic -> planned.
std::vector<EngineSpec> OptimizerLevelSpecs();

struct RunOptions {
  double timeout_seconds = 30.0;
  /// Materialized-row cap mapped to Outcome::kMemory (0 = unlimited).
  uint64_t max_result_rows = 20'000'000;
};

// ParsePositiveSeconds / ParsePositiveCount (and the rest of the
// strict full-string parse family) live in sp2b/strict_parse.h,
// included above — HTTP headers and example CLIs share them.

/// SP2B_TIMEOUT env var (seconds), else `default_seconds`. Malformed
/// values warn on stderr and fall back to the default rather than
/// being silently ignored (and "5x"-style trailing garbage is a
/// warning, not an accepted 5).
double TimeoutFromEnv(double default_seconds);

/// SP2B_SIZES env var ("10000,50000"), else {1000, 10000, 50000}.
/// Malformed list items warn on stderr and are skipped.
std::vector<uint64_t> SizesFromEnv();

/// Directory for generated documents: SP2B_DATA_DIR or ./sp2b_data
/// (created on demand).
std::string DataDir();

/// Path of the N-Triples document with `size` triples in `dir`,
/// generating it (seed 4711) when absent.
std::string EnsureDocumentFile(uint64_t size, const std::string& dir);

/// Runs one query. Native engines use `loaded`; in-memory engines
/// re-load `path` as part of the measured time (loaded may be null).
QueryRun RunQuery(const EngineSpec& spec, const std::string& path,
                  const LoadedDocument* loaded, const BenchmarkQuery& query,
                  const RunOptions& opts);

/// Runs one query on an already-loaded document (query time only).
QueryRun RunOnLoaded(const EngineSpec& spec, const LoadedDocument& doc,
                     const BenchmarkQuery& query, const RunOptions& opts);

}  // namespace sp2b

#endif  // SP2B_RUNNER_H_
