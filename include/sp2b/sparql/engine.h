// The SPARQL evaluator at five levels (EngineConfig::Level). naive,
// indexed and semantic run backtracking index-nested-loop evaluation
// of the compiled algebra (Section V); planned and planned-hash run
// every SELECT, correlated OPTIONALs included, through the physical
// operator tree of plan.h. ASK keeps the backtracking evaluator at
// every level, since it stops at the first solution; a planned level
// compiles it as semantic does.
#ifndef SP2B_SPARQL_ENGINE_H_
#define SP2B_SPARQL_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sp2b/sparql/ast.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"

namespace sp2b::sparql {

struct EngineConfig {
  /// The engine levels, each a superset of the previous one's rewrites
  /// up to semantic:
  ///   kNaive       — backtracking, syntactic pattern order, filters
  ///                  evaluated last;
  ///   kIndexed     — + join reordering by selectivity and filters
  ///                  pushed to the first stage that binds them;
  ///   kSemantic    — + equality filters turned into bindings
  ///                  (FILTER(?a=?b / ?a=const)) and OPTIONAL left
  ///                  joins seeded from equalities;
  ///   kPlanned     — semantic's rewrites feeding the cost-based
  ///                  physical planner (plan.h), which orders joins
  ///                  itself: order-aware merge joins (ScanMergeJoin,
  ///                  MergeScanJoin) when an input arrives sorted on
  ///                  the join key, hash joins when both inputs are
  ///                  large, index nested loops for selective probes;
  ///   kPlannedHash — kPlanned without merge joins, the hash-join-only
  ///                  baseline for the merge-join strategy.
  enum Level { kNaive, kIndexed, kSemantic, kPlanned, kPlannedHash };

  Level level = kNaive;
  /// Intra-query parallelism of the planned engine: with threads > 1
  /// the planner may choose morsel-driven parallel scans, partitioned
  /// parallel hash joins, and parallel union branch execution on the
  /// shared thread pool (exec/thread_pool.h). The default 1 produces
  /// today's serial plans bit-for-bit; the choice is cost-gated, so
  /// small inputs stay serial even with threads > 1. Only the planned
  /// levels consult it.
  int threads = 1;

  /// SELECTs run through the physical operator tree (plan.h) instead
  /// of the backtracking evaluator.
  bool planned() const { return level >= kPlanned; }

  /// The level's name, with "@N" appended when threads > 1
  /// ("planned@4"); ByName(name()) reproduces the config.
  std::string name() const;

  static EngineConfig Naive() { return {kNaive}; }
  static EngineConfig Indexed() { return {kIndexed}; }
  static EngineConfig Semantic() { return {kSemantic}; }
  static EngineConfig Planned() { return {kPlanned}; }
  static EngineConfig PlannedHash() { return {kPlannedHash}; }

  /// Lookup by level name ("naive", "indexed", "semantic", "planned",
  /// "planned-hash"); a "@N" suffix ("planned@4"; N digits only,
  /// 1 <= N <= 256) additionally sets `threads`. Throws
  /// std::out_of_range for anything else.
  static EngineConfig ByName(const std::string& name);
};

class QueryTimeout : public std::runtime_error {
 public:
  QueryTimeout() : std::runtime_error("query timeout") {}
};

class QueryMemoryExhausted : public std::runtime_error {
 public:
  QueryMemoryExhausted() : std::runtime_error("query memory limit") {}
};

struct QueryLimits {
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  /// Maximum materialized result rows (0 = unlimited); exceeding it
  /// throws QueryMemoryExhausted.
  uint64_t max_rows = 0;

  static QueryLimits None() { return {}; }
  static QueryLimits WithTimeout(std::chrono::milliseconds ms) {
    QueryLimits limits;
    limits.has_deadline = true;
    limits.deadline = std::chrono::steady_clock::now() + ms;
    return limits;
  }
};

struct ExecStats {
  uint64_t probes = 0;        // index/scan lookups issued
  uint64_t bindings = 0;      // row extensions produced
};

/// A recorded trace of the cost-based planner's greedy join-order
/// decisions: the (a, b) component indices merged at each step, in
/// BuildGroup recursion order. Variable slots are numbered
/// positionally by the compiler, so a script recorded for one query
/// replays on any query of the same shape with different constants.
/// Replay pins only the merge ORDER — the join method and costs are
/// re-derived from the current cardinality estimates, and a
/// structurally impossible entry makes the planner fall back to its
/// full search mid-build.
/// Kept only for the endpoint benchmark's replay (benchmark/endpoint.cc).
struct PlanScript {
  /// True once a plan was recorded and executed: every SELECT on a
  /// planned level (false for ASK, which runs without a plan).
  bool valid = false;
  std::vector<std::pair<uint16_t, uint16_t>> merges;
};

/// Row-major table of TermIds; kNoTerm marks unbound slots.
class BindingTable {
 public:
  explicit BindingTable(size_t width = 0) : width_(width) {}

  void Reset(size_t width) {
    width_ = width;
    data_.clear();
  }
  void Append(const rdf::TermId* row) { data_.insert(data_.end(), row, row + width_); }
  /// Bulk-appends all rows of `other` (same width required) — the
  /// stitch step of parallel operators merging per-morsel tables.
  void AppendFrom(const BindingTable& other) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  }
  void Reserve(size_t rows) { data_.reserve(data_.size() + rows * width_); }
  const rdf::TermId* Row(size_t i) const { return data_.data() + i * width_; }
  rdf::TermId* MutableRow(size_t i) { return data_.data() + i * width_; }
  /// Keeps the first `rows` rows (rows <= size()).
  void Truncate(size_t rows) { data_.resize(rows * width_); }
  size_t size() const { return width_ == 0 ? 0 : data_.size() / width_; }
  size_t width() const { return width_; }
  uint64_t MemoryBytes() const {
    return data_.capacity() * sizeof(rdf::TermId);
  }

 private:
  size_t width_ = 0;
  std::vector<rdf::TermId> data_;
};

/// First id of the local-term range of QueryResult (aggregation
/// outputs). Dictionary ids are dense from 1 and can never reach this
/// (the dictionary's chunk directory caps out far below 2^31).
inline constexpr rdf::TermId kLocalTermBase = rdf::TermId{1} << 31;

struct QueryResult {
  bool is_ask = false;
  bool ask_value = false;
  /// All variables of the result table, in slot order.
  std::vector<std::string> var_names;
  /// Slots (indexes into a row / var_names) of the projected variables.
  std::vector<int> projection;
  BindingTable rows;
  /// Terms synthesized by aggregation; ids live in a reserved range
  /// far above any dictionary id: id == kLocalTermBase + i refers to
  /// local_terms[i]. The fixed base (instead of dict.size() + 1 + i)
  /// keeps local ids stable while a live dictionary keeps growing
  /// between execution and serialization.
  std::vector<rdf::Term> local_terms;
  ExecStats stats;

  size_t row_count() const { return is_ask ? (ask_value ? 1 : 0) : rows.size(); }

  /// "var=value" pairs of the projected columns of row `i`.
  std::string RowToString(size_t i, const rdf::Dictionary& dict) const;

  const rdf::Term& ResolveTerm(rdf::TermId id,
                               const rdf::Dictionary& dict) const;
};

class Engine {
 public:
  Engine(const rdf::Store& store, const rdf::Dictionary& dict,
         EngineConfig config, const rdf::Stats* stats = nullptr);

  QueryResult Execute(const AstQuery& query) {
    return Execute(query, QueryLimits::None());
  }
  QueryResult Execute(const AstQuery& query, const QueryLimits& limits);

  /// Executes like Execute and additionally renders the physical plan
  /// (operator tree with estimated vs. actual cardinalities) into
  /// `explain`. Only the planned engine produces a plan (for ASK it
  /// names the backtracking evaluator instead); other levels leave
  /// `explain` untouched.
  QueryResult ExecuteExplained(const AstQuery& query,
                               const QueryLimits& limits,
                               std::string* explain);

  /// Execute with the plan record/replay hooks: when `replay` is
  /// non-null (and valid), the planner follows its recorded merge
  /// decisions instead of searching; when `record` is non-null, the
  /// decisions taken are written into it (record->valid set for
  /// SELECT, cleared for ASK). Only the planned levels consult either;
  /// both may be null.
  /// Kept only for the endpoint benchmark's replay (benchmark/endpoint.cc).
  QueryResult ExecutePrepared(const AstQuery& query,
                              const QueryLimits& limits,
                              const PlanScript* replay, PlanScript* record);

 private:
  QueryResult ExecuteImpl(const AstQuery& query, const QueryLimits& limits,
                          std::string* explain,
                          const PlanScript* replay = nullptr,
                          PlanScript* record = nullptr);

  const rdf::Store& store_;
  const rdf::Dictionary& dict_;
  EngineConfig config_;
  const rdf::Stats* stats_;
};

}  // namespace sp2b::sparql

#endif  // SP2B_SPARQL_ENGINE_H_
