// Physical-plan layer: compiles a parsed query into an explicit
// operator tree — IndexScan, HashJoin, MergeJoin, MergeScanJoin,
// IndexNestedLoopJoin, Filter, LeftJoin, Union, Bind, RowId — with
// cost-based join ordering driven by store counts and the
// per-predicate Stats cardinalities. The planner tracks interesting
// orders: scans advertise the physical sort order of their block
// ranges, and when both join inputs arrive sorted on the join key a
// galloping merge join replaces the hash join (MergeScanJoin zips a
// sorted intermediate directly against a sorted scan range without
// materializing it). Hash joins remain the choice for large unsorted
// inputs; selective probes fall back to index nested loops. Every
// operator materializes its output once (operators form a DAG: union
// branches and correlated OPTIONAL right sides share their outer
// input), so the tree can report estimated vs. actual cardinalities
// per operator after execution (EXPLAIN).
#ifndef SP2B_SPARQL_PLAN_H_
#define SP2B_SPARQL_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sp2b/sparql/ast.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"

namespace sp2b::sparql {

namespace internal {
class Operator;
struct CompiledQuery;
}  // namespace internal

/// One operator of a physical plan, flattened pre-order for rendering
/// and assertions (children follow their parent with depth + 1).
struct PlanNodeInfo {
  int depth = 0;
  std::string op;      // operator kind: "HashJoin", "IndexScan", ...
  std::string detail;  // operands: pattern, join keys, filter text
  double est_rows = 0.0;     // planner's cardinality estimate
  uint64_t actual_rows = 0;  // materialized rows (after execution)
  bool executed = false;
};

class Plan {
 public:
  Plan();
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;

  bool valid() const { return root_ != nullptr; }

  /// Executes the operator tree bottom-up and appends the root's
  /// full-width rows to `out`. Intermediate materializations are
  /// charged against limits.max_rows (QueryMemoryExhausted) and the
  /// deadline is checked periodically (QueryTimeout). Tables held by
  /// inner operators are released afterwards; the actual cardinalities
  /// survive for Explain()/Nodes(). `stats` may be null.
  void Execute(BindingTable* out, const QueryLimits& limits,
               ExecStats* stats);

  /// Overrides the root node's actual cardinality — the engine calls
  /// this after applying solution modifiers so EXPLAIN shows the final
  /// result count at the root.
  void SetRootActual(uint64_t rows);

  std::vector<PlanNodeInfo> Nodes() const;

  /// Indented tree with one line per operator:
  ///   HashJoin [?journal]    est=14,400  rows=13,922
  std::string Explain() const;

 private:
  friend Plan BuildPlan(internal::CompiledQuery& q, const AstQuery& ast,
                        const rdf::Store& store, const rdf::Dictionary& dict,
                        const rdf::Stats* stats, bool merge_joins,
                        int threads, const PlanScript* replay,
                        PlanScript* record, uint64_t root_cap,
                        const QueryLimits& limits);

  std::shared_ptr<internal::Operator> root_;
};

/// Plans the compiled WHERE clause of `q` (the `ast` is consulted only
/// for the root projection/modifier labels). Used by the engine's
/// `planned` level; exposed for tests and tooling. `merge_joins`
/// false pins the hash-only strategy choice (the "planned-hash"
/// level). `threads` > 1 lets the cost gate swap in the parallel
/// operators (ParallelScan[n], PartitionedHashJoin[n],
/// ParallelUnion[n]) where the estimated input is large enough to
/// amortize fan-out; 1 reproduces the serial plan bit-for-bit.
/// `replay`/`record` are the plan record/replay hooks (PlanScript,
/// engine.h): replay pins each greedy merge to the
/// recorded component pair (methods and costs re-derived from current
/// estimates; an impossible entry falls back to the full search),
/// record captures the pairs chosen. `root_cap` > 0 caps the root
/// operator's materialization at that many rows (LIMIT pushdown: the
/// engine passes offset+limit when no ORDER BY/DISTINCT/aggregate
/// needs the full result); execution below the root is unaffected.
/// `limits`' deadline covers planning too: the join-order search and
/// the correlation analysis poll it and throw QueryTimeout, so a huge
/// group cannot hold a worker past its budget before execution starts.
/// Every SELECT plans: an OPTIONAL whose conditions need outer
/// bindings is planned on top of its numbered left rows. Those
/// OPTIONALs are found before any operator is built; their hidden
/// `#rN` row-id slots are appended to `q`'s variables, and `q.width`
/// is set to the widened row, once per call.
Plan BuildPlan(internal::CompiledQuery& q, const AstQuery& ast,
               const rdf::Store& store, const rdf::Dictionary& dict,
               const rdf::Stats* stats, bool merge_joins = true,
               int threads = 1, const PlanScript* replay = nullptr,
               PlanScript* record = nullptr, uint64_t root_cap = 0,
               const QueryLimits& limits = QueryLimits::None());

}  // namespace sp2b::sparql

#endif  // SP2B_SPARQL_PLAN_H_
