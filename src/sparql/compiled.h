// Shared compiled-query representation: the slot-resolved patterns,
// filter expressions, and group tree both execution strategies consume
// (the backtracking Exec in engine.cc and the operator-tree plan in
// plan.cc), plus the row-based filter evaluator.
#ifndef SP2B_SRC_SPARQL_COMPILED_H_
#define SP2B_SRC_SPARQL_COMPILED_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sp2b/sparql/ast.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"

namespace sp2b::sparql::internal {

/// Sentinel for constants that do not occur in the dictionary: the
/// pattern carrying one can never match.
constexpr rdf::TermId kMissing = ~rdf::TermId{0};

struct CTerm {
  int slot = -1;             // >= 0: variable slot; < 0: constant
  rdf::TermId id = rdf::kNoTerm;  // constant id (kMissing if absent)
};

struct CPattern {
  CTerm t[3];  // s, p, o
};

struct CExpr {
  Expr::Op op = Expr::kConst;
  std::vector<CExpr> kids;
  int slot = -1;  // kVar / kBound
  // kConst payload:
  rdf::TermId const_id = rdf::kNoTerm;
  bool const_is_int = false;
  int64_t const_int = 0;
  std::string const_lex;
  std::string const_dt;
  bool const_is_iri = false;
};

/// A compiled closure path pattern (`p+` / `p*`). Sequences (`p/q`)
/// never reach this form: the compiler desugars them into chained
/// CPatterns over fresh hidden slots. The closure relation is a fixed
/// set given the store — R+ = transitive closure of the p-edges,
/// R* = R+ plus (x,x) for every node incident to p — so evaluation
/// order cannot change results across engines.
struct CPath {
  CTerm subj, obj;
  rdf::TermId pred = rdf::kNoTerm;  // constant predicate (kMissing if absent)
  bool reflexive = false;           // true for `p*`
};

struct CGroup {
  std::vector<CPattern> patterns;
  std::vector<CPath> paths;
  std::vector<CExpr> filters;
  /// filters_after[k] lists filter indexes runnable right after
  /// patterns[k] bound its variables (filter pushing).
  std::vector<std::vector<int>> filters_after;
  std::vector<int> end_filters;
  std::vector<std::vector<CGroup>> unions;
  std::vector<CGroup> optionals;
  /// slot := constant, applied at group entry (equality binding).
  std::vector<std::pair<int, rdf::TermId>> const_binds;
  /// local := outer, applied when entering this group as an OPTIONAL
  /// (keyed left join).
  std::vector<std::pair<int, int>> seeds;
  /// dst := src, applied to matched rows (var unified away by an
  /// equality filter still appears bound in results).
  std::vector<std::pair<int, int>> copy_outs;
};

struct CompiledQuery {
  CGroup root;
  std::vector<std::string> var_names;
  size_t width = 0;
};

/// Lowers a GroupPattern tree to slot-resolved CGroups, applying the
/// level's rewrites (EngineConfig::Level): reordering and filter
/// pushing on indexed and semantic, equality binding and left-join
/// keys on semantic and the planned levels. Defined in engine.cc.
class Compiler {
 public:
  Compiler(const rdf::Store& store, const rdf::Dictionary& dict,
           EngineConfig::Level level, const rdf::Stats* stats);

  CGroup CompileRoot(const GroupPattern& where);

  const std::vector<std::string>& names() const { return names_; }

  int SlotOf(const std::string& var);

  static void CollectVars(const CExpr& e, std::set<int>& out);

 private:
  rdf::TermId ConstId(const TermRef& ref) const;
  CTerm CompileTerm(const TermRef& ref);
  CExpr CompileExpr(const Expr& e);
  static void Conjuncts(const Expr& e, std::vector<Expr>& out);
  uint64_t EstimateCount(const CPattern& p) const;
  void Reorder(std::vector<CPattern>& patterns,
               const std::set<int>& entry_bound) const;
  void CollectGroupSlots(const GroupPattern& g, std::set<int>& out);
  CGroup CompileGroup(const GroupPattern& g, std::set<int> bound_entry,
                      std::set<int> maybe_entry, bool is_optional);

  const rdf::Store& store_;
  const rdf::Dictionary& dict_;
  const bool reorder_;       // selectivity order + filter pushing
  const bool bind_equality_;  // equality filters -> bindings / seeds
  const rdf::Stats* stats_;
  std::map<std::string, int> slots_;
  std::vector<std::string> names_;
  int hidden_slots_ = 0;  // fresh "#pN" slots for desugared sequences
};

/// Fills `tp` with the pattern's constants (variable positions stay
/// wildcards); false when a constant is absent from the dictionary
/// (kMissing) and the pattern can therefore never match.
bool ConstTriplePattern(const CPattern& p, rdf::TriplePattern* tp);

/// Store match count of the pattern's constant positions — the raw
/// cardinality input of both optimizer layers (0 for kMissing).
uint64_t EstimatePatternCount(const rdf::Store& store, const CPattern& p);

/// Per-predicate statistics of a pattern with a constant predicate;
/// null when the predicate is a variable or stats are absent.
const rdf::PredicateStat* FindPredicateStat(const CPattern& p,
                                            const rdf::Stats* stats);

/// Scales a pattern's raw match count down for every runtime-bound
/// variable position, using the per-predicate distinct counts (join
/// selectivity) when available and a coarse constant otherwise. Both
/// the backtracking reorderer and the cost-based planner rank
/// patterns with this estimate so the two layers never disagree on
/// the heuristic.
double ScaledProbeEstimate(double count, const CPattern& p,
                           const std::set<int>& bound,
                           const rdf::Stats* stats);

/// Hash of a row's values at `slots`, unbound ones included: the key
/// of the planner's hash operators and of DISTINCT. FNV-1a over the
/// ids, then a multiply-shift finish so the low bits a power-of-two
/// table indexes by depend on every input bit.
inline uint64_t HashSlots(const rdf::TermId* row,
                          const std::vector<int>& slots) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (int slot : slots) {
    h ^= row[slot];
    h *= 1099511628211ull;
  }
  h ^= h >> 32;
  h *= 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 29);
}

/// Shared closure evaluation for CPath patterns — the single
/// implementation both the backtracking Exec and the plan layer's
/// TransitiveClosure operator call, so every engine level computes
/// membership in the identical fixed relation. Expansion is
/// semi-naive: each BFS round scans only the frontier discovered in
/// the previous round (zero-copy store scans with a bound lead term),
/// so no edge is re-derived. Defined in engine.cc.
class PathEval {
 public:
  explicit PathEval(const rdf::Store& store) : store_(store) {}

  /// All y with (x, y) in the closure of `pred`, appended to `out`
  /// (cleared first). `reflexive` additionally emits x itself when x
  /// is incident to `pred`.
  void Forward(rdf::TermId x, rdf::TermId pred, bool reflexive,
               std::vector<rdf::TermId>* out) const;
  /// The transpose: all x with (x, y) in the closure.
  void Backward(rdf::TermId y, rdf::TermId pred, bool reflexive,
                std::vector<rdf::TermId>* out) const;
  /// True when x occurs as subject or object of a `pred` triple.
  bool Incident(rdf::TermId x, rdf::TermId pred) const;
  /// Every distinct subject of `pred` (plus, when `with_objects`,
  /// every distinct object) — the source set for unbound-side
  /// enumeration. Sorted, deduplicated.
  void Sources(rdf::TermId pred, bool with_objects,
               std::vector<rdf::TermId>* out) const;
  /// Edge count of `pred` — the planner's cost input.
  uint64_t EdgeCount(rdf::TermId pred) const;

 private:
  void Expand(rdf::TermId start, rdf::TermId pred, bool forward,
              bool reflexive, std::vector<rdf::TermId>* out) const;

  const rdf::Store& store_;
};

/// Evaluates compiled filter expressions over a full-width row of
/// TermIds (kNoTerm / kMissing slots count as unbound). Defined in
/// engine.cc.
class FilterEval {
 public:
  explicit FilterEval(const rdf::Dictionary& dict) : dict_(dict) {}

  bool EvalBool(const CExpr& e, const rdf::TermId* row) const;

 private:
  struct Val {
    bool bound = false;
    rdf::TermId id = rdf::kNoTerm;  // set for variable operands
    const CExpr* c = nullptr;       // set for constant operands
  };

  Val Operand(const CExpr& e, const rdf::TermId* row) const;
  bool IntOf(const Val& v, int64_t* out) const;
  void Surface(const Val& v, std::string_view* lex, std::string_view* dt,
               int* type_class) const;
  /// True for a literal carrying a numeric xsd datatype whose lexical
  /// form is not a valid number ("12abc"^^xsd:integer) — a SPARQL
  /// type error: every comparison involving it evaluates to error,
  /// which rejects the row (it is never coerced to 12 or 0).
  bool MalformedNumeric(const Val& v) const;
  bool Equal(const Val& a, const Val& b) const;
  /// nullopt = type error (malformed numeric, or a numeric-typed
  /// literal ordered against a non-numeric one).
  std::optional<int> Compare(const Val& a, const Val& b) const;

  const rdf::Dictionary& dict_;
};

}  // namespace sp2b::sparql::internal

#endif  // SP2B_SRC_SPARQL_COMPILED_H_
