#include "sp2b/sparql/engine.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "compiled.h"
#include "sp2b/sparql/plan.h"
#include "sp2b/strict_parse.h"

namespace sp2b::sparql {

using rdf::kNoTerm;
using rdf::Term;
using rdf::TermId;
using rdf::TermType;

namespace internal {

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

Compiler::Compiler(const rdf::Store& store, const rdf::Dictionary& dict,
                   EngineConfig::Level level, const rdf::Stats* stats)
    : store_(store),
      dict_(dict),
      reorder_(level == EngineConfig::kIndexed ||
               level == EngineConfig::kSemantic),
      bind_equality_(level >= EngineConfig::kSemantic),
      stats_(stats) {}

CGroup Compiler::CompileRoot(const GroupPattern& where) {
  return CompileGroup(where, {}, {}, /*is_optional=*/false);
}

int Compiler::SlotOf(const std::string& var) {
  auto it = slots_.find(var);
  if (it != slots_.end()) return it->second;
  int slot = static_cast<int>(names_.size());
  slots_.emplace(var, slot);
  names_.push_back(var);
  return slot;
}

TermId Compiler::ConstId(const TermRef& ref) const {
  TermId id = kNoTerm;
  switch (ref.kind) {
    case TermRef::kIri:
      id = dict_.FindIri(ref.value);
      break;
    case TermRef::kBlank:
      id = dict_.FindBlank(ref.value);
      break;
    case TermRef::kLiteral:
      id = dict_.FindLiteral(ref.value, ref.datatype);
      break;
    case TermRef::kVar:
      break;
  }
  return id == kNoTerm ? kMissing : id;
}

CTerm Compiler::CompileTerm(const TermRef& ref) {
  CTerm t;
  if (ref.kind == TermRef::kVar) {
    t.slot = SlotOf(ref.value);
  } else {
    t.id = ConstId(ref);
  }
  return t;
}

CExpr Compiler::CompileExpr(const Expr& e) {
  CExpr c;
  c.op = e.op;
  for (const Expr& kid : e.kids) c.kids.push_back(CompileExpr(kid));
  if (e.op == Expr::kVar || e.op == Expr::kBound) {
    c.slot = SlotOf(e.var);
  } else if (e.op == Expr::kConst) {
    c.const_id = ConstId(e.constant);
    c.const_lex = e.constant.value;
    c.const_dt = e.constant.datatype;
    c.const_is_iri = e.constant.kind == TermRef::kIri;
    if (!e.constant.value.empty() && e.constant.kind == TermRef::kLiteral) {
      char* end = nullptr;
      long long v = std::strtoll(e.constant.value.c_str(), &end, 10);
      if (end && *end == '\0') {
        c.const_is_int = true;
        c.const_int = v;
      }
    }
  }
  return c;
}

void Compiler::CollectVars(const CExpr& e, std::set<int>& out) {
  if (e.op == Expr::kVar || e.op == Expr::kBound) out.insert(e.slot);
  for (const CExpr& kid : e.kids) CollectVars(kid, out);
}

void Compiler::Conjuncts(const Expr& e, std::vector<Expr>& out) {
  if (e.op == Expr::kAnd) {
    for (const Expr& kid : e.kids) Conjuncts(kid, out);
  } else {
    out.push_back(e);
  }
}

bool ConstTriplePattern(const CPattern& p, rdf::TriplePattern* tp) {
  TermId* slots[3] = {&tp->s, &tp->p, &tp->o};
  for (int i = 0; i < 3; ++i) {
    if (p.t[i].slot < 0) {
      if (p.t[i].id == kMissing) return false;
      *slots[i] = p.t[i].id;
    }
  }
  return true;
}

uint64_t EstimatePatternCount(const rdf::Store& store, const CPattern& p) {
  rdf::TriplePattern tp;
  if (!ConstTriplePattern(p, &tp)) return 0;
  return store.Count(tp);
}

uint64_t Compiler::EstimateCount(const CPattern& p) const {
  return EstimatePatternCount(store_, p);
}

const rdf::PredicateStat* FindPredicateStat(const CPattern& p,
                                            const rdf::Stats* stats) {
  if (stats == nullptr || p.t[1].slot >= 0 || p.t[1].id == kNoTerm ||
      p.t[1].id == kMissing) {
    return nullptr;
  }
  auto it = stats->predicate_stats.find(p.t[1].id);
  return it == stats->predicate_stats.end() ? nullptr : &it->second;
}

double ScaledProbeEstimate(double count, const CPattern& p,
                           const std::set<int>& bound,
                           const rdf::Stats* stats) {
  const rdf::PredicateStat* ps = FindPredicateStat(p, stats);
  if (p.t[0].slot >= 0 && bound.count(p.t[0].slot)) {
    count /= ps != nullptr
                 ? std::max<double>(
                       1.0, static_cast<double>(ps->distinct_subjects))
                 : 8.0;
  }
  if (p.t[2].slot >= 0 && bound.count(p.t[2].slot)) {
    count /= ps != nullptr
                 ? std::max<double>(
                       1.0, static_cast<double>(ps->distinct_objects))
                 : 8.0;
  }
  if (p.t[1].slot >= 0 && bound.count(p.t[1].slot)) count /= 8.0;
  return count;
}

void Compiler::Reorder(std::vector<CPattern>& patterns,
                       const std::set<int>& entry_bound) const {
  std::vector<CPattern> ordered;
  std::vector<CPattern> remaining = patterns;
  std::set<int> bound = entry_bound;
  while (!remaining.empty()) {
    // Prefer patterns connected to the bound set (or with constants)
    // to avoid cross products; among them pick the smallest estimate
    // (runtime-bound variable positions shrink the match set).
    int best = -1;
    double best_score = 0;
    for (int pass = 0; pass < 2 && best < 0; ++pass) {
      for (size_t i = 0; i < remaining.size(); ++i) {
        const CPattern& p = remaining[i];
        bool connected = false;
        for (const CTerm& t : p.t) {
          if (t.slot < 0) {
            if (t.id != kNoTerm) connected = true;
          } else if (bound.count(t.slot)) {
            connected = true;
          }
        }
        if (pass == 0 && !connected) continue;
        double score = ScaledProbeEstimate(
            static_cast<double>(EstimateCount(p)), p, bound, stats_);
        if (best < 0 || score < best_score) {
          best = static_cast<int>(i);
          best_score = score;
        }
      }
    }
    CPattern chosen = remaining[best];
    remaining.erase(remaining.begin() + best);
    for (const CTerm& t : chosen.t) {
      if (t.slot >= 0) bound.insert(t.slot);
    }
    ordered.push_back(std::move(chosen));
  }
  patterns = ordered;
}

void Compiler::CollectGroupSlots(const GroupPattern& g, std::set<int>& out) {
  for (const TriplePatternAst& t : g.triples) {
    for (const TermRef* ref : {&t.s, &t.p, &t.o}) {
      if (ref->kind == TermRef::kVar) out.insert(SlotOf(ref->value));
    }
  }
  std::function<void(const Expr&)> walk_expr = [&](const Expr& e) {
    if (e.op == Expr::kVar || e.op == Expr::kBound) out.insert(SlotOf(e.var));
    for (const Expr& kid : e.kids) walk_expr(kid);
  };
  for (const Expr& f : g.filters) walk_expr(f);
  for (const GroupPattern& opt : g.optionals) CollectGroupSlots(opt, out);
  for (const auto& alternatives : g.unions) {
    for (const GroupPattern& alt : alternatives) CollectGroupSlots(alt, out);
  }
}

CGroup Compiler::CompileGroup(const GroupPattern& g, std::set<int> bound_entry,
                              std::set<int> maybe_entry, bool is_optional) {
  // Everything certainly bound is possibly bound; maybe_entry further
  // contains variables earlier sibling OPTIONAL/UNION groups may have
  // bound at runtime. The equality rewrites must not consume a filter
  // whose variable can arrive pre-bound: the runtime seed (and the
  // pattern substitution) would silently drop the equality then.
  maybe_entry.insert(bound_entry.begin(), bound_entry.end());
  CGroup cg;
  for (const TriplePatternAst& t : g.triples) {
    if (t.path == PathOp::kOneOrMore || t.path == PathOp::kZeroOrMore) {
      CPath cp;
      cp.subj = CompileTerm(t.s);
      cp.obj = CompileTerm(t.o);
      cp.pred = CompileTerm(t.p).id;  // parser guarantees a constant
      cp.reflexive = t.path == PathOp::kZeroOrMore;
      cg.paths.push_back(cp);
      continue;
    }
    if (t.path == PathOp::kSequence) {
      // Desugar `s p/q/r o` into chained patterns over hidden slots
      // (`#pN` names the parser can never produce). Every engine
      // level sees the same chain, in chain order — which is also the
      // friendliest order for the naive (no-reorder) engine.
      CTerm cur = CompileTerm(t.s);
      CTerm pred = CompileTerm(t.p);
      for (size_t i = 0; i <= t.path_seq.size(); ++i) {
        CTerm next;
        if (i == t.path_seq.size()) {
          next = CompileTerm(t.o);
        } else {
          next.slot = SlotOf("#p" + std::to_string(hidden_slots_++));
        }
        CPattern p;
        p.t[0] = cur;
        p.t[1] = pred;
        p.t[2] = next;
        cg.patterns.push_back(p);
        if (i < t.path_seq.size()) pred = CompileTerm(t.path_seq[i]);
        cur = next;
      }
      continue;
    }
    CPattern p;
    p.t[0] = CompileTerm(t.s);
    p.t[1] = CompileTerm(t.p);
    p.t[2] = CompileTerm(t.o);
    cg.patterns.push_back(p);
  }

  std::set<int> local_pattern_vars;
  for (const CPattern& p : cg.patterns) {
    for (const CTerm& t : p.t) {
      if (t.slot >= 0) local_pattern_vars.insert(t.slot);
    }
  }
  for (const CPath& p : cg.paths) {
    if (p.subj.slot >= 0) local_pattern_vars.insert(p.subj.slot);
    if (p.obj.slot >= 0) local_pattern_vars.insert(p.obj.slot);
  }

  // Variables referenced by nested OPTIONAL/UNION groups: a variable
  // the equality rewrite would erase from this group's patterns must
  // not be one of these, or the nested group would see it unbound.
  std::set<std::string> nested_vars;
  std::function<void(const Expr&)> collect_expr_vars =
      [&](const Expr& e) {
        if (e.op == Expr::kVar || e.op == Expr::kBound) {
          nested_vars.insert(e.var);
        }
        for (const Expr& kid : e.kids) collect_expr_vars(kid);
      };
  std::function<void(const GroupPattern&)> collect_group_vars =
      [&](const GroupPattern& gp) {
        for (const TriplePatternAst& t : gp.triples) {
          for (const TermRef* ref : {&t.s, &t.p, &t.o}) {
            if (ref->kind == TermRef::kVar) nested_vars.insert(ref->value);
          }
        }
        for (const Expr& f : gp.filters) collect_expr_vars(f);
        for (const GroupPattern& opt : gp.optionals) collect_group_vars(opt);
        for (const auto& alternatives : gp.unions) {
          for (const GroupPattern& alt : alternatives) {
            collect_group_vars(alt);
          }
        }
      };
  for (const GroupPattern& opt : g.optionals) collect_group_vars(opt);
  for (const auto& alternatives : g.unions) {
    for (const GroupPattern& alt : alternatives) collect_group_vars(alt);
  }

  // Split filters into conjuncts; rewrite equalities when enabled.
  std::vector<Expr> conjuncts;
  for (const Expr& f : g.filters) Conjuncts(f, conjuncts);

  std::vector<Expr> kept;
  for (const Expr& conj : conjuncts) {
    bool consumed = false;
    if (conj.op == Expr::kEq && conj.kids.size() == 2) {
      const Expr& a = conj.kids[0];
      const Expr& b = conj.kids[1];
      if (bind_equality_ && a.op == Expr::kVar &&
          b.op == Expr::kVar) {
        int sa = SlotOf(a.var), sb = SlotOf(b.var);
        bool a_entry = bound_entry.count(sa) > 0;
        bool b_entry = bound_entry.count(sb) > 0;
        if (is_optional && (a_entry != b_entry)) {
          // Keyed left join: pre-bind the optional-local variable to
          // the outer one's value when entering the OPTIONAL.
          int outer = a_entry ? sa : sb;
          int local = a_entry ? sb : sa;
          if (local_pattern_vars.count(local) &&
              maybe_entry.count(local) == 0) {
            cg.seeds.emplace_back(local, outer);
            // The seed fires whenever the outer variable is bound
            // (it certainly is: it came from bound_entry), so the
            // local variable is entry-bound for reordering and
            // filter-pushing purposes.
            bound_entry.insert(local);
            consumed = true;
          }
        } else if (!is_optional && local_pattern_vars.count(sa) &&
                   local_pattern_vars.count(sb) &&
                   maybe_entry.count(sa) == 0 &&
                   maybe_entry.count(sb) == 0 &&
                   nested_vars.count(b.var) == 0) {
          // Substitute sb by sa in this group's patterns (and path
          // endpoints); matched rows copy the value back so sb is
          // still reported bound.
          for (CPattern& p : cg.patterns) {
            for (CTerm& t : p.t) {
              if (t.slot == sb) t.slot = sa;
            }
          }
          for (CPath& p : cg.paths) {
            if (p.subj.slot == sb) p.subj.slot = sa;
            if (p.obj.slot == sb) p.obj.slot = sa;
          }
          cg.copy_outs.emplace_back(sb, sa);
          local_pattern_vars.insert(sa);
          consumed = true;
        }
      } else if (bind_equality_ &&
                 ((a.op == Expr::kVar && b.op == Expr::kConst) ||
                  (a.op == Expr::kConst && b.op == Expr::kVar))) {
        const Expr& var = a.op == Expr::kVar ? a : b;
        const Expr& cst = a.op == Expr::kConst ? a : b;
        int slot = SlotOf(var.var);
        if (local_pattern_vars.count(slot) &&
            maybe_entry.count(slot) == 0) {
          cg.const_binds.emplace_back(slot, ConstId(cst.constant));
          bound_entry.insert(slot);  // certainly bound from entry on
          // A second equality on the slot must stay a filter: binding
          // it too would overwrite the first constant.
          maybe_entry.insert(slot);
          consumed = true;
        }
      }
    }
    if (!consumed) kept.push_back(conj);
  }
  for (const Expr& conj : kept) cg.filters.push_back(CompileExpr(conj));

  if (reorder_) Reorder(cg.patterns, bound_entry);

  // Certainly-bound sets per stage, for filter pushing.
  std::vector<std::set<int>> bound_after(cg.patterns.size());
  std::set<int> running = bound_entry;
  for (size_t k = 0; k < cg.patterns.size(); ++k) {
    for (const CTerm& t : cg.patterns[k].t) {
      if (t.slot >= 0) running.insert(t.slot);
    }
    bound_after[k] = running;
  }
  cg.filters_after.assign(cg.patterns.size(), {});
  for (size_t fi = 0; fi < cg.filters.size(); ++fi) {
    std::set<int> vars;
    CollectVars(cg.filters[fi], vars);
    int stage = -1;
    if (reorder_) {
      for (size_t k = 0; k < cg.patterns.size(); ++k) {
        if (std::includes(bound_after[k].begin(), bound_after[k].end(),
                          vars.begin(), vars.end())) {
          stage = static_cast<int>(k);
          break;
        }
      }
    }
    if (stage >= 0) {
      cg.filters_after[stage].push_back(static_cast<int>(fi));
    } else {
      cg.end_filters.push_back(static_cast<int>(fi));
    }
  }

  // Path stages run between the patterns and the nested groups, so
  // their endpoint variables are certainly bound for everything that
  // follows (but never for per-pattern filter pushing above — a
  // filter on a path variable stays a residual end-filter).
  for (const CPath& p : cg.paths) {
    if (p.subj.slot >= 0) running.insert(p.subj.slot);
    if (p.obj.slot >= 0) running.insert(p.obj.slot);
  }

  std::set<int> running_maybe = maybe_entry;
  running_maybe.insert(running.begin(), running.end());
  for (const auto& alternatives : g.unions) {
    std::vector<CGroup> compiled;
    for (const GroupPattern& alt : alternatives) {
      compiled.push_back(
          CompileGroup(alt, running, running_maybe, /*is_optional=*/false));
    }
    for (const GroupPattern& alt : alternatives) {
      CollectGroupSlots(alt, running_maybe);
    }
    cg.unions.push_back(std::move(compiled));
  }
  for (const GroupPattern& opt : g.optionals) {
    cg.optionals.push_back(
        CompileGroup(opt, running, running_maybe, /*is_optional=*/true));
    CollectGroupSlots(opt, running_maybe);
  }
  return cg;
}

// ---------------------------------------------------------------------------
// Filter evaluation
// ---------------------------------------------------------------------------

FilterEval::Val FilterEval::Operand(const CExpr& e, const TermId* row) const {
  Val v;
  if (e.op == Expr::kVar) {
    v.id = row[e.slot];
    v.bound = v.id != kNoTerm && v.id != kMissing;
  } else if (e.op == Expr::kConst) {
    v.c = &e;
    v.bound = true;
  }
  return v;
}

bool FilterEval::IntOf(const Val& v, int64_t* out) const {
  if (v.c) {
    if (!v.c->const_is_int) return false;
    *out = v.c->const_int;
    return true;
  }
  auto value = dict_.IntValue(v.id);
  if (!value) return false;
  *out = *value;
  return true;
}

// Lexical form (and datatype/type class) of an operand.
void FilterEval::Surface(const Val& v, std::string_view* lex,
                         std::string_view* dt, int* type_class) const {
  if (v.c) {
    *lex = v.c->const_lex;
    *dt = v.c->const_dt;
    *type_class = v.c->const_is_iri ? 0 : 1;
    return;
  }
  const Term& t = dict_.Lookup(v.id);
  *lex = t.lexical;
  *dt = t.datatype;
  *type_class = t.type == TermType::kLiteral ? 1 : 0;
}

namespace {

/// The xsd numeric datatypes the comparison semantics recognize.
bool IsNumericDatatype(std::string_view dt) {
  constexpr std::string_view kXsd = "http://www.w3.org/2001/XMLSchema#";
  if (dt.size() <= kXsd.size() || dt.substr(0, kXsd.size()) != kXsd) {
    return false;
  }
  std::string_view local = dt.substr(kXsd.size());
  for (std::string_view name :
       {"integer", "decimal", "double", "float", "long", "int", "short",
        "byte", "nonNegativeInteger", "nonPositiveInteger",
        "negativeInteger", "positiveInteger", "unsignedLong", "unsignedInt",
        "unsignedShort", "unsignedByte"}) {
    if (local == name) return true;
  }
  return false;
}

}  // namespace

bool FilterEval::MalformedNumeric(const Val& v) const {
  std::string_view lex, dt;
  int type_class;
  Surface(v, &lex, &dt, &type_class);
  if (type_class != 1 || !IsNumericDatatype(dt)) return false;
  return !ParseStrictDouble(lex).has_value();
}

bool FilterEval::Equal(const Val& a, const Val& b) const {
  if (a.id != kNoTerm && b.id != kNoTerm) return a.id == b.id;
  if (a.c && b.c == a.c) return true;
  // Mixed var/const (or const missing from the dictionary).
  if (a.c && b.id != kNoTerm && a.c->const_id != kNoTerm &&
      a.c->const_id != kMissing) {
    return a.c->const_id == b.id;
  }
  if (b.c && a.id != kNoTerm && b.c->const_id != kNoTerm &&
      b.c->const_id != kMissing) {
    return b.c->const_id == a.id;
  }
  int64_t ia, ib;
  if (IntOf(a, &ia) && IntOf(b, &ib)) return ia == ib;
  std::string_view la, lb, da, db;
  int ta, tb;
  Surface(a, &la, &da, &ta);
  Surface(b, &lb, &db, &tb);
  return ta == tb && la == lb && da == db;
}

std::optional<int> FilterEval::Compare(const Val& a, const Val& b) const {
  int64_t ia, ib;
  if (IntOf(a, &ia) && IntOf(b, &ib)) {
    return ia < ib ? -1 : ia > ib ? 1 : 0;
  }
  std::string_view la, lb, da, db;
  int ta, tb;
  Surface(a, &la, &da, &ta);
  Surface(b, &lb, &db, &tb);
  // Numeric-typed literals order by value, never by lexical form; a
  // malformed lexical ("12abc"^^xsd:integer) or a numeric ordered
  // against a non-numeric is a SPARQL type error, not a string
  // comparison.
  bool num_a = ta == 1 && IsNumericDatatype(da);
  bool num_b = tb == 1 && IsNumericDatatype(db);
  if (num_a || num_b) {
    std::optional<double> va = ParseStrictDouble(la);
    std::optional<double> vb = ParseStrictDouble(lb);
    if (!num_a || !num_b || !va || !vb) return std::nullopt;
    return *va < *vb ? -1 : *va > *vb ? 1 : 0;
  }
  int c = la.compare(lb);
  return c < 0 ? -1 : c > 0 ? 1 : 0;
}

bool FilterEval::EvalBool(const CExpr& e, const TermId* row) const {
  switch (e.op) {
    case Expr::kAnd:
      for (const CExpr& kid : e.kids) {
        if (!EvalBool(kid, row)) return false;
      }
      return true;
    case Expr::kOr:
      for (const CExpr& kid : e.kids) {
        if (EvalBool(kid, row)) return true;
      }
      return false;
    case Expr::kNot:
      return !EvalBool(e.kids[0], row);
    case Expr::kBound:
      return e.slot >= 0 && row[e.slot] != kNoTerm &&
             row[e.slot] != kMissing;
    case Expr::kVar:
      return row[e.slot] != kNoTerm;
    case Expr::kConst:
      return true;
    case Expr::kEq:
    case Expr::kNe:
    case Expr::kLt:
    case Expr::kLe:
    case Expr::kGt:
    case Expr::kGe: {
      Val a = Operand(e.kids[0], row);
      Val b = Operand(e.kids[1], row);
      if (!a.bound || !b.bound) return false;  // SPARQL error -> false
      switch (e.op) {
        case Expr::kEq:
        case Expr::kNe: {
          // A malformed numeric has no value to (in)equate: type
          // error, so both = and != reject the row.
          if (MalformedNumeric(a) || MalformedNumeric(b)) return false;
          bool eq = Equal(a, b);
          return e.op == Expr::kEq ? eq : !eq;
        }
        default: {
          std::optional<int> c = Compare(a, b);
          if (!c) return false;  // type error -> row rejected
          switch (e.op) {
            case Expr::kLt:
              return *c < 0;
            case Expr::kLe:
              return *c <= 0;
            case Expr::kGt:
              return *c > 0;
            default:
              return *c >= 0;
          }
        }
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Path closure evaluation (shared by Exec and plan.cc's
// TransitiveClosure operator)
// ---------------------------------------------------------------------------

bool PathEval::Incident(TermId x, TermId pred) const {
  rdf::TriplePattern out_edges;
  out_edges.s = x;
  out_edges.p = pred;
  if (store_.Count(out_edges) > 0) return true;
  rdf::TriplePattern in_edges;
  in_edges.p = pred;
  in_edges.o = x;
  return store_.Count(in_edges) > 0;
}

void PathEval::Expand(TermId start, TermId pred, bool forward, bool reflexive,
                      std::vector<TermId>* out) const {
  out->clear();
  // Semi-naive rounds: `frontier` holds only the nodes discovered in
  // the previous round, so every p-edge is traversed at most once per
  // closure; `visited` is the accumulated delta union.
  std::unordered_set<TermId> visited;
  visited.insert(start);
  std::vector<TermId> frontier{start};
  std::vector<TermId> next;
  rdf::ScanCursor cursor;
  bool start_emitted = false;
  while (!frontier.empty()) {
    next.clear();
    for (TermId node : frontier) {
      rdf::TriplePattern tp;
      tp.p = pred;
      (forward ? tp.s : tp.o) = node;
      store_.Scan(tp, &cursor);
      for (rdf::TripleBlock blk = cursor.Next(); !blk.empty();
           blk = cursor.Next()) {
        for (size_t i = 0; i < blk.size; ++i) {
          TermId y = forward ? blk.data[i].o : blk.data[i].s;
          if (y == start) {
            // A cycle back to the start is a valid length >= 1 path;
            // the start is in `visited` from round zero, so emit it
            // here (once) rather than through the insert below.
            if (!start_emitted) {
              start_emitted = true;
              out->push_back(start);
            }
            continue;
          }
          if (visited.insert(y).second) {
            next.push_back(y);
            out->push_back(y);
          }
        }
      }
    }
    frontier.swap(next);
  }
  // Zero-length paths (p*) pair every p-incident node with itself.
  if (reflexive && !start_emitted && Incident(start, pred)) {
    out->push_back(start);
  }
}

void PathEval::Forward(TermId x, TermId pred, bool reflexive,
                       std::vector<TermId>* out) const {
  Expand(x, pred, /*forward=*/true, reflexive, out);
}

void PathEval::Backward(TermId y, TermId pred, bool reflexive,
                        std::vector<TermId>* out) const {
  Expand(y, pred, /*forward=*/false, reflexive, out);
}

void PathEval::Sources(TermId pred, bool with_objects,
                       std::vector<TermId>* out) const {
  out->clear();
  rdf::TriplePattern tp;
  tp.p = pred;
  rdf::ScanCursor cursor;
  store_.Scan(tp, &cursor);
  for (rdf::TripleBlock blk = cursor.Next(); !blk.empty();
       blk = cursor.Next()) {
    for (size_t i = 0; i < blk.size; ++i) {
      out->push_back(blk.data[i].s);
      if (with_objects) out->push_back(blk.data[i].o);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

uint64_t PathEval::EdgeCount(TermId pred) const {
  rdf::TriplePattern tp;
  tp.p = pred;
  return store_.Count(tp);
}

}  // namespace internal

namespace {

using internal::CExpr;
using internal::CGroup;
using internal::CompiledQuery;
using internal::CPattern;
using internal::CTerm;
using internal::FilterEval;
using internal::kMissing;

// ---------------------------------------------------------------------------
// Executor (backtracking index-nested-loop; naive/indexed/semantic, and
// ASK on every level)
// ---------------------------------------------------------------------------

class Exec {
 public:
  Exec(const rdf::Store& store, const rdf::Dictionary& dict,
       const CompiledQuery& q, const QueryLimits& limits, ExecStats& stats)
      : store_(store),
        filters_(dict),
        q_(q),
        limits_(limits),
        stats_(stats),
        row_(q.width, kNoTerm) {}

  /// Enumerates all solutions; `sink` returns false to stop.
  void Run(const std::function<bool(const TermId*)>& sink) {
    Group(q_.root, [&] { return sink(row_.data()); });
  }

 private:
  void CheckDeadline() {
    if (limits_.has_deadline &&
        std::chrono::steady_clock::now() > limits_.deadline) {
      throw QueryTimeout();
    }
  }

  bool Group(const CGroup& g, const std::function<bool()>& next) {
    std::vector<std::pair<int, TermId>> saved;
    for (auto [slot, id] : g.const_binds) {
      saved.emplace_back(slot, row_[slot]);
      row_[slot] = id;
    }
    bool r = Stage(g, 0, next);
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      row_[it->first] = it->second;
    }
    return r;
  }

  bool Stage(const CGroup& g, size_t stage,
             const std::function<bool()>& next) {
    if (stage < g.patterns.size()) {
      return PatternStage(g, stage, next);
    }
    size_t k = stage - g.patterns.size();
    if (k < g.paths.size()) {
      return PathStage(g, k, stage, next);
    }
    k -= g.paths.size();
    if (k < g.unions.size()) {
      for (const CGroup& alt : g.unions[k]) {
        if (!Group(alt, [&] { return Stage(g, stage + 1, next); })) {
          return false;
        }
      }
      return true;
    }
    k -= g.unions.size();
    if (k < g.optionals.size()) {
      const CGroup& opt = g.optionals[k];
      std::vector<int> seeded;
      for (auto [local, outer] : opt.seeds) {
        if (row_[local] == kNoTerm && row_[outer] != kNoTerm) {
          row_[local] = row_[outer];
          seeded.push_back(local);
        }
      }
      bool matched = false;
      bool cont = Group(opt, [&] {
        matched = true;
        return Stage(g, stage + 1, next);
      });
      for (int slot : seeded) row_[slot] = kNoTerm;
      if (!cont) return false;
      if (!matched) return Stage(g, stage + 1, next);
      return true;
    }
    // Group end: copy-outs first so residual filters (and everything
    // downstream) see variables unified away by an equality rewrite
    // as bound, then residual filters, then the continuation.
    std::vector<std::pair<int, TermId>> saved;
    for (auto [dst, src] : g.copy_outs) {
      if (row_[dst] == kNoTerm && row_[src] != kNoTerm) {
        saved.emplace_back(dst, row_[dst]);
        row_[dst] = row_[src];
      }
    }
    bool r = true;
    bool rejected = false;
    for (int fi : g.end_filters) {
      if (!filters_.EvalBool(g.filters[fi], row_.data())) {
        rejected = true;
        break;
      }
    }
    if (!rejected) r = next();
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      row_[it->first] = it->second;
    }
    return r;
  }

  bool PatternStage(const CGroup& g, size_t stage,
                    const std::function<bool()>& next) {
    const CPattern& p = g.patterns[stage];
    rdf::TriplePattern tp;
    TermId* fields[3] = {&tp.s, &tp.p, &tp.o};
    for (int i = 0; i < 3; ++i) {
      TermId v = p.t[i].slot < 0 ? p.t[i].id : row_[p.t[i].slot];
      if (v == kMissing) return true;  // constant absent: no matches
      *fields[i] = v;
    }
    if ((++stats_.probes & 0xFF) == 0) CheckDeadline();
    // Block scan: one cursor per recursion depth, reused across the
    // probes of that stage, so no per-triple callback and no
    // per-probe buffer allocation.
    rdf::ScanCursor& cursor = CursorAt(depth_++);
    store_.Scan(tp, &cursor);
    bool keep_scanning = true;
    for (rdf::TripleBlock blk = cursor.Next(); keep_scanning && !blk.empty();
         blk = cursor.Next()) {
      for (size_t bi = 0; keep_scanning && bi < blk.size; ++bi) {
        const rdf::Triple& t = blk.data[bi];
        TermId values[3] = {t.s, t.p, t.o};
        int bound_here[3];
        int n_bound = 0;
        bool ok = true;
        for (int i = 0; i < 3 && ok; ++i) {
          int slot = p.t[i].slot;
          if (slot < 0) continue;
          if (row_[slot] == kNoTerm) {
            row_[slot] = values[i];
            bound_here[n_bound++] = slot;
          } else if (row_[slot] != values[i]) {
            ok = false;  // repeated variable mismatch within the pattern
          }
        }
        if (ok) {
          if ((++stats_.bindings & 0x3FF) == 0) CheckDeadline();
          for (int fi : g.filters_after[stage]) {
            if (!filters_.EvalBool(g.filters[fi], row_.data())) {
              ok = false;
              break;
            }
          }
        }
        if (ok) keep_scanning = Stage(g, stage + 1, next);
        for (int i = n_bound - 1; i >= 0; --i) {
          row_[bound_here[i]] = kNoTerm;
        }
      }
    }
    --depth_;
    return keep_scanning;
  }

  /// Closure-path stage: evaluates membership in the fixed relation
  /// R(pred) via the shared PathEval, choosing the probe direction
  /// from what the current row already binds (forward BFS from a
  /// bound subject, backward from a bound object, full source
  /// enumeration when both ends are free).
  bool PathStage(const CGroup& g, size_t path_index, size_t stage,
                 const std::function<bool()>& next) {
    const internal::CPath& p = g.paths[path_index];
    auto value_of = [&](const CTerm& t) {
      return t.slot < 0 ? t.id : row_[t.slot];
    };
    TermId sv = value_of(p.subj);
    TermId ov = value_of(p.obj);
    if (p.pred == kMissing || sv == kMissing || ov == kMissing) {
      return true;  // constant absent from the dictionary: no matches
    }
    if ((++stats_.probes & 0xFF) == 0) CheckDeadline();
    internal::PathEval eval(store_);
    bool keep_scanning = true;
    auto try_pair = [&](TermId x, TermId y) {
      int bound_here[2];
      int n_bound = 0;
      bool ok = true;
      const CTerm* terms[2] = {&p.subj, &p.obj};
      TermId values[2] = {x, y};
      for (int i = 0; i < 2 && ok; ++i) {
        int slot = terms[i]->slot;
        if (slot < 0) continue;
        if (row_[slot] == kNoTerm) {
          row_[slot] = values[i];
          bound_here[n_bound++] = slot;
        } else if (row_[slot] != values[i]) {
          ok = false;  // repeated variable / pre-bound mismatch
        }
      }
      if (ok) {
        if ((++stats_.bindings & 0x3FF) == 0) CheckDeadline();
        keep_scanning = Stage(g, stage + 1, next);
      }
      for (int i = n_bound - 1; i >= 0; --i) row_[bound_here[i]] = kNoTerm;
    };
    std::vector<TermId> reach;
    if (sv != kNoTerm) {
      eval.Forward(sv, p.pred, p.reflexive, &reach);
      for (TermId y : reach) {
        if (!keep_scanning) break;
        if (ov != kNoTerm && y != ov) continue;
        try_pair(sv, y);
      }
    } else if (ov != kNoTerm) {
      eval.Backward(ov, p.pred, p.reflexive, &reach);
      for (TermId x : reach) {
        if (!keep_scanning) break;
        try_pair(x, ov);
      }
    } else {
      std::vector<TermId> sources;
      eval.Sources(p.pred, /*with_objects=*/p.reflexive, &sources);
      for (TermId x : sources) {
        if (!keep_scanning) break;
        eval.Forward(x, p.pred, p.reflexive, &reach);
        for (TermId y : reach) {
          if (!keep_scanning) break;
          try_pair(x, y);
        }
      }
    }
    return keep_scanning;
  }

  /// Cursor for recursion depth `d`; deque growth keeps references to
  /// shallower cursors (live in enclosing PatternStage frames) valid.
  rdf::ScanCursor& CursorAt(size_t d) {
    while (cursors_.size() <= d) cursors_.emplace_back();
    return cursors_[d];
  }

  const rdf::Store& store_;
  FilterEval filters_;
  const CompiledQuery& q_;
  const QueryLimits& limits_;
  ExecStats& stats_;
  std::vector<TermId> row_;
  std::deque<rdf::ScanCursor> cursors_;
  size_t depth_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Solution modifiers / Engine entry
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kLevelNames[] = {"naive", "indexed", "semantic",
                                       "planned", "planned-hash"};

}  // namespace

std::string EngineConfig::name() const {
  std::string out = kLevelNames[level];
  if (threads > 1) out += '@' + std::to_string(threads);
  return out;
}

EngineConfig EngineConfig::ByName(const std::string& name) {
  size_t at = name.find('@');
  const std::string base = name.substr(0, at);
  EngineConfig cfg;
  if (at != std::string::npos) {
    std::optional<uint64_t> v =
        ParseDigitsOnly(std::string_view(name).substr(at + 1));
    if (!v || *v < 1 || *v > 256) {
      throw std::out_of_range("bad thread count in engine level: " + name);
    }
    cfg.threads = static_cast<int>(*v);
  }
  for (int i = 0; i < static_cast<int>(std::size(kLevelNames)); ++i) {
    if (base == kLevelNames[i]) {
      cfg.level = static_cast<Level>(i);
      return cfg;
    }
  }
  throw std::out_of_range("unknown engine level: " + name);
}

const Term& QueryResult::ResolveTerm(TermId id,
                                     const rdf::Dictionary& dict) const {
  if (id >= kLocalTermBase) {
    return local_terms[id - kLocalTermBase];
  }
  return dict.Lookup(id);
}

std::string QueryResult::RowToString(size_t i,
                                     const rdf::Dictionary& dict) const {
  std::string out;
  const TermId* row = rows.Row(i);
  for (size_t k = 0; k < projection.size(); ++k) {
    if (k) out += "  ";
    int slot = projection[k];
    out += var_names[slot];
    out += '=';
    TermId id = row[slot];
    if (id == kNoTerm) {
      out += '-';
      continue;
    }
    const Term& t = ResolveTerm(id, dict);
    switch (t.type) {
      case TermType::kIri:
        out += '<' + t.lexical + '>';
        break;
      case TermType::kBlank:
        out += "_:" + t.lexical;
        break;
      case TermType::kLiteral:
        out += '"' + t.lexical + '"';
        break;
    }
  }
  return out;
}

Engine::Engine(const rdf::Store& store, const rdf::Dictionary& dict,
               EngineConfig config, const rdf::Stats* stats)
    : store_(store), dict_(dict), config_(std::move(config)), stats_(stats) {}

QueryResult Engine::Execute(const AstQuery& ast, const QueryLimits& limits) {
  return ExecuteImpl(ast, limits, nullptr);
}

QueryResult Engine::ExecuteExplained(const AstQuery& ast,
                                     const QueryLimits& limits,
                                     std::string* explain) {
  return ExecuteImpl(ast, limits, explain);
}

QueryResult Engine::ExecutePrepared(const AstQuery& ast,
                                    const QueryLimits& limits,
                                    const PlanScript* replay,
                                    PlanScript* record) {
  return ExecuteImpl(ast, limits, nullptr, replay, record);
}

QueryResult Engine::ExecuteImpl(const AstQuery& ast, const QueryLimits& limits,
                                std::string* explain,
                                const PlanScript* replay,
                                PlanScript* record) {
  // ASK runs on the backtracking evaluator at every level: it stops at
  // the first solution, which a bottom-up plan cannot. The planned
  // levels compile it as semantic does, with the backtracking
  // rewrites they otherwise leave to the planner.
  const bool ask = ast.form == AstQuery::kAsk;
  const EngineConfig::Level compile_level =
      ask && config_.planned() ? EngineConfig::kSemantic : config_.level;

  // Compiles the WHERE clause and resolves every externally referenced
  // variable to a slot BEFORE fixing the row width, so selected or
  // grouped variables that never occur in the pattern still have a
  // (permanently unbound) column.
  internal::Compiler compiler(store_, dict_, compile_level, stats_);
  CompiledQuery q;
  q.root = compiler.CompileRoot(ast.where);
  std::vector<int> select_slots;
  std::vector<int> key_slots;
  std::vector<int> agg_source;
  bool has_agg = !ast.group_by.empty();
  if (!ask) {
    for (const SelectItem& item : ast.select) {
      if (item.agg != SelectItem::kNone) {
        has_agg = true;
        select_slots.push_back(-1);
        agg_source.push_back(item.source_var.empty()
                                 ? -1
                                 : compiler.SlotOf(item.source_var));
      } else {
        select_slots.push_back(compiler.SlotOf(item.var));
      }
    }
    for (const std::string& var : ast.group_by) {
      key_slots.push_back(compiler.SlotOf(var));
    }
  }
  q.var_names = compiler.names();
  q.width = q.var_names.size();

  QueryResult result;

  if (ask) {
    result.is_ask = true;
    if (config_.planned()) {
      if (record != nullptr) record->valid = false;
      if (explain != nullptr) {
        *explain =
            "Ask: backtracking evaluator, stops at the first solution\n";
      }
    }
    Exec exec(store_, dict_, q, limits, result.stats);
    exec.Run([&](const TermId*) {
      result.ask_value = true;
      return false;  // first solution proves the pattern
    });
    return result;
  }

  // LIMIT pushdown: with no ORDER BY, no DISTINCT, and no aggregation,
  // any offset+limit prefix of the enumerated rows is the exact
  // answer, so execution can stop early — the backtracking sink
  // returns false, the plan root stops materializing (root_cap).
  const bool can_push_limit =
      ast.has_limit && !has_agg && !ast.distinct && ast.order_by.empty();
  const uint64_t push_cap =
      can_push_limit ? (ast.limit > ~uint64_t{0} - ast.offset
                            ? ~uint64_t{0}
                            : ast.offset + ast.limit)
                     : 0;

  Plan plan;
  BindingTable table;
  if (config_.planned()) {
    plan = BuildPlan(q, ast, store_, dict_, stats_, config_,
                     replay != nullptr && replay->valid ? replay : nullptr,
                     record, push_cap, limits);
    if (record != nullptr) record->valid = true;
    plan.Execute(&table, limits, &result.stats);
  } else {
    table = BindingTable(q.width);
    Exec exec(store_, dict_, q, limits, result.stats);
    exec.Run([&](const TermId* row) {
      table.Append(row);
      if (limits.max_rows != 0 && table.size() > limits.max_rows) {
        throw QueryMemoryExhausted();
      }
      return push_cap == 0 || table.size() < push_cap;
    });
  }

  std::vector<std::string> names = q.var_names;
  std::vector<int> projection;

  if (has_agg) {
    // Group rows, compute aggregates, and rebuild the table with
    // columns [group keys..., aggregate outputs...].
    struct Acc {
      uint64_t count = 0;
      std::unordered_set<TermId> distinct;
      int64_t sum = 0;
      uint64_t int_count = 0;
      int64_t min = 0, max = 0;
      bool seen = false;
    };
    std::map<std::vector<TermId>, std::vector<Acc>> groups;
    size_t n_aggs = agg_source.size();
    for (size_t r = 0; r < table.size(); ++r) {
      const TermId* row = table.Row(r);
      std::vector<TermId> key;
      for (int slot : key_slots) key.push_back(row[slot]);
      auto& accs = groups[key];
      if (accs.empty()) accs.resize(n_aggs);
      size_t ai = 0;
      for (const SelectItem& item : ast.select) {
        if (item.agg == SelectItem::kNone) continue;
        Acc& acc = accs[ai];
        int src = agg_source[ai];
        ++ai;
        TermId v = src < 0 ? 1 : row[src];
        if (src >= 0 && v == kNoTerm) continue;
        if (item.distinct_agg) {
          acc.distinct.insert(v);
          continue;
        }
        ++acc.count;
        if (src >= 0) {
          if (auto iv = dict_.IntValue(v)) {
            acc.sum += *iv;
            ++acc.int_count;
            if (!acc.seen || *iv < acc.min) acc.min = *iv;
            if (!acc.seen || *iv > acc.max) acc.max = *iv;
            acc.seen = true;
          }
        }
      }
    }
    size_t out_width = key_slots.size() + n_aggs;
    BindingTable out(out_width);
    std::unordered_map<std::string, TermId> local_ids;
    auto local_term = [&](const std::string& lexical,
                          const std::string& datatype) {
      std::string key = lexical + "\x1f" + datatype;
      auto it = local_ids.find(key);
      if (it != local_ids.end()) return it->second;
      Term t;
      t.type = TermType::kLiteral;
      t.lexical = lexical;
      t.datatype = datatype;
      result.local_terms.push_back(std::move(t));
      TermId id =
          kLocalTermBase + static_cast<TermId>(result.local_terms.size() - 1);
      local_ids.emplace(std::move(key), id);
      return id;
    };
    for (const auto& [key, accs] : groups) {
      std::vector<TermId> row(out_width, kNoTerm);
      for (size_t k = 0; k < key.size(); ++k) row[k] = key[k];
      size_t ai = 0;
      for (const SelectItem& item : ast.select) {
        if (item.agg == SelectItem::kNone) continue;
        const Acc& acc = accs[ai];
        std::string lexical;
        std::string datatype = "http://www.w3.org/2001/XMLSchema#integer";
        // SUM/AVG/MIN/MAX over a group with no numeric bindings yield
        // an unbound value (SPARQL aggregation error), never a
        // fabricated zero; only COUNT is total.
        bool have_value = true;
        switch (item.agg) {
          case SelectItem::kCount:
            lexical = std::to_string(item.distinct_agg ? acc.distinct.size()
                                                       : acc.count);
            break;
          case SelectItem::kSum:
            if (acc.int_count == 0) {
              have_value = false;
            } else {
              lexical = std::to_string(acc.sum);
            }
            break;
          case SelectItem::kAvg: {
            if (acc.int_count == 0) {
              have_value = false;
              break;
            }
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2f",
                          static_cast<double>(acc.sum) /
                              static_cast<double>(acc.int_count));
            lexical = buf;
            datatype = "http://www.w3.org/2001/XMLSchema#decimal";
            break;
          }
          case SelectItem::kMin:
            if (!acc.seen) {
              have_value = false;
            } else {
              lexical = std::to_string(acc.min);
            }
            break;
          case SelectItem::kMax:
            if (!acc.seen) {
              have_value = false;
            } else {
              lexical = std::to_string(acc.max);
            }
            break;
          case SelectItem::kNone:
            break;
        }
        if (have_value) {
          row[key_slots.size() + ai] = local_term(lexical, datatype);
        }
        ++ai;
      }
      out.Append(row.data());
    }
    // Result schema: group keys then aggregate outputs.
    names.clear();
    for (const std::string& var : ast.group_by) names.push_back(var);
    size_t ai = 0;
    std::map<std::string, int> name_slot;
    for (size_t k = 0; k < ast.group_by.size(); ++k) {
      name_slot[ast.group_by[k]] = static_cast<int>(k);
    }
    for (const SelectItem& item : ast.select) {
      if (item.agg == SelectItem::kNone) continue;
      names.push_back(item.var);
      name_slot[item.var] =
          static_cast<int>(ast.group_by.size() + ai);
      ++ai;
    }
    for (const SelectItem& item : ast.select) {
      auto it = name_slot.find(item.var);
      projection.push_back(it == name_slot.end() ? 0 : it->second);
    }
    table = std::move(out);
  } else if (ast.select_all) {
    for (size_t k = 0; k < names.size(); ++k) {
      // Hidden "#pN" slots (desugared `p/q` sequences) are
      // implementation detail, not user variables.
      if (!names[k].empty() && names[k][0] == '#') continue;
      projection.push_back(static_cast<int>(k));
    }
  } else {
    projection = select_slots;
  }

  // DISTINCT on the projected columns, compacting the table in place:
  // an open-addressing table of indices into the kept prefix, keyed by
  // the projected slots' hash (unbound values included). Rows stay
  // full width, since ORDER BY may name a variable the projection
  // drops.
  if (ast.distinct && table.size() > 0) {
    size_t capacity = 2;
    while (capacity < 2 * table.size()) capacity <<= 1;
    const size_t mask = capacity - 1;
    std::vector<uint32_t> seen(capacity, 0);  // kept row + 1; 0 = empty
    size_t kept = 0;
    for (size_t r = 0; r < table.size(); ++r) {
      const TermId* row = table.Row(r);
      for (size_t i = internal::HashSlots(row, projection) & mask;;
           i = (i + 1) & mask) {
        if (seen[i] == 0) {
          if (kept != r) {
            std::copy(row, row + table.width(), table.MutableRow(kept));
          }
          seen[i] = static_cast<uint32_t>(++kept);
          break;
        }
        const TermId* first = table.Row(seen[i] - 1);
        if (std::all_of(projection.begin(), projection.end(),
                        [&](int slot) { return first[slot] == row[slot]; })) {
          break;
        }
      }
    }
    table.Truncate(kept);
  }

  // ORDER BY.
  if (!ast.order_by.empty() && table.size() > 1) {
    std::map<std::string, int> name_slot;
    for (size_t k = 0; k < names.size(); ++k) {
      name_slot[names[k]] = static_cast<int>(k);
    }
    std::vector<size_t> order(table.size());
    std::iota(order.begin(), order.end(), size_t{0});
    auto term_less = [&](TermId a, TermId b) {
      if (a == b) return 0;
      if (a == kNoTerm) return -1;
      if (b == kNoTerm) return 1;
      const Term& ta = result.ResolveTerm(a, dict_);
      const Term& tb = result.ResolveTerm(b, dict_);
      // Numeric ordering only when BOTH lexicals are numbers in full:
      // atof would quietly order "12abc" as 12 and any non-number as
      // 0.0; a strict parse failure falls back to lexical order.
      double va = 0.0, vb = 0.0;
      bool na = false, nb = false;
      if (ta.type == TermType::kLiteral) {
        if (auto v = ParseStrictDouble(ta.lexical)) {
          va = *v;
          na = true;
        }
      }
      if (tb.type == TermType::kLiteral) {
        if (auto v = ParseStrictDouble(tb.lexical)) {
          vb = *v;
          nb = true;
        }
      }
      if (na && nb && va != vb) return va < vb ? -1 : 1;
      int c = ta.lexical.compare(tb.lexical);
      if (c != 0) return c < 0 ? -1 : 1;
      return a < b ? -1 : 1;
    };
    std::vector<int> key_slots;
    for (const OrderKey& k : ast.order_by) {
      auto it = name_slot.find(k.var);
      key_slots.push_back(it == name_slot.end() ? -1 : it->second);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < ast.order_by.size(); ++k) {
        int slot = key_slots[k];
        if (slot < 0) continue;
        int c = term_less(table.Row(a)[slot], table.Row(b)[slot]);
        if (ast.order_by[k].descending) c = -c;
        if (c != 0) return c < 0;
      }
      return false;
    });
    BindingTable sorted(table.width());
    for (size_t idx : order) sorted.Append(table.Row(idx));
    table = std::move(sorted);
  }

  // OFFSET / LIMIT.
  if (ast.offset > 0 || ast.has_limit) {
    BindingTable sliced(table.width());
    size_t begin = std::min<size_t>(ast.offset, table.size());
    size_t end = ast.has_limit
                     ? std::min<size_t>(begin + ast.limit, table.size())
                     : table.size();
    for (size_t r = begin; r < end; ++r) sliced.Append(table.Row(r));
    table = std::move(sliced);
  }

  result.var_names = names;
  result.projection = projection;
  result.rows = std::move(table);

  if (config_.planned()) {
    plan.SetRootActual(result.rows.size());
    if (explain != nullptr) *explain = plan.Explain();
  }
  return result;
}

}  // namespace sp2b::sparql
