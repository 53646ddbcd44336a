// Handcrafted OPTIONAL / UNION / FILTER shapes outside the benchmark
// set, each with a tiny inline document. They historically broke the
// rewrites or the operator tree: equality filters whose variable
// arrives pre-bound from a sibling OPTIONAL, and conditions
// correlating an OPTIONAL with bindings only its left rows carry.
// `correlated` marks the shapes the planner must plan on top of the
// numbered left rows (a RowId operator in EXPLAIN), `anti` the ones
// whose `OPTIONAL … FILTER (!bound(?v))` it must plan as an AntiJoin;
// the other `!bound` shapes pin where that rewrite must not fire.
// InlineDocument loads such a document; the other handcrafted
// fixtures use it too.
#ifndef SP2B_TESTS_NESTED_SHAPES_H_
#define SP2B_TESTS_NESTED_SHAPES_H_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sp2b/runner.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/ntriples.h"

namespace sp2b::test {

/// A document parsed from inline N-Triples (fully expanded IRIs) into
/// an IndexStore, without statistics.
inline LoadedDocument InlineDocument(const std::string& data) {
  LoadedDocument doc;
  doc.dict = std::make_unique<rdf::Dictionary>();
  doc.store = std::make_unique<rdf::IndexStore>();
  std::istringstream in(data);
  rdf::ParseNTriples(in, *doc.dict, *doc.store);
  doc.store->Finalize();
  return doc;
}

/// Runs `text` on `doc` at the `cfg` level.
inline sparql::QueryResult RunQuery(const LoadedDocument& doc,
                                    const std::string& text,
                                    const sparql::EngineConfig& cfg) {
  sparql::Engine engine(*doc.store, *doc.dict, cfg, doc.stats.get());
  return engine.Execute(sparql::Parse(text, DefaultPrefixes()));
}

struct NestedShape {
  const char* name;
  const char* data;
  const char* query;
  bool correlated;
  bool anti = false;
};

inline const std::vector<NestedShape>& NestedShapes() {
  static const std::vector<NestedShape> shapes = {
      {"sibling_optional_seed",
       "<http://e/s> <http://e/p> <http://e/o1> .\n"
       "<http://e/s> <http://e/q> <http://e/v1> .\n"
       "<http://e/w> <http://e/r> <http://e/v1> .\n",
       "SELECT * WHERE { ?s <http://e/p> ?o "
       "OPTIONAL { ?s <http://e/q> ?v } "
       "OPTIONAL { ?w <http://e/r> ?v FILTER (?v = ?o) } }",
       false},
      // The inner seed (?z := ?s) needs the grandparent's ?s.
      {"two_level_correlation",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n"
       "<http://e/y> <http://e/r> <http://e/a> .\n",
       "SELECT * WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?y "
       "OPTIONAL { ?y <http://e/r> ?z FILTER (?z = ?s) } } }",
       true},
      // A UNION-branch filter on the OPTIONAL's left binding.
      {"union_in_optional",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n",
       "SELECT * WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { { ?x <http://e/q> ?y FILTER (bound(?s)) } "
       "UNION { ?x <http://e/q> ?y } } }",
       true},
      // A non-equality residual filter on a grandparent binding: no
      // seed or hash key can express it.
      {"grandparent_residual",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/x> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n"
       "<http://e/y> <http://e/r> <http://e/a> .\n"
       "<http://e/y> <http://e/r> <http://e/b> .\n",
       "SELECT * WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?y "
       "OPTIONAL { ?y <http://e/r> ?z FILTER (?z != ?s) } } }",
       true},
      // The correlated OPTIONAL sits inside a UNION branch: its left
      // rows are the branch's rows.
      {"correlated_in_union",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/x> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n"
       "<http://e/y> <http://e/r> <http://e/z> .\n"
       "<http://e/z> <http://e/p> <http://e/a> .\n",
       "SELECT * WHERE { ?s <http://e/p> ?x "
       "{ ?x <http://e/q> ?y OPTIONAL { ?y <http://e/r> ?z "
       "OPTIONAL { ?z <http://e/p> ?w FILTER (?w != ?s) } } } "
       "UNION { ?x <http://e/q> ?y } }",
       true},
      // Duplicate left rows out of a UNION: each copy keeps its own
      // extensions (the row id tells them apart).
      {"duplicate_left_rows",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/x> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n"
       "<http://e/y> <http://e/r> <http://e/a> .\n"
       "<http://e/y> <http://e/r> <http://e/b> .\n",
       "SELECT * WHERE { { ?s <http://e/p> ?x } UNION { ?s <http://e/p> ?x } "
       "OPTIONAL { ?x <http://e/q> ?y "
       "OPTIONAL { ?y <http://e/r> ?z FILTER (?z != ?s) } } }",
       true},
      // A correlated OPTIONAL whose left rows come from an earlier
      // OPTIONAL of a group without patterns: the numbered rows must
      // stay the right side's base.
      {"correlated_after_optional",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/x> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n"
       "<http://e/y> <http://e/r> <http://e/a> .\n",
       "SELECT * WHERE { OPTIONAL { ?s <http://e/p> ?x } "
       "OPTIONAL { ?x <http://e/q> ?y "
       "OPTIONAL { ?y <http://e/r> ?z FILTER (?z != ?s) } } }",
       true},
      // A nested OPTIONAL binding a variable its grandparent already
      // bound: standalone, it would ignore the bound value.
      {"optional_rebinds_outer",
       "<http://e/a1> <http://e/p> <http://e/v0> .\n"
       "<http://e/a1> <http://e/q> <http://e/b1> .\n"
       "<http://e/b1> <http://e/r> <http://e/v1> .\n"
       "<http://e/b1> <http://e/r> <http://e/v0> .\n"
       "<http://e/a2> <http://e/p> <http://e/v0> .\n"
       "<http://e/a2> <http://e/q> <http://e/b2> .\n"
       "<http://e/b2> <http://e/r> <http://e/v1> .\n",
       "SELECT * WHERE { ?a <http://e/p> ?v "
       "OPTIONAL { ?a <http://e/q> ?b OPTIONAL { ?b <http://e/r> ?v } } }",
       true},
      // A repeated variable within one pattern: the scan range of
      // '?x <p> ?x' is sorted by its *object* component, so an
      // order-aware merge join must gallop on that position even
      // though the subject holds the same variable (regression: the
      // planner once galloped on the subject of the o-sorted range
      // and silently dropped every match).
      {"repeated_variable_merge",
       "<http://e/n1> <http://e/p> <http://e/n1> .\n"
       "<http://e/n1> <http://e/p> <http://e/n2> .\n"
       "<http://e/n2> <http://e/p> <http://e/n3> .\n"
       "<http://e/n3> <http://e/p> <http://e/n3> .\n"
       "<http://e/n1> <http://e/q> <http://e/one> .\n"
       "<http://e/n3> <http://e/q> <http://e/one> .\n"
       "<http://e/n5> <http://e/p> <http://e/n5> .\n"
       "<http://e/n5> <http://e/q> <http://e/one> .\n",
       "SELECT ?x WHERE { ?x <http://e/p> ?x . "
       "?x <http://e/q> <http://e/one> }",
       false},
      // Two constant equalities on one variable: only the first may
      // become a binding, the second stays a filter (no row is both).
      {"double_const_equality",
       "<http://e/a> <http://e/p> <http://e/n1> .\n"
       "<http://e/a> <http://e/p> <http://e/n3> .\n"
       "<http://e/b> <http://e/p> <http://e/n3> .\n",
       "SELECT ?a ?b WHERE { ?a <http://e/p> ?b "
       "FILTER (?b = <http://e/n1>) FILTER (?b = <http://e/n3>) }",
       false},
      // Anti-joins. A q6-like residual: the earliest work per author.
      {"anti_join_residual",
       "<http://e/a> <http://e/by> <http://e/x> .\n"
       "<http://e/a> <http://e/yr> "
       "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
       "<http://e/b> <http://e/by> <http://e/x> .\n"
       "<http://e/b> <http://e/yr> "
       "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
       "<http://e/c> <http://e/by> <http://e/z> .\n"
       "<http://e/c> <http://e/yr> "
       "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
       "SELECT ?d ?yr WHERE { ?d <http://e/by> ?w . ?d <http://e/yr> ?yr "
       "OPTIONAL { ?d2 <http://e/by> ?w2 . ?d2 <http://e/yr> ?yr2 "
       "FILTER (?w2 = ?w && ?yr2 < ?yr) } FILTER (!bound(?w2)) }",
       false, true},
      // Duplicate left rows each survive on their own.
      {"anti_join_duplicate_left_rows",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/y> .\n"
       "<http://e/x> <http://e/q> <http://e/v1> .\n",
       "SELECT ?s WHERE { { ?s <http://e/p> ?x } UNION { ?s <http://e/p> ?x } "
       "OPTIONAL { ?x <http://e/q> ?v } FILTER (!bound(?v)) }",
       false, true},
      // A correlated OPTIONAL: the anti-join keys on the row id.
      {"anti_join_correlated",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/w> .\n"
       "<http://e/x> <http://e/q> <http://e/y> .\n"
       "<http://e/y> <http://e/r> <http://e/a> .\n",
       "SELECT ?s ?x WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?y "
       "OPTIONAL { ?y <http://e/r> ?z FILTER (?z != ?s) } } "
       "FILTER (!bound(?y)) }",
       true, true},
      // A right row equal on the key but incompatible on ?w, which
      // only some left rows bind, is no match.
      {"anti_join_incompatible_maybe_slot",
       "<http://e/s1> <http://e/p> <http://e/x1> .\n"
       "<http://e/s1> <http://e/q> <http://e/w1> .\n"
       "<http://e/x1> <http://e/r> <http://e/v1> .\n"
       "<http://e/v1> <http://e/t> <http://e/w2> .\n"
       "<http://e/s2> <http://e/p> <http://e/x2> .\n"
       "<http://e/x2> <http://e/r> <http://e/v2> .\n"
       "<http://e/v2> <http://e/t> <http://e/w3> .\n"
       "<http://e/s3> <http://e/p> <http://e/x3> .\n"
       "<http://e/s3> <http://e/q> <http://e/w4> .\n"
       "<http://e/x3> <http://e/r> <http://e/v3> .\n"
       "<http://e/v3> <http://e/t> <http://e/w4> .\n",
       "SELECT ?s WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?s <http://e/q> ?w } "
       "OPTIONAL { ?x <http://e/r> ?v . ?v <http://e/t> ?w } "
       "FILTER (!bound(?v)) }",
       false, true},
      // Where the anti-join must not fire: ?v is projected ...
      {"no_anti_join_projected",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/y> .\n"
       "<http://e/c> <http://e/p> <http://e/z> .\n"
       "<http://e/x> <http://e/q> <http://e/v1> .\n"
       "<http://e/y> <http://e/q> <http://e/y1> .\n"
       "<http://e/y1> <http://e/r> <http://e/v2> .\n"
       "<http://e/a> <http://e/r> <http://e/v3> .\n",
       "SELECT ?s ?v WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?v } FILTER (!bound(?v)) }",
       false},
      // ... read by a second filter ...
      {"no_anti_join_second_filter",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/y> .\n"
       "<http://e/c> <http://e/p> <http://e/z> .\n"
       "<http://e/x> <http://e/q> <http://e/v1> .\n"
       "<http://e/y> <http://e/q> <http://e/y1> .\n"
       "<http://e/y1> <http://e/r> <http://e/v2> .\n"
       "<http://e/a> <http://e/r> <http://e/v3> .\n",
       "SELECT ?s WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?v } FILTER (!bound(?v)) "
       "FILTER (bound(?s) || bound(?v)) }",
       false},
      // ... bound only by an OPTIONAL nested in the right side ...
      {"no_anti_join_nested_only",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/y> .\n"
       "<http://e/c> <http://e/p> <http://e/z> .\n"
       "<http://e/x> <http://e/q> <http://e/v1> .\n"
       "<http://e/y> <http://e/q> <http://e/y1> .\n"
       "<http://e/y1> <http://e/r> <http://e/v2> .\n"
       "<http://e/a> <http://e/r> <http://e/v3> .\n",
       "SELECT ?s WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?y OPTIONAL { ?y <http://e/r> ?v } } "
       "FILTER (!bound(?v)) }",
       false},
      // ... already in the left side's scope ...
      {"no_anti_join_left_scope",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/y> .\n"
       "<http://e/c> <http://e/p> <http://e/z> .\n"
       "<http://e/x> <http://e/q> <http://e/v1> .\n"
       "<http://e/y> <http://e/q> <http://e/y1> .\n"
       "<http://e/y1> <http://e/r> <http://e/v2> .\n"
       "<http://e/a> <http://e/r> <http://e/v3> .\n",
       "SELECT ?s WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?s <http://e/r> ?v } OPTIONAL { ?x <http://e/q> ?v } "
       "FILTER (!bound(?v)) }",
       false},
      // ... or `!bound` is one side of a disjunction.
      {"no_anti_join_disjunction",
       "<http://e/a> <http://e/p> <http://e/x> .\n"
       "<http://e/b> <http://e/p> <http://e/y> .\n"
       "<http://e/c> <http://e/p> <http://e/z> .\n"
       "<http://e/x> <http://e/q> <http://e/v1> .\n"
       "<http://e/y> <http://e/q> <http://e/y1> .\n"
       "<http://e/y1> <http://e/r> <http://e/v2> .\n"
       "<http://e/a> <http://e/r> <http://e/v3> .\n",
       "SELECT ?s WHERE { ?s <http://e/p> ?x "
       "OPTIONAL { ?x <http://e/q> ?v } "
       "FILTER (!bound(?v) || ?s = <http://e/a>) }",
       false},
  };
  return shapes;
}

}  // namespace sp2b::test

#endif  // SP2B_TESTS_NESTED_SHAPES_H_
