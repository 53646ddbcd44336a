// Handcrafted OPTIONAL / UNION / FILTER shapes outside the benchmark
// set, each with a tiny inline document. They historically broke the
// rewrites or the operator tree: equality filters whose variable
// arrives pre-bound from a sibling OPTIONAL, and conditions
// correlating an OPTIONAL with bindings only its left rows carry.
// `correlated` marks the shapes the planner must plan on top of the
// numbered left rows (a RowId operator in EXPLAIN). InlineDocument
// loads such a document; the other handcrafted fixtures use it too.
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
  };
  return shapes;
}

}  // namespace sp2b::test

#endif  // SP2B_TESTS_NESTED_SHAPES_H_
