// SPARQL parser tests over the benchmark query texts and ad-hoc
// inputs: shapes, filters, UNION/OPTIONAL nesting, modifiers, typed
// literals, and error reporting.
#include "sp2b/queries.h"
#include "sp2b/sparql/parser.h"
#include "test_util.h"

using namespace sp2b;
using namespace sp2b::sparql;

SP2B_TEST(q1_shape) {
  AstQuery q = Parse(GetQuery("q1").text, DefaultPrefixes());
  CHECK(q.form == AstQuery::kSelect);
  CHECK(!q.distinct);
  CHECK_EQ(q.select.size(), size_t{1});
  CHECK_EQ(q.select[0].var, std::string("yr"));
  CHECK_EQ(q.where.triples.size(), size_t{3});
  CHECK(q.where.triples[0].s.kind == TermRef::kVar);
  CHECK(q.where.triples[0].p.kind == TermRef::kIri);
  CHECK_EQ(q.where.triples[0].p.value,
           std::string("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"));
  CHECK(q.where.triples[1].o.kind == TermRef::kLiteral);
  CHECK_EQ(q.where.triples[1].o.value, std::string("Journal 1 (1940)"));
}

SP2B_TEST(filters) {
  AstQuery q4 = Parse(GetQuery("q4").text, DefaultPrefixes());
  CHECK_EQ(q4.where.triples.size(), size_t{8});
  CHECK_EQ(q4.where.filters.size(), size_t{1});
  CHECK(q4.where.filters[0].op == Expr::kLt);
  CHECK(q4.distinct);

  AstQuery q6 = Parse(GetQuery("q6").text, DefaultPrefixes());
  CHECK_EQ(q6.where.triples.size(), size_t{5});
  CHECK_EQ(q6.where.optionals.size(), size_t{1});
  CHECK_EQ(q6.where.optionals[0].filters.size(), size_t{1});
  CHECK(q6.where.optionals[0].filters[0].op == Expr::kAnd);
  // Outer !bound(?author2).
  CHECK_EQ(q6.where.filters.size(), size_t{1});
  CHECK(q6.where.filters[0].op == Expr::kNot);
  CHECK(q6.where.filters[0].kids[0].op == Expr::kBound);
  CHECK_EQ(q6.where.filters[0].kids[0].var, std::string("author2"));
}

SP2B_TEST(union_optional) {
  AstQuery q8 = Parse(GetQuery("q8").text, DefaultPrefixes());
  CHECK_EQ(q8.where.triples.size(), size_t{2});
  CHECK_EQ(q8.where.unions.size(), size_t{1});
  CHECK_EQ(q8.where.unions[0].size(), size_t{2});
  CHECK_EQ(q8.where.unions[0][0].triples.size(), size_t{5});
  CHECK_EQ(q8.where.unions[0][1].triples.size(), size_t{3});

  AstQuery q7 = Parse(GetQuery("q7").text, DefaultPrefixes());
  CHECK_EQ(q7.where.optionals.size(), size_t{1});
  CHECK_EQ(q7.where.optionals[0].optionals.size(), size_t{1});
  CHECK_EQ(q7.where.optionals[0].filters.size(), size_t{1});

  AstQuery q2 = Parse(GetQuery("q2").text, DefaultPrefixes());
  CHECK_EQ(q2.where.optionals.size(), size_t{1});
  CHECK_EQ(q2.where.optionals[0].triples.size(), size_t{1});
  CHECK_EQ(q2.order_by.size(), size_t{1});
}

SP2B_TEST(modifiers) {
  AstQuery q11 = Parse(GetQuery("q11").text, DefaultPrefixes());
  CHECK_EQ(q11.order_by.size(), size_t{1});
  CHECK_EQ(q11.order_by[0].var, std::string("ee"));
  CHECK(!q11.order_by[0].descending);
  CHECK(q11.has_limit);
  CHECK_EQ(q11.limit, uint64_t{10});
  CHECK_EQ(q11.offset, uint64_t{50});

  AstQuery qa2 = Parse(GetQuery("qa2").text, DefaultPrefixes());
  CHECK_EQ(qa2.group_by.size(), size_t{1});
  CHECK_EQ(qa2.order_by.size(), size_t{2});
  CHECK(qa2.order_by[0].descending);
  CHECK_EQ(qa2.order_by[0].var, std::string("n"));
  CHECK(qa2.select[1].agg == SelectItem::kCount);
  CHECK_EQ(qa2.select[1].var, std::string("n"));
  CHECK_EQ(qa2.select[1].source_var, std::string("author"));

  AstQuery qa3 = Parse(GetQuery("qa3").text, DefaultPrefixes());
  CHECK(qa3.select[0].agg == SelectItem::kCount);
  CHECK(qa3.select[0].distinct_agg);
}

SP2B_TEST(typed_literals) {
  AstQuery q = Parse(
      "SELECT ?x WHERE { ?x dc:title \"T\"^^xsd:string . "
      "?x dcterms:issued ?yr FILTER (?yr >= 1940) }",
      DefaultPrefixes());
  CHECK_EQ(q.where.triples[0].o.datatype,
           std::string("http://www.w3.org/2001/XMLSchema#string"));
  CHECK(q.where.filters[0].op == Expr::kGe);
  const Expr& rhs = q.where.filters[0].kids[1];
  CHECK(rhs.op == Expr::kConst);
  CHECK_EQ(rhs.constant.value, std::string("1940"));
  CHECK_EQ(rhs.constant.datatype,
           std::string("http://www.w3.org/2001/XMLSchema#integer"));

  // ASK + inline PREFIX + 'a' shorthand.
  AstQuery ask = Parse(
      "PREFIX ex: <http://example.org/> ASK { ex:s a ex:C }",
      DefaultPrefixes());
  CHECK(ask.form == AstQuery::kAsk);
  CHECK_EQ(ask.where.triples[0].p.value,
           std::string("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"));
  CHECK_EQ(ask.where.triples[0].s.value, std::string("http://example.org/s"));
}

SP2B_TEST(pname_dot) {
  // A statement-terminating '.' flush against a prefixed name must not
  // be absorbed into the local part (PN_LOCAL never ends with '.').
  AstQuery q = Parse("SELECT ?j WHERE { ?j rdf:type bench:Journal. }",
                     DefaultPrefixes());
  CHECK_EQ(q.where.triples.size(), size_t{1});
  CHECK_EQ(q.where.triples[0].o.value,
           std::string("http://localhost/vocabulary/bench/Journal"));
  // Dots inside the local part are kept.
  AstQuery q2 = Parse(
      "PREFIX ex: <http://example.org/> SELECT ?s WHERE "
      "{ ?s ex:a.b ?o . }",
      DefaultPrefixes());
  CHECK_EQ(q2.where.triples[0].p.value, std::string("http://example.org/a.b"));
}

SP2B_TEST(errors) {
  auto throws = [](const std::string& text) {
    try {
      Parse(text, DefaultPrefixes());
    } catch (const ParseError&) {
      return true;
    }
    return false;
  };
  CHECK(throws("SELECT WHERE { ?s ?p ?o }"));          // empty select
  CHECK(throws("SELECT ?s WHERE { ?s ?p ?o "));        // unclosed group
  CHECK(throws("SELECT ?s WHERE { ?s unknown:p ?o }")); // unknown prefix
  CHECK(throws("SELECT ?s WHERE { ?s ?p ?o } garbage")); // trailing junk
  CHECK(throws("DESCRIBE ?s WHERE { ?s ?p ?o }"));     // unsupported form
  CHECK(throws("SELECT ?s WHERE { \"lit\" ?p ?o }"));  // literal subject
}

// Groups and expressions nest at most 64 levels (the WHERE group is
// the first); deeper input is refused before anything recurses on it.
SP2B_TEST(nesting_limit) {
  auto nested = [](int optionals) {
    std::string text = "SELECT * WHERE { ?s <http://e/p> ?o ";
    for (int i = 0; i < optionals; ++i) {
      text += "OPTIONAL { ?s <http://e/p> ?o ";
    }
    return text + std::string(static_cast<size_t>(optionals) + 1, '}');
  };
  AstQuery deepest = Parse(nested(63), DefaultPrefixes());
  CHECK_EQ(deepest.where.optionals.size(), size_t{1});
  bool refused = false;
  try {
    Parse(nested(64), DefaultPrefixes());
  } catch (const ParseError&) {
    refused = true;
  }
  CHECK(refused);
  refused = false;
  try {
    Parse("SELECT ?s WHERE { ?s ?p ?o FILTER (" + std::string(100, '!') +
              "bound(?s)) }",
          DefaultPrefixes());
  } catch (const ParseError&) {
    refused = true;
  }
  CHECK(refused);
}

SP2B_TEST_MAIN()
