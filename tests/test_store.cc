// Store invariants: N-Triples round-trips (escapes, typed literals,
// language tags, property-style randomized literals), dictionary
// encode/decode, index-scan agreement between the MemStore,
// IndexStore, and VerticalStore orderings, and the planner statistics
// every store (a live snapshot too) yields.
#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "sp2b/gen/generator.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/vertical_store.h"
#include "test_util.h"

using namespace sp2b;
using namespace sp2b::rdf;

namespace {

std::string Serialize(const Store& store, const Dictionary& dict) {
  std::ostringstream out;
  WriteNTriples(store, dict, out);
  return out.str();
}

}  // namespace

SP2B_TEST(ntriples_roundtrip) {
  const std::string doc =
      "<http://example.org/a> <http://example.org/p> "
      "<http://example.org/b> .\n"
      "<http://example.org/a> <http://example.org/title> "
      "\"a \\\"quoted\\\" title with \\\\ and \\n newline\"^^"
      "<http://www.w3.org/2001/XMLSchema#string> .\n"
      "_:bag1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#_1> "
      "<http://example.org/b> .\n"
      "<http://example.org/a> <http://purl.org/dc/terms/issued> "
      "\"1940\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "# a comment line\n"
      "\n"
      "<http://example.org/a> <http://example.org/plain> \"plain\" .\n";

  std::istringstream in(doc);
  Dictionary dict;
  MemStore store;
  uint64_t n = ParseNTriples(in, dict, store);
  CHECK_EQ(n, uint64_t{5});
  store.Finalize();

  // Serialize, reparse, reserialize: fixpoint after one round.
  std::string first = Serialize(store, dict);
  std::istringstream in2(first);
  Dictionary dict2;
  MemStore store2;
  CHECK_EQ(ParseNTriples(in2, dict2, store2), uint64_t{5});
  store2.Finalize();
  CHECK_EQ(Serialize(store2, dict2), first);

  // Typed integer literal survives with its value.
  TermId issued = dict2.FindIri("http://purl.org/dc/terms/issued");
  CHECK(issued != kNoTerm);
  store2.Match({kNoTerm, issued, kNoTerm}, [&](const Triple& t) {
    CHECK_EQ(*dict2.IntValue(t.o), int64_t{1940});
    return true;
  });
}

SP2B_TEST(escapes) {
  CHECK_EQ(EscapeLiteral("a\"b\\c\nd\te"),
           std::string("a\\\"b\\\\c\\nd\\te"));
  CHECK_EQ(UnescapeLiteral("a\\\"b\\\\c\\nd\\te"),
           std::string("a\"b\\c\nd\te"));
  CHECK_EQ(UnescapeLiteral("snow\\u2603man"),
           std::string("snow\xE2\x98\x83man"));
  CHECK_EQ(UnescapeLiteral("x\\U0001F600y"),
           std::string("x\xF0\x9F\x98\x80y"));
  bool threw = false;
  try {
    UnescapeLiteral("bad\\q");
  } catch (const NTriplesError&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    Dictionary dict;
    MemStore store;
    Triple t;
    ParseNTriplesLine("<http://a> <http://b> \"unterminated .", dict, &t);
  } catch (const NTriplesError&) {
    threw = true;
  }
  CHECK(threw);
}

SP2B_TEST(control_escapes) {
  // Control characters without a short escape must leave the codec as
  // \u00XX, never as raw bytes (canonical N-Triples; the HTTP JSON
  // serializer shares this guarantee).
  CHECK_EQ(EscapeLiteral(std::string_view("\x01", 1)),
           std::string("\\u0001"));
  CHECK_EQ(EscapeLiteral(std::string_view("\x0B", 1)),
           std::string("\\u000B"));
  CHECK_EQ(EscapeLiteral(std::string_view("\x7F", 1)),
           std::string("\\u007F"));
  CHECK_EQ(EscapeLiteral(std::string_view("\0", 1)),
           std::string("\\u0000"));
  // The short escapes stay short, and no printable char is touched.
  CHECK_EQ(EscapeLiteral("\n\r\t"), std::string("\\n\\r\\t"));
  CHECK_EQ(EscapeLiteral("plain ~"), std::string("plain ~"));

  // Escape -> unescape is the identity over every single-byte
  // literal, and the escaped form never contains a raw control byte.
  for (int b = 0; b < 256; ++b) {
    std::string lex(1, static_cast<char>(b));
    std::string escaped = EscapeLiteral(lex);
    for (char c : escaped) {
      unsigned char u = static_cast<unsigned char>(c);
      CHECK(u >= 0x20 && u != 0x7F);
    }
    CHECK_EQ(UnescapeLiteral(escaped), lex);
  }

  // A control character round-trips through a full serialized line.
  Dictionary dict;
  MemStore store;
  Triple t;
  CHECK(ParseNTriplesLine("<http://e/s> <http://e/p> \"a\\u0001b\" .",
                          dict, &t));
  CHECK_EQ(dict.Lookup(t.o).lexical, std::string("a\x01" "b"));
  CHECK_EQ(dict.ToNTriples(t.o), std::string("\"a\\u0001b\""));

  // Surrogate code points are not scalar values: reject instead of
  // emitting invalid UTF-8.
  for (const char* bad : {"\\uD800", "\\uDBFF", "\\uDC00", "\\uDFFF",
                          "x\\U0000D800y"}) {
    bool threw = false;
    try {
      UnescapeLiteral(bad);
    } catch (const NTriplesError&) {
      threw = true;
    }
    CHECK(threw);
  }
  // The surrounding non-surrogate range still decodes.
  CHECK_EQ(UnescapeLiteral("\\uD7FF"), std::string("\xED\x9F\xBF"));
  CHECK_EQ(UnescapeLiteral("\\uE000"), std::string("\xEE\x80\x80"));
}

SP2B_TEST(language_tags) {
  const std::string doc =
      "<http://e/a> <http://e/label> \"colour\"@en-GB .\n"
      "<http://e/a> <http://e/label> \"Farbe\"@de .\n"
      "<http://e/a> <http://e/label> \"colour\" .\n"
      "<http://e/a> <http://e/label> "
      "\"colour\"^^<http://www.w3.org/2001/XMLSchema#string> .\n";
  std::istringstream in(doc);
  Dictionary dict;
  MemStore store;
  CHECK_EQ(ParseNTriples(in, dict, store), uint64_t{4});
  store.Finalize();
  // Tagged, plain, and typed literals with the same lexical form are
  // distinct terms, and the tag survives serialization byte-exactly.
  CHECK_EQ(store.Count({kNoTerm, kNoTerm, kNoTerm}), uint64_t{4});
  TermId tagged = dict.FindLiteral("colour", "@en-GB");
  CHECK(tagged != kNoTerm);
  CHECK(tagged != dict.FindLiteral("colour", ""));
  CHECK_EQ(dict.ToNTriples(tagged), std::string("\"colour\"@en-GB"));
  CHECK_EQ(Serialize(store, dict), doc);
  bool threw = false;
  try {
    Dictionary d2;
    Triple t;
    ParseNTriplesLine("<http://e/a> <http://e/p> \"x\"@ .", d2, &t);
  } catch (const NTriplesError&) {
    threw = true;
  }
  CHECK(threw);
}

SP2B_TEST(ntriples_property) {
  // Property-style round trip: randomized literals exercising every
  // escape class (quotes, backslashes, \n \r \t), raw unicode bytes,
  // datatypes, and language tags. encode -> decode -> encode must be
  // a fixed point, and each decoded lexical must equal the original.
  std::mt19937 rng(4711);
  const std::string alphabet =
      "abc XYZ09\"\\\n\r\t,;.<>^@_:#";
  const char* unicode[] = {"\xC3\xA9", "\xE2\x98\x83", "\xF0\x9F\x98\x80"};
  const char* datatypes[] = {
      "", "@en", "@de-AT",
      "http://www.w3.org/2001/XMLSchema#string",
      "http://www.w3.org/2001/XMLSchema#integer"};

  Dictionary dict;
  MemStore store;
  std::vector<std::string> lexicals;
  std::string doc;
  for (int i = 0; i < 300; ++i) {
    std::string lex;
    size_t len = rng() % 24;
    for (size_t k = 0; k < len; ++k) {
      if (rng() % 7 == 0) {
        lex += unicode[rng() % 3];
      } else {
        lex += alphabet[rng() % alphabet.size()];
      }
    }
    // The per-literal codec alone must already round-trip.
    CHECK_EQ(UnescapeLiteral(EscapeLiteral(lex)), lex);
    const char* dt = datatypes[rng() % 5];
    lexicals.push_back(lex);
    std::string term = '"' + EscapeLiteral(lex) + '"';
    if (dt[0] == '@') {
      term += dt;
    } else if (dt[0] != '\0') {
      term += "^^<" + std::string(dt) + ">";
    }
    std::string line = "<http://e/s" + std::to_string(i) +
                       "> <http://e/p> " + term + " .\n";
    Triple t;
    CHECK(ParseNTriplesLine(line, dict, &t));
    store.Add(t);
    CHECK_EQ(dict.Lookup(t.o).lexical, lex);
    CHECK_EQ(dict.Lookup(t.o).datatype, std::string(dt));
    doc += line;
  }
  store.Finalize();

  // First serialization equals the hand-built document (MemStore
  // preserves insertion order), and one more parse+serialize round
  // reaches the fixed point.
  std::string first = Serialize(store, dict);
  CHECK_EQ(first, doc);
  std::istringstream in(first);
  Dictionary dict2;
  MemStore store2;
  CHECK_EQ(ParseNTriples(in, dict2, store2), uint64_t{300});
  store2.Finalize();
  CHECK_EQ(Serialize(store2, dict2), first);
  size_t i = 0;
  store2.Match({kNoTerm, kNoTerm, kNoTerm}, [&](const Triple& t) {
    CHECK_EQ(dict2.Lookup(t.o).lexical, lexicals[i++]);
    return true;
  });
  CHECK_EQ(i, size_t{300});
}

SP2B_TEST(dictionary) {
  Dictionary dict;
  TermId iri = dict.InternIri("http://example.org/x");
  TermId blank = dict.InternBlank("http://example.org/x");
  TermId lit = dict.InternLiteral("http://example.org/x", "");
  TermId typed = dict.InternLiteral(
      "http://example.org/x", "http://www.w3.org/2001/XMLSchema#string");
  // Same lexical form, four distinct terms.
  CHECK(iri != blank && iri != lit && iri != typed && blank != lit &&
        blank != typed && lit != typed);
  CHECK_EQ(dict.InternIri("http://example.org/x"), iri);
  CHECK_EQ(dict.FindIri("http://example.org/x"), iri);
  CHECK_EQ(dict.FindIri("http://example.org/missing"), kNoTerm);
  CHECK_EQ(dict.size(), size_t{4});

  CHECK(dict.Lookup(iri).type == TermType::kIri);
  CHECK(dict.Lookup(typed).type == TermType::kLiteral);
  CHECK_EQ(dict.Lookup(typed).datatype,
           std::string("http://www.w3.org/2001/XMLSchema#string"));

  TermId year = dict.InternLiteral(
      "1987", "http://www.w3.org/2001/XMLSchema#integer");
  CHECK_EQ(*dict.IntValue(year), int64_t{1987});
  CHECK(!dict.IntValue(iri).has_value());
  TermId negative = dict.InternLiteral(
      "-12", "http://www.w3.org/2001/XMLSchema#integer");
  CHECK_EQ(*dict.IntValue(negative), int64_t{-12});

  CHECK_EQ(dict.ToNTriples(iri), std::string("<http://example.org/x>"));
  CHECK_EQ(dict.ToNTriples(year),
           std::string(
               "\"1987\"^^<http://www.w3.org/2001/XMLSchema#integer>"));
}

namespace {

std::vector<Triple> Collect(const Store& store, const TriplePattern& p) {
  std::vector<Triple> out;
  store.Match(p, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  std::sort(out.begin(), out.end(), [](const Triple& a, const Triple& b) {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  });
  return out;
}

struct ThreeStores {
  Dictionary dict;
  MemStore mem;
  IndexStore index;
  VerticalStore vertical;
};

std::string FixtureText() {
  std::ostringstream out;
  gen::NTriplesSink sink(out);
  gen::GeneratorConfig cfg;
  cfg.triple_limit = 3000;
  gen::Generate(cfg, sink);
  return out.str();
}

void LoadFixture(ThreeStores& s) {
  std::string text = FixtureText();
  for (Store* store : std::initializer_list<Store*>{&s.mem, &s.index,
                                                    &s.vertical}) {
    std::istringstream in(text);
    Dictionary fresh;  // shared dict keeps ids comparable across stores
    (void)fresh;
    ParseNTriples(in, s.dict, *store);
    store->Finalize();
  }
}

std::vector<TriplePattern> FixturePatterns(const ThreeStores& s) {
  TermId type = s.dict.FindIri(
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  TermId creator = s.dict.FindIri("http://purl.org/dc/elements/1.1/creator");
  TermId article = s.dict.FindIri(
      "http://localhost/vocabulary/bench/Article");
  // A subject and object that actually occur in the data.
  Triple sample{};
  s.mem.Match({kNoTerm, creator, kNoTerm}, [&](const Triple& t) {
    sample = t;
    return false;
  });
  return {
      {kNoTerm, kNoTerm, kNoTerm},      // scan
      {kNoTerm, type, kNoTerm},         // bound p
      {kNoTerm, type, article},         // bound p, o
      {sample.s, kNoTerm, kNoTerm},     // bound s
      {sample.s, creator, kNoTerm},     // bound s, p
      {sample.s, kNoTerm, sample.o},    // bound s, o
      {kNoTerm, kNoTerm, sample.o},     // bound o
      {sample.s, creator, sample.o},    // fully bound
  };
}

}  // namespace

SP2B_TEST(index_agreement) {
  ThreeStores s;
  LoadFixture(s);
  CHECK_EQ(s.mem.size(), s.index.size());
  CHECK_EQ(s.mem.size(), s.vertical.size());
  for (const TriplePattern& p : FixturePatterns(s)) {
    std::vector<Triple> expected = Collect(s.mem, p);
    CHECK(!Collect(s.index, p).empty() || expected.empty());
    CHECK(Collect(s.index, p) == expected);
    CHECK(Collect(s.vertical, p) == expected);
  }
}

SP2B_TEST(count_scan) {
  ThreeStores s;
  LoadFixture(s);
  for (const TriplePattern& p : FixturePatterns(s)) {
    uint64_t expected = Collect(s.mem, p).size();
    CHECK_EQ(s.mem.Count(p), expected);
    CHECK_EQ(s.index.Count(p), expected);
    CHECK_EQ(s.vertical.Count(p), expected);
  }
}

namespace {

/// Triples of a scan, concatenated from its cursor blocks, in stream
/// order (unlike Collect, which sorts).
std::vector<Triple> CollectBlocks(const Store& store, const TriplePattern& p,
                                  int lead = -1) {
  ScanCursor cursor;
  store.Scan(p, &cursor, lead);
  std::vector<Triple> out;
  for (TripleBlock b = cursor.Next(); !b.empty(); b = cursor.Next()) {
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

/// Component permutation of a ScanOrder, sort-major first.
void OrderPerm(ScanOrder order, int perm[3]) {
  switch (order) {
    case ScanOrder::kSPO: perm[0] = 0; perm[1] = 1; perm[2] = 2; break;
    case ScanOrder::kPOS: perm[0] = 1; perm[1] = 2; perm[2] = 0; break;
    case ScanOrder::kOSP: perm[0] = 2; perm[1] = 0; perm[2] = 1; break;
    case ScanOrder::kPSO: perm[0] = 1; perm[1] = 0; perm[2] = 2; break;
    case ScanOrder::kNone: perm[0] = perm[1] = perm[2] = -1; break;
  }
}

void CheckStreamSorted(const std::vector<Triple>& stream, ScanOrder order) {
  if (order == ScanOrder::kNone) return;
  int perm[3] = {0, 1, 2};
  OrderPerm(order, perm);
  auto key = [&](const Triple& t, int pos) {
    return pos == 0 ? t.s : pos == 1 ? t.p : t.o;
  };
  for (size_t i = 1; i < stream.size(); ++i) {
    bool le = false;
    for (int k = 0; k < 3; ++k) {
      TermId a = key(stream[i - 1], perm[k]);
      TermId b = key(stream[i], perm[k]);
      if (a != b) {
        le = a < b;
        break;
      }
    }
    CHECK(le);  // strictly ascending: stores deduplicate
  }
}

}  // namespace

SP2B_TEST(scan_ranges) {
  ThreeStores s;
  LoadFixture(s);
  std::vector<Store*> stores{&s.mem, &s.index, &s.vertical};
  // Every bound-pattern shape: the block stream must (a) advertise
  // the order ScanOrderFor promises, (b) actually be sorted that way,
  // and (c) contain exactly the Match result set.
  for (const TriplePattern& p : FixturePatterns(s)) {
    std::vector<Triple> expected = Collect(s.mem, p);
    for (Store* store : stores) {
      ScanCursor cursor;
      store->Scan(p, &cursor);
      CHECK(cursor.order() == store->ScanOrderFor(p));
      std::vector<Triple> stream = CollectBlocks(*store, p);
      CheckStreamSorted(stream, store->ScanOrderFor(p));
      std::sort(stream.begin(), stream.end(),
                [](const Triple& a, const Triple& b) {
                  if (a.s != b.s) return a.s < b.s;
                  if (a.p != b.p) return a.p < b.p;
                  return a.o < b.o;
                });
      CHECK(stream == expected);
    }
  }
  // Empty ranges: a term id that exists nowhere in the data, in every
  // position, must yield an immediately-exhausted cursor.
  TermId absent = static_cast<TermId>(s.dict.size() + 100);
  for (Store* store : stores) {
    for (const TriplePattern& p :
         {TriplePattern{absent, kNoTerm, kNoTerm},
          TriplePattern{kNoTerm, absent, kNoTerm},
          TriplePattern{kNoTerm, kNoTerm, absent},
          TriplePattern{absent, absent, absent}}) {
      CHECK(CollectBlocks(*store, p).empty());
    }
  }
  // Full range: the stream enumerates the whole store.
  for (Store* store : stores) {
    CHECK_EQ(CollectBlocks(*store, {}).size(), store->size());
  }

  // Range lookup edge cases against a linear filter: runs of length
  // 2^k - 1, 2^k and 2^k + 1 (the galloping bracket's edges), empty
  // runs between present ids (odd subjects), runs at the very end of
  // each permutation (the largest s, p and o), and (s, o) patterns,
  // which route through OSP.
  IndexStore runs;
  std::vector<Triple> all;
  const size_t lengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                            31, 32, 33, 63, 64, 65, 200};
  TermId max_s = 0;
  for (size_t k = 0; k < std::size(lengths); ++k) {
    max_s = static_cast<TermId>(2 * k + 2);
    for (size_t j = 0; j < lengths[k]; ++j) {
      Triple t{max_s, static_cast<TermId>(1000 + j % 3),
               static_cast<TermId>(5000 + j)};
      runs.Add(t);
      all.push_back(t);
    }
  }
  runs.Finalize();
  auto linear = [&](const TriplePattern& p) {
    std::vector<Triple> out;
    for (const Triple& t : all) {
      if ((p.s == kNoTerm || p.s == t.s) && (p.p == kNoTerm || p.p == t.p) &&
          (p.o == kNoTerm || p.o == t.o)) {
        out.push_back(t);
      }
    }
    std::sort(out.begin(), out.end(), [](const Triple& a, const Triple& b) {
      if (a.s != b.s) return a.s < b.s;
      if (a.p != b.p) return a.p < b.p;
      return a.o < b.o;
    });
    return out;
  };
  std::vector<TriplePattern> patterns;
  for (TermId o = 4999; o <= 5201; ++o) {
    patterns.push_back({kNoTerm, kNoTerm, o});
  }
  for (TermId p = 999; p <= 1003; ++p) {
    patterns.push_back({kNoTerm, p, kNoTerm});
    for (TermId o : {4999u, 5000u, 5007u, 5064u, 5199u, 5200u}) {
      patterns.push_back({kNoTerm, p, o});
    }
  }
  for (TermId sub = 1; sub <= max_s + 1; ++sub) {
    patterns.push_back({sub, kNoTerm, kNoTerm});
    for (TermId p = 999; p <= 1003; ++p) {
      patterns.push_back({sub, p, kNoTerm});
    }
    for (TermId o : {4999u, 5000u, 5001u, 5016u, 5032u, 5199u, 5200u}) {
      patterns.push_back({sub, kNoTerm, o});
      patterns.push_back({sub, 1000, o});
    }
  }
  for (const TriplePattern& p : patterns) {
    if (p.s != kNoTerm && p.p == kNoTerm && p.o != kNoTerm) {
      CHECK(runs.ScanOrderFor(p) == ScanOrder::kOSP);
    }
    std::vector<Triple> stream = CollectBlocks(runs, p);
    CheckStreamSorted(stream, runs.ScanOrderFor(p));
    CHECK_EQ(runs.Count(p), stream.size());
    std::sort(stream.begin(), stream.end(),
              [](const Triple& a, const Triple& b) {
                if (a.s != b.s) return a.s < b.s;
                if (a.p != b.p) return a.p < b.p;
                return a.o < b.o;
              });
    CHECK(stream == linear(p));
  }
}

SP2B_TEST(scan_order_preference) {
  ThreeStores s;
  LoadFixture(s);
  // A full scan can be served in any permutation: the hexastore must
  // honor the leading-component preference (the planner requests the
  // join key's order), the single-order stores ignore it.
  struct Want {
    int lead;
    ScanOrder index_order;
  };
  for (const Want& w : {Want{-1, ScanOrder::kSPO}, Want{0, ScanOrder::kSPO},
                        Want{1, ScanOrder::kPOS}, Want{2, ScanOrder::kOSP}}) {
    CHECK(s.index.ScanOrderFor({}, w.lead) == w.index_order);
    std::vector<Triple> stream = CollectBlocks(s.index, {}, w.lead);
    CHECK_EQ(stream.size(), s.index.size());
    CheckStreamSorted(stream, w.index_order);
    CHECK(s.mem.ScanOrderFor({}, w.lead) == ScanOrder::kSPO);
    CHECK(s.vertical.ScanOrderFor({}, w.lead) == ScanOrder::kPSO);
    CheckStreamSorted(CollectBlocks(s.vertical, {}, w.lead),
                      ScanOrder::kPSO);
  }
  // Bound prefixes allow no alternative: the preference is ignored.
  TermId type = s.dict.FindIri(
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  CHECK(s.index.ScanOrderFor({kNoTerm, type, kNoTerm}, 0) ==
        ScanOrder::kPOS);
}

SP2B_TEST(scan_cursor_interleave) {
  // Cursor state must be fully cursor-local: two cursors streaming
  // the same store concurrently (here: interleaved block-by-block on
  // one thread) must not alias each other's progress or refill
  // buffers. The data is sized well past the refill block (1024
  // triples), so the buffered stores (mem, vertical) genuinely refill
  // several times per cursor while the other cursor is mid-stream.
  Dictionary dict;
  MemStore mem;
  IndexStore index;
  VerticalStore vertical;
  TermId p = dict.InternIri("http://e/p");
  TermId q = dict.InternIri("http://e/q");
  for (int i = 0; i < 2600; ++i) {
    Triple t{dict.InternIri("http://e/s" + std::to_string(i % 50)), p,
             dict.InternIri("http://e/o" + std::to_string(i))};
    mem.Add(t);
    index.Add(t);
    vertical.Add(t);
    if (i % 3 == 0) {
      Triple u{t.s, q, t.o};
      mem.Add(u);
      index.Add(u);
      vertical.Add(u);
    }
  }
  mem.Finalize();
  index.Finalize();
  vertical.Finalize();

  const TriplePattern pat_p{kNoTerm, p, kNoTerm};
  const TriplePattern pat_q{kNoTerm, q, kNoTerm};
  for (Store* store : std::vector<Store*>{&mem, &index, &vertical}) {
    const std::vector<Triple> ref_p = CollectBlocks(*store, pat_p);
    const std::vector<Triple> ref_q = CollectBlocks(*store, pat_q);
    CHECK_EQ(ref_p.size(), size_t{2600});
    CHECK(ref_q.size() > 800);

    // Two cursors over the same pattern plus one over a different
    // pattern, advanced round-robin one block at a time.
    ScanCursor a, b, c;
    store->Scan(pat_p, &a);
    store->Scan(pat_p, &b);
    store->Scan(pat_q, &c);
    std::vector<Triple> got_a, got_b, got_c;
    bool live_a = true, live_b = true, live_c = true;
    while (live_a || live_b || live_c) {
      if (live_a) {
        TripleBlock blk = a.Next();
        live_a = !blk.empty();
        got_a.insert(got_a.end(), blk.begin(), blk.end());
      }
      if (live_b) {
        TripleBlock blk = b.Next();
        live_b = !blk.empty();
        got_b.insert(got_b.end(), blk.begin(), blk.end());
      }
      if (live_c) {
        TripleBlock blk = c.Next();
        live_c = !blk.empty();
        got_c.insert(got_c.end(), blk.begin(), blk.end());
      }
    }
    CHECK(got_a == ref_p);
    CHECK(got_b == ref_p);
    CHECK(got_c == ref_q);

    // Cursors stay reusable after exhaustion: re-Scan and re-drain.
    store->Scan(pat_q, &a);
    std::vector<Triple> again;
    for (TripleBlock blk = a.Next(); !blk.empty(); blk = a.Next()) {
      again.insert(again.end(), blk.begin(), blk.end());
    }
    CHECK(again == ref_q);
  }
}

namespace {

/// Stats::Build against a brute-force count over Match: per predicate,
/// the distinct subjects and objects, and one entry per predicate.
void CheckPlannerStats(const Store& store, const Stats& stats) {
  std::map<TermId, std::set<TermId>> subjects, objects;
  store.Match({}, [&](const Triple& t) {
    subjects[t.p].insert(t.s);
    objects[t.p].insert(t.o);
    return true;
  });
  CHECK(!subjects.empty());
  CHECK_EQ(stats.predicate_stats.size(), subjects.size());
  for (const auto& [p, ss] : subjects) {
    auto it = stats.predicate_stats.find(p);
    CHECK(it != stats.predicate_stats.end());
    CHECK_EQ(it->second.distinct_subjects, uint64_t{ss.size()});
    CHECK_EQ(it->second.distinct_objects, uint64_t{objects[p].size()});
  }
}

}  // namespace

SP2B_TEST(planner_stats) {
  ThreeStores s;
  LoadFixture(s);
  for (const Store* store : std::initializer_list<const Store*>{
           &s.mem, &s.index, &s.vertical}) {
    CheckPlannerStats(*store, Stats::Build(*store, s.dict));
  }

  // A live snapshot composing several delta runs, committed in
  // overlapping slices so commit-time dedup is in play.
  std::string text = FixtureText();
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  LiveStore::Config cfg;
  cfg.background_compaction = false;
  LiveStore live(cfg);
  const size_t n = lines.size();
  for (size_t k = 0; k < 4; ++k) {
    std::string batch;
    for (size_t i = k * n / 4; i < std::min(n, (k + 1) * n / 4 + n / 8); ++i) {
      batch += lines[i] + "\n";
    }
    live.IngestNTriples(batch);
  }
  std::shared_ptr<const SnapshotStore> snap = live.Pin();
  CHECK_EQ(snap->delta_runs(), size_t{4});
  CHECK_EQ(snap->size(), s.index.size());
  CheckPlannerStats(*snap, Stats::Build(*snap, live.dict()));
  CheckPlannerStats(*snap, *snap->stats());
}

SP2B_TEST_MAIN()
