// Reproduces the paper's tables and figures in one run and checks the
// claims they support. One generator run to 2005 feeds Table I and
// Figs. 2a-2c; one timed run per SP2B_SIZES entry writes the document
// the grid loads and feeds Tables III and VIII. Every engine a table
// needs then runs Q1-Q12c and qa1-qa4 on every size exactly once, and
// every other table picks its columns from that grid. Knobs:
// SP2B_SIZES (default 1k,10k,50k), SP2B_TIMEOUT (default 3s per
// query), SP2B_DATA_DIR.
//
// Exits 1, naming each broken claim on stderr, when a Table V fixed
// point breaks at a size >= 10k (q1=1, q3c=0, q9=4, q11=10, q12a/b yes,
// q12c no); q10 differs between two sizes whose documents end after
// 1996; two successful engines disagree on a count; a cell ends in an
// error; or qa3's value differs from Table VIII's #dist.auth. Timing
// shapes are printed, not checked: on a shared machine they are noise.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench_common.h"
#include "sp2b/gen/attribute_model.h"
#include "sp2b/gen/curves.h"
#include "sp2b/gen/generator.h"

using namespace sp2b;
using namespace sp2b::bench;
using namespace sp2b::gen;

namespace {

constexpr double kDefaultTimeoutSeconds = 3.0;

/// The engines behind every table: DefaultEngineSpecs() (Tables IV,
/// VI, VII, Figs. 5-8); naive and semantic on the hexastore (the
/// optimizer ablation, whose indexed and planned columns are
/// native-index and native-planned); and the mem store loaded once
/// (the storage ablation's scan column).
std::vector<EngineSpec> GridSpecs() {
  std::vector<EngineSpec> specs = DefaultEngineSpecs();
  specs.push_back({"naive", StoreKind::kIndex, sparql::EngineConfig::Naive(),
                   /*in_memory=*/false});
  specs.push_back(SemanticEngineSpec());
  specs.push_back({"scan", StoreKind::kMem, sparql::EngineConfig::Indexed(),
                   /*in_memory=*/false});
  return specs;
}

std::vector<std::string> Ids(const std::vector<BenchmarkQuery>& queries) {
  std::vector<std::string> ids;
  for (const BenchmarkQuery& q : queries) ids.push_back(q.id);
  return ids;
}

/// One SP2B_SIZES document as the generator wrote it.
struct Document {
  uint64_t size = 0;
  double seconds = 0.0;
  uint64_t bytes = 0;
  GeneratorStats stats;
};

/// Generates the `size` document into the file DocumentPool loads (the
/// name EnsureDocumentFile looks for), replacing a cached copy: Table
/// III times a full run, and Table VIII describes the very document
/// the grid queries.
Document GenerateDocumentFile(uint64_t size) {
  std::string path = DataDir() + "/sp2b_" + SizeLabel(size) + ".nt";
  std::string tmp = path + ".tmp";
  Document doc;
  doc.size = size;
  auto t0 = std::chrono::steady_clock::now();
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    NTriplesSink sink(out);
    GeneratorConfig cfg;
    cfg.triple_limit = size;
    doc.stats = Generate(cfg, sink);
    doc.bytes = sink.bytes();
  }
  doc.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  std::filesystem::rename(tmp, path);
  return doc;
}

/// num / den, or 0 for an empty denominator.
double Share(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string Fixed(double v, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void Print(const char* title, const Table& table) {
  std::printf("== %s ==\n%s\n", title, table.ToString().c_str());
}

// ------------------------------------------------------------------
// The generator: Tables I, III, VIII and Figs. 2a-2c.
// ------------------------------------------------------------------

void PrintTableI(const GeneratorStats& stats) {
  const DocClass classes[] = {DocClass::kArticle, DocClass::kInproceedings,
                              DocClass::kProceedings, DocClass::kBook,
                              DocClass::kWww};
  std::vector<std::string> headers{"attribute"};
  for (DocClass c : classes) {
    headers.push_back(std::string(DocClassName(c)) + " paper");
    headers.push_back("measured");
  }
  Table table(headers);
  for (Attribute a : {Attribute::kAuthor, Attribute::kCite, Attribute::kEditor,
                      Attribute::kIsbn, Attribute::kJournal, Attribute::kMonth,
                      Attribute::kPages, Attribute::kTitle}) {
    std::vector<std::string> row{std::string(AttributeName(a))};
    for (DocClass c : classes) {
      row.push_back(Fixed(AttributeProbability(c, a), "%.4f"));
      row.push_back(Fixed(
          Share(stats.attr_counts[static_cast<int>(c)][static_cast<int>(a)],
                stats.class_counts[static_cast<int>(c)]),
          "%.4f"));
    }
    table.AddRow(std::move(row));
  }
  Print("Table I / IX: attribute probabilities, paper vs generated", table);
  std::printf(
      "Cite incidences are structural: a reference is only emitted when a\n"
      "target exists, so they may undershoot the paper in early years.\n\n");
}

/// Takes `stats` by value so the histograms' operator[] reads an absent
/// bucket as 0.
void PrintFig2(GeneratorStats stats) {
  uint64_t citing = 0;
  for (auto [x, n] : stats.outgoing_citation_hist) citing += n;
  Table cites({"x", "measured P", "gaussian d_cite(x)", "bar"});
  for (int x = 1; x <= 45; ++x) {
    double p = Share(stats.outgoing_citation_hist[x], citing);
    cites.AddRow({std::to_string(x), Fixed(p, "%.4f"),
                  Fixed(curves::Gaussian(x, curves::kCiteMu,
                                         curves::kCiteSigma),
                        "%.4f"),
                  std::string(static_cast<size_t>(p * 600), '#')});
  }
  Print("Fig. 2(a): P(#citations = x), measured vs Gaussian", cites);
  std::printf("%s documents with outgoing citations, %s citation edges.\n\n",
              FormatCount(citing).c_str(),
              FormatCount(stats.citation_edges).c_str());

  auto count = [](const YearRow& row, DocClass c) {
    return std::to_string(row.class_counts[static_cast<int>(c)]);
  };
  Table growth({"year", "proc", "f_proc", "journal", "f_journal", "inproc",
                "f_inproc", "article", "f_article"});
  for (const YearRow& row : stats.years) {
    if (row.year < 1960 || row.year % 5 != 0) continue;
    growth.AddRow({std::to_string(row.year),
                   count(row, DocClass::kProceedings),
                   Fixed(curves::ProceedingsInYear(row.year), "%.0f"),
                   count(row, DocClass::kJournal),
                   Fixed(curves::JournalsInYear(row.year), "%.0f"),
                   count(row, DocClass::kInproceedings),
                   Fixed(curves::InproceedingsInYear(row.year), "%.0f"),
                   count(row, DocClass::kArticle),
                   Fixed(curves::ArticlesInYear(row.year), "%.0f")});
  }
  Print("Fig. 2(b): documents per year, measured vs logistic curves", growth);
  const uint64_t* last = stats.years.back().class_counts;
  std::printf("%d: inproc/proc = %.1f (the paper: approaches 50-60x).\n\n",
              stats.years.back().year,
              Share(last[static_cast<int>(DocClass::kInproceedings)],
                    last[static_cast<int>(DocClass::kProceedings)]));

  Table power({"x", "1975", "1985", "1995", "2005"});
  for (int x : {1, 2, 3, 5, 8, 12, 20, 30, 50}) {
    std::vector<std::string> row{std::to_string(x)};
    for (int yr : {1975, 1985, 1995, 2005}) {
      row.push_back(std::to_string(stats.pubs_per_author[yr][x]));
    }
    power.AddRow(std::move(row));
  }
  Print("Fig. 2(c): #authors with publication count x (log-log)", power);
  std::map<int, uint64_t>& h2005 = stats.pubs_per_author[2005];
  std::printf(
      "The curves move upward over the years. 2005 log-log slope between\n"
      "x=1 and x=4: %.2f (model: -%.2f).\n\n",
      std::log(Share(h2005[4], h2005[1])) / std::log(4.0),
      curves::PublicationsPowerLawExponent(2005));
}

void PrintDocuments(const std::vector<Document>& docs) {
  Table gen({"#triples", "elapsed [s]", "file size [MB]", "last year",
             "triples/s"});
  Table chars({"#triples", "size [MB]", "data up to", "#tot.auth",
               "#dist.auth", "#journals", "#articles", "#proc", "#inproc",
               "#incoll", "#books", "#phd", "#masters", "#www"});
  for (const Document& d : docs) {
    const GeneratorStats& s = d.stats;
    auto c = [&s](DocClass k) {
      return FormatCount(s.class_counts[static_cast<int>(k)]);
    };
    std::string mb = FormatMb(static_cast<double>(d.bytes));
    gen.AddRow({SizeLabel(d.size), FormatSeconds(d.seconds), mb,
                std::to_string(s.last_year),
                FormatCount(static_cast<uint64_t>(
                    static_cast<double>(s.triples) /
                    std::max(d.seconds, 1e-9)))});
    chars.AddRow({SizeLabel(d.size), mb, std::to_string(s.last_year),
                  FormatCount(s.total_authors),
                  FormatCount(s.distinct_authors), c(DocClass::kJournal),
                  c(DocClass::kArticle), c(DocClass::kProceedings),
                  c(DocClass::kInproceedings), c(DocClass::kIncollection),
                  c(DocClass::kBook), c(DocClass::kPhdThesis),
                  c(DocClass::kMastersThesis), c(DocClass::kWww)});
  }
  Print("Table III: document generation time", gen);
  std::printf("Paper (2008 hardware): 10^6 -> 5.76s, 10^7 -> 70s.\n\n");
  Print("Table VIII: generated document characteristics", chars);
  std::printf(
      "Paper anchors (10k): 1.0MB, 1955, 1.5k/0.9k authors, 25 journals,\n"
      "916 articles, 6 proc, 169 inproc. (1M): 1989, 151k/82.1k authors,\n"
      "1.4k journals, 56.9k articles, 903 proc, 43.5k inproc, 101 phd.\n\n");
}

// ------------------------------------------------------------------
// The grid: Tables IV-VII, Figs. 5-8, the ablations, qa1-qa4.
// ------------------------------------------------------------------

/// The result count of the first engine in `specs` that succeeded on
/// (size, query); nullopt when none did.
std::optional<uint64_t> Count(const ResultGrid& grid,
                              const std::vector<EngineSpec>& specs,
                              uint64_t size, const std::string& qid) {
  for (const EngineSpec& s : specs) {
    const QueryRun* run = grid.Find(s.name, size, qid);
    if (run->outcome == Outcome::kSuccess) return run->result_count;
  }
  return std::nullopt;
}

/// What a per-query table shows next to each engine's time.
enum class Detail { kNone, kResults, kCpu, kFirstRow };

void PrintPerQuery(const ResultGrid& grid, const std::vector<uint64_t>& sizes,
                   const std::vector<std::string>& engines,
                   const std::vector<std::string>& ids, Detail detail) {
  const char* detail_header[] = {"", "results", "usr+sys [s]", "first row"};
  for (const std::string& qid : ids) {
    std::vector<std::string> headers{"size"};
    for (const std::string& e : engines) {
      headers.push_back(e + " [s]");
      if (detail != Detail::kNone) {
        headers.push_back(detail_header[static_cast<int>(detail)]);
      }
    }
    Table table(headers);
    for (uint64_t size : sizes) {
      std::vector<std::string> row{SizeLabel(size)};
      for (const std::string& e : engines) {
        const QueryRun& run = *grid.Find(e, size, qid);
        bool ok = run.outcome == Outcome::kSuccess;
        row.push_back(ok ? FormatSeconds(run.seconds)
                         : std::string(1, OutcomeChar(run.outcome)));
        if (detail == Detail::kNone) continue;
        if (!ok) {
          row.push_back("-");
        } else if (detail == Detail::kResults) {
          row.push_back(FormatCount(run.result_count));
        } else if (detail == Detail::kCpu) {
          row.push_back(FormatSeconds(run.usr_seconds + run.sys_seconds));
        } else {
          row.push_back(run.first_row.substr(0, 60));
        }
      }
      table.AddRow(std::move(row));
    }
    std::printf("--- %s: %s ---\n%s\n", qid.c_str(),
                GetQuery(qid).description.c_str(), table.ToString().c_str());
  }
}

void PrintMeans(const char* title, const ResultGrid& grid,
                const std::vector<uint64_t>& sizes,
                const std::vector<std::string>& engines, double penalty) {
  std::vector<std::string> headers{"size"};
  for (const std::string& e : engines) {
    headers.push_back(e + " Ta[s]");
    headers.push_back("Tg[s]");
    headers.push_back("Ma[MB]");
  }
  Table table(headers);
  for (uint64_t size : sizes) {
    std::vector<std::string> row{SizeLabel(size)};
    for (const std::string& e : engines) {
      row.push_back(
          FormatSeconds(ArithmeticMeanSeconds(grid, e, size, penalty)));
      row.push_back(
          FormatSeconds(GeometricMeanSeconds(grid, e, size, penalty)));
      row.push_back(FormatMb(MeanMemoryBytes(grid, e, size)));
    }
    table.AddRow(std::move(row));
  }
  Print(title, table);
}

void PrintGridTables(const ResultGrid& grid, const DocumentPool& pool,
                     const std::vector<EngineSpec>& specs,
                     const std::vector<uint64_t>& sizes, double timeout) {
  // DefaultEngineSpecs(): two in-memory engines, then three native.
  std::vector<std::string> engines;
  for (const EngineSpec& s : DefaultEngineSpecs()) engines.push_back(s.name);
  const std::vector<std::string> paper_ids = Ids(AllQueries());

  std::vector<std::string> headers{"size"};
  headers.insert(headers.end(), engines.begin(), engines.end());
  Table success(headers);
  headers = {"size"};
  headers.insert(headers.end(), paper_ids.begin(), paper_ids.end());
  Table counts(headers);
  for (uint64_t size : sizes) {
    std::vector<std::string> row{SizeLabel(size)};
    for (const std::string& e : engines) {
      row.push_back(SuccessString(grid, e, size));
    }
    success.AddRow(std::move(row));
    std::vector<std::string> count_row{SizeLabel(size)};
    for (const std::string& qid : paper_ids) {
      std::optional<uint64_t> n = Count(grid, specs, size, qid);
      count_row.push_back(n ? FormatCount(*n) : "n/a");
    }
    counts.AddRow(std::move(count_row));
  }
  std::printf("(timeout %gs per query; T timeout, M memory, E error)\n\n",
              timeout);
  Print("Table IV: success rates (queries 1 2 3abc 4 5ab 6 7 8 9 10 11 12abc)",
        success);
  std::printf(
      "Paper shape: q4, q5a, q6 and q7 fail first as documents grow, the\n"
      "in-memory engines earlier than the native ones.\n\n");
  Print("Table V: number of query results (n/a: no engine succeeded)",
        counts);
  std::printf(
      "Growth shape: q2/q3a/q5/q6 grow with the document, q4 near\n"
      "quadratically; q7 stays small (incomplete citation system).\n\n");

  const double penalty = 2.0 * timeout;
  std::printf("(failures penalized with %gs = 2x timeout)\n\n", penalty);
  PrintMeans("Table VI: global means, in-memory engines", grid, sizes,
             {engines.begin(), engines.begin() + 2}, penalty);
  PrintMeans("Table VII: global means, native engines", grid, sizes,
             {engines.begin() + 2, engines.end()}, penalty);

  std::printf("== Fig. 5 (top): in-memory engines ==\n");
  PrintPerQuery(grid, sizes, {"mem-naive", "mem-filter"},
                {"q5a", "q5b", "q6", "q7", "q12a"}, Detail::kCpu);

  Table load({"size", "index [s]", "vertical [s]", "mem [s]", "index [MB]"});
  for (uint64_t size : sizes) {
    const LoadFigures& idx = pool.Figures(StoreKind::kIndex, size);
    load.AddRow({SizeLabel(size), FormatSeconds(idx.load_seconds),
                 FormatSeconds(
                     pool.Figures(StoreKind::kVertical, size).load_seconds),
                 FormatSeconds(
                     pool.Figures(StoreKind::kMem, size).load_seconds),
                 FormatMb(static_cast<double>(idx.memory_bytes))});
  }
  Print("Fig. 5 (bottom) and storage ablation: loading (parse + index + "
        "stats)",
        load);
  std::printf("== Fig. 5 (bottom): native engines ==\n");
  const std::vector<std::string> native(engines.begin() + 2, engines.end());
  PrintPerQuery(grid, sizes, native, {"q2", "q3a", "q3c", "q10"},
                Detail::kResults);

  std::printf("== Figs. 6-8: per-query performance, all engines ==\n");
  PrintPerQuery(grid, sizes, engines, paper_ids, Detail::kNone);
  std::printf(
      "Paper shapes: q1/q10/q11/q12* ~constant for native engines, ~linear\n"
      "for in-memory ones (per-query load); q3a >> q3c.\n\n");

  std::printf("== Ablation: optimizer features ==\n");
  PrintPerQuery(grid, sizes,
                {"naive", "native-index", "semantic", "native-planned"},
                {"q3a", "q3c", "q4", "q5a", "q5b", "q6", "q7", "q8", "q2"},
                Detail::kResults);
  std::printf(
      "naive -> indexed (native-index) -> semantic -> planned: q4 needs\n"
      "reordering, q5a and q6 the semantic features; planned wins on the\n"
      "large joins.\n\n");

  std::printf("== Ablation: storage schemes ==\n");
  PrintPerQuery(grid, sizes, {"native-index", "native-vertical", "scan"},
                {"q9", "q10", "q3a", "q1", "q5b", "q11"}, Detail::kNone);
  std::printf(
      "Hexastore, vertical partitions, plain scan: vertical ~ hexastore on\n"
      "bound predicates (q1/q5b/q11), slower on unbound ones (q9/q10).\n\n");

  std::printf("== Extension: aggregate queries ==\n");
  PrintPerQuery(grid, sizes, {"native-index", "semantic"},
                Ids(AggregateQueries()), Detail::kFirstRow);
}

/// Fig. 5's timing shapes, printed for the reader rather than checked:
/// how far q5b runs ahead of q5a on the naive engines, and the growth
/// exponent log(t2/t1) / log(n2/n1) of q4 on native-planned.
void PrintTimingShapes(const ResultGrid& grid,
                       const std::vector<uint64_t>& sizes) {
  auto ok = [](const QueryRun* run) {
    return run != nullptr && run->outcome == Outcome::kSuccess;
  };
  Table table({"size", "mem-naive q5a/q5b", "naive q5a/q5b", "q4 exponent"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::vector<std::string> row{SizeLabel(sizes[i])};
    for (const char* engine : {"mem-naive", "naive"}) {
      const QueryRun* a = grid.Find(engine, sizes[i], "q5a");
      const QueryRun* b = grid.Find(engine, sizes[i], "q5b");
      row.push_back(!ok(b)   ? "-"
                    : !ok(a) ? std::string("q5a ") + OutcomeChar(a->outcome)
                             : Fixed(a->seconds / b->seconds, "%.1fx"));
    }
    const QueryRun* t1 =
        i == 0 ? nullptr : grid.Find("native-planned", sizes[i - 1], "q4");
    const QueryRun* t2 = grid.Find("native-planned", sizes[i], "q4");
    row.push_back(ok(t1) && ok(t2)
                      ? Fixed(std::log(t2->seconds / t1->seconds) /
                                  std::log(Share(sizes[i], sizes[i - 1])),
                              "%.2f")
                      : "-");
    table.AddRow(std::move(row));
  }
  Print("Timing shapes (printed, not checked; '-': a run failed)", table);
}

// ------------------------------------------------------------------
// The claims.
// ------------------------------------------------------------------

/// The number in a single-column row such as `n="877"`.
std::optional<uint64_t> RowNumber(const std::string& row) {
  size_t quote = row.find('"');
  if (quote == std::string::npos) return std::nullopt;
  return std::strtoull(row.c_str() + quote + 1, nullptr, 10);
}

/// Prints each broken claim to stderr; returns how many broke.
int CheckClaims(const ResultGrid& grid, const std::vector<EngineSpec>& specs,
                const std::vector<Document>& docs,
                const std::vector<std::string>& ids) {
  int broken = 0;
  auto fail = [&broken](const std::string& claim) {
    std::fprintf(stderr, "broken claim: %s\n", claim.c_str());
    ++broken;
  };
  // `claim`: the (size, query) count is `want`.
  auto expect = [&](const std::string& claim, uint64_t size,
                    const std::string& qid, std::optional<uint64_t> want) {
    std::optional<uint64_t> got = Count(grid, specs, size, qid);
    if (!got || got != want) {
      fail(claim + " at " + SizeLabel(size) + ": " +
           (got ? "got " + std::to_string(*got) : "no engine succeeded"));
    }
  };
  const std::pair<std::string, uint64_t> fixed_points[] = {
      {"q1", 1},   {"q3c", 0},  {"q9", 4},   {"q11", 10},
      {"q12a", 1}, {"q12b", 1}, {"q12c", 0}};
  std::string q10_claim;  // set at the first size past 1996
  std::optional<uint64_t> q10;

  for (const Document& doc : docs) {
    const std::string at = " at " + SizeLabel(doc.size) + ": ";
    for (const std::string& qid : ids) {
      const QueryRun* reference = nullptr;
      std::string reference_engine;
      for (const EngineSpec& s : specs) {
        const QueryRun& run = *grid.Find(s.name, doc.size, qid);
        if (run.outcome == Outcome::kError) {
          fail("no errors: " + qid + at + s.name + ": " + run.error);
        }
        if (run.outcome != Outcome::kSuccess) continue;
        if (reference == nullptr) {
          reference = &run;
          reference_engine = s.name;
        }
        if (run.result_count != reference->result_count) {
          fail("engine agreement: " + qid + at + s.name + " has " +
               std::to_string(run.result_count) + " results, " +
               reference_engine + " has " +
               std::to_string(reference->result_count));
        }
        if (qid == "qa3" &&
            RowNumber(run.first_row) != doc.stats.distinct_authors) {
          fail("qa3 = Table VIII #dist.auth" + at + s.name + " returns " +
               run.first_row + ", Table VIII has " +
               std::to_string(doc.stats.distinct_authors));
        }
      }
    }
    expect("qa3 = Table VIII #dist.auth (one row)", doc.size, "qa3", 1);
    if (doc.size >= 10000) {
      for (const auto& [qid, want] : fixed_points) {
        expect("Table V fixed point " + qid + " = " + std::to_string(want),
               doc.size, qid, want);
      }
    }
    if (doc.stats.last_year > 1996) {
      if (q10_claim.empty()) {
        q10 = Count(grid, specs, doc.size, "q10");
        q10_claim = "q10 constant after 1996 (" + SizeLabel(doc.size) +
                    " has " + (q10 ? std::to_string(*q10) : "n/a") + ")";
      }
      expect(q10_claim, doc.size, "q10", q10);
    }
  }
  return broken;
}

}  // namespace

int main() {
  const std::vector<uint64_t> sizes = SizesFromEnv();
  RunOptions opts;
  opts.timeout_seconds = TimeoutFromEnv(kDefaultTimeoutSeconds);

  NullSink null_sink;
  GeneratorConfig to_2005;
  to_2005.max_year = 2005;  // the paper plots 1960..2005
  GeneratorStats simulated = Generate(to_2005, null_sink);
  std::printf("Generator, simulated to %d: %s triples\n\n",
              simulated.last_year, FormatCount(simulated.triples).c_str());
  PrintTableI(simulated);
  PrintFig2(simulated);

  std::vector<Document> docs;
  for (uint64_t size : sizes) docs.push_back(GenerateDocumentFile(size));
  PrintDocuments(docs);

  DocumentPool pool;
  const std::vector<EngineSpec> specs = GridSpecs();
  std::vector<std::string> ids = Ids(AllQueries());
  for (const std::string& qa : Ids(AggregateQueries())) ids.push_back(qa);
  ResultGrid grid = RunGrid(pool, specs, sizes, ids, opts);
  PrintGridTables(grid, pool, specs, sizes, opts.timeout_seconds);
  PrintTimingShapes(grid, sizes);

  int broken = CheckClaims(grid, specs, docs, ids);
  if (broken > 0) {
    std::printf("%d claim(s) broken; see stderr\n", broken);
    return 1;
  }
  std::printf("All claims hold: Table V fixed points, q10 after 1996, engine "
              "agreement, no errors, qa3 = #dist.auth.\n");
  return 0;
}
