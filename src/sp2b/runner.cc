#include "sp2b/runner.h"

#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>

#include "sp2b/gen/generator.h"
#include "sp2b/report.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/ntriples.h"

namespace sp2b {

namespace {

/// Interns generator output directly into a dictionary + store.
class StoreSink : public gen::TripleSink {
 public:
  StoreSink(rdf::Dictionary& dict, rdf::Store& store)
      : dict_(dict), store_(store) {}

  void Emit(const gen::Node& s, std::string_view p,
            const gen::Node& o) override {
    store_.Add({Intern(s), dict_.InternIri(p), Intern(o)});
  }

 private:
  rdf::TermId Intern(const gen::Node& n) {
    switch (n.kind) {
      case gen::Node::kIri:
        return dict_.InternIri(n.value);
      case gen::Node::kBlank:
        return dict_.InternBlank(n.value);
      case gen::Node::kPlainLiteral:
        return dict_.InternLiteral(n.value, {});
      case gen::Node::kTypedLiteral:
        return dict_.InternLiteral(n.value, n.datatype);
    }
    return rdf::kNoTerm;
  }

  rdf::Dictionary& dict_;
  rdf::Store& store_;
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void FinishDocument(LoadedDocument& doc, bool with_stats,
                    std::chrono::steady_clock::time_point t0) {
  doc.store->Finalize();
  if (with_stats) {
    doc.stats = std::make_unique<rdf::Stats>(
        rdf::Stats::Build(*doc.store, *doc.dict));
  }
  doc.triples = doc.store->size();
  doc.memory_bytes = doc.store->MemoryBytes() + doc.dict->MemoryBytes();
  doc.load_seconds = Seconds(t0);
}

struct Rusage {
  double usr = 0.0, sys = 0.0;
  static Rusage Now() {
    struct rusage u{};
    getrusage(RUSAGE_SELF, &u);
    Rusage r;
    r.usr = static_cast<double>(u.ru_utime.tv_sec) +
            static_cast<double>(u.ru_utime.tv_usec) * 1e-6;
    r.sys = static_cast<double>(u.ru_stime.tv_sec) +
            static_cast<double>(u.ru_stime.tv_usec) * 1e-6;
    return r;
  }
};

}  // namespace

LoadedDocument LoadDocument(const std::string& path, StoreKind kind,
                            bool with_stats) {
  auto t0 = std::chrono::steady_clock::now();
  LoadedDocument doc;
  doc.dict = std::make_unique<rdf::Dictionary>();
  doc.store = rdf::MakeStore(kind);
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open document: " + path);
  }
  rdf::ParseNTriples(in, *doc.dict, *doc.store);
  FinishDocument(doc, with_stats, t0);
  return doc;
}

LoadedDocument GenerateDocument(uint64_t triples, StoreKind kind,
                                bool with_stats) {
  auto t0 = std::chrono::steady_clock::now();
  LoadedDocument doc;
  doc.dict = std::make_unique<rdf::Dictionary>();
  doc.store = rdf::MakeStore(kind);
  StoreSink sink(*doc.dict, *doc.store);
  gen::GeneratorConfig cfg;
  cfg.triple_limit = triples;
  gen::Generate(cfg, sink);
  FinishDocument(doc, with_stats, t0);
  return doc;
}

std::vector<EngineSpec> DefaultEngineSpecs() {
  std::vector<EngineSpec> specs;
  specs.push_back({"mem-naive", StoreKind::kMem,
                   sparql::EngineConfig::Naive(), /*in_memory=*/true});
  specs.push_back({"mem-filter", StoreKind::kMem,
                   sparql::EngineConfig::Indexed(), /*in_memory=*/true});
  specs.push_back({"native-index", StoreKind::kIndex,
                   sparql::EngineConfig::Indexed(), /*in_memory=*/false});
  specs.push_back({"native-vertical", StoreKind::kVertical,
                   sparql::EngineConfig::Indexed(), /*in_memory=*/false});
  specs.push_back({"native-planned", StoreKind::kIndex,
                   sparql::EngineConfig::Planned(), /*in_memory=*/false});
  return specs;
}

EngineSpec SemanticEngineSpec() {
  return {"semantic", StoreKind::kIndex, sparql::EngineConfig::Semantic(),
          /*in_memory=*/false};
}

EngineSpec PlannedHashEngineSpec() {
  return {"planned-hash", StoreKind::kIndex,
          sparql::EngineConfig::PlannedHash(), /*in_memory=*/false};
}

std::vector<EngineSpec> OptimizerLevelSpecs() {
  std::vector<EngineSpec> specs;
  for (const char* name : {"naive", "indexed", "semantic", "planned"}) {
    EngineSpec s;
    s.name = name;
    s.store_kind = StoreKind::kIndex;
    s.config = sparql::EngineConfig::ByName(name);
    s.in_memory = false;
    specs.push_back(std::move(s));
  }
  return specs;
}

double TimeoutFromEnv(double default_seconds) {
  if (const char* v = std::getenv("SP2B_TIMEOUT")) {
    if (std::optional<double> parsed = ParsePositiveSeconds(v)) {
      return *parsed;
    }
    std::fprintf(stderr,
                 "warning: SP2B_TIMEOUT='%s' is not a positive number; "
                 "using default %gs\n",
                 v, default_seconds);
  }
  return default_seconds;
}

std::vector<uint64_t> SizesFromEnv() {
  std::vector<uint64_t> sizes;
  if (const char* v = std::getenv("SP2B_SIZES")) {
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (std::optional<uint64_t> n = ParsePositiveCount(item)) {
        sizes.push_back(*n);
      } else {
        std::fprintf(stderr,
                     "warning: ignoring malformed SP2B_SIZES item '%s'\n",
                     item.c_str());
      }
    }
  }
  if (sizes.empty()) sizes = {1000, 10000, 50000};
  return sizes;
}

std::string DataDir() {
  std::string dir =
      std::getenv("SP2B_DATA_DIR") ? std::getenv("SP2B_DATA_DIR")
                                   : std::string("sp2b_data");
  std::filesystem::create_directories(dir);
  return dir;
}

std::string EnsureDocumentFile(uint64_t size, const std::string& dir) {
  std::string path = dir + "/sp2b_" + SizeLabel(size) + ".nt";
  if (std::filesystem::exists(path)) return path;
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("cannot write " + tmp);
    gen::NTriplesSink sink(out);
    gen::GeneratorConfig cfg;
    cfg.triple_limit = size;
    gen::Generate(cfg, sink);
  }
  std::filesystem::rename(tmp, path);
  return path;
}

namespace {

QueryRun RunOnDocument(const EngineSpec& spec, const LoadedDocument& doc,
                       const BenchmarkQuery& query,
                       sparql::QueryLimits limits,
                       std::chrono::steady_clock::time_point t0,
                       const Rusage& u0, uint64_t base_memory) {
  QueryRun run;
  try {
    sparql::AstQuery ast = sparql::Parse(query.text, DefaultPrefixes());
    sparql::Engine engine(*doc.store, *doc.dict, spec.config,
                          doc.stats.get());
    sparql::QueryResult result = engine.Execute(ast, limits);
    run.outcome = Outcome::kSuccess;
    run.result_count = result.row_count();
    if (result.rows.size() > 0) {
      run.first_row = result.RowToString(0, *doc.dict);
    }
    run.memory_bytes = base_memory + result.rows.MemoryBytes();
  } catch (const sparql::QueryTimeout&) {
    run.outcome = Outcome::kTimeout;
  } catch (const sparql::QueryMemoryExhausted&) {
    run.outcome = Outcome::kMemory;
  } catch (const std::bad_alloc&) {
    run.outcome = Outcome::kMemory;
  } catch (const std::exception& e) {
    run.outcome = Outcome::kError;
    run.error = e.what();
  }
  run.seconds = Seconds(t0);
  Rusage u1 = Rusage::Now();
  run.usr_seconds = u1.usr - u0.usr;
  run.sys_seconds = u1.sys - u0.sys;
  return run;
}

}  // namespace

QueryRun RunQuery(const EngineSpec& spec, const std::string& path,
                  const LoadedDocument* loaded, const BenchmarkQuery& query,
                  const RunOptions& opts) {
  auto limits = sparql::QueryLimits::WithTimeout(std::chrono::milliseconds(
      static_cast<int64_t>(opts.timeout_seconds * 1000)));
  limits.max_rows = opts.max_result_rows;
  auto t0 = std::chrono::steady_clock::now();
  Rusage u0 = Rusage::Now();

  if (!spec.in_memory && loaded != nullptr) {
    return RunOnDocument(spec, *loaded, query, limits, t0, u0,
                         /*base_memory=*/0);
  }

  // In-memory execution model: the measured time includes re-loading
  // the document for this query.
  QueryRun run;
  LoadedDocument doc;
  try {
    doc = LoadDocument(path, spec.store_kind, /*with_stats=*/false);
  } catch (const std::bad_alloc&) {
    run.outcome = Outcome::kMemory;
    run.seconds = Seconds(t0);
    return run;
  } catch (const std::exception& e) {
    run.outcome = Outcome::kError;
    run.error = e.what();
    run.seconds = Seconds(t0);
    return run;
  }
  if (limits.has_deadline &&
      std::chrono::steady_clock::now() > limits.deadline) {
    run.outcome = Outcome::kTimeout;
    run.seconds = Seconds(t0);
    return run;
  }
  return RunOnDocument(spec, doc, query, limits, t0, u0,
                       /*base_memory=*/doc.memory_bytes);
}

QueryRun RunOnLoaded(const EngineSpec& spec, const LoadedDocument& doc,
                     const BenchmarkQuery& query, const RunOptions& opts) {
  auto limits = sparql::QueryLimits::WithTimeout(std::chrono::milliseconds(
      static_cast<int64_t>(opts.timeout_seconds * 1000)));
  limits.max_rows = opts.max_result_rows;
  return RunOnDocument(spec, doc, query, limits,
                       std::chrono::steady_clock::now(), Rusage::Now(),
                       /*base_memory=*/0);
}

}  // namespace sp2b
