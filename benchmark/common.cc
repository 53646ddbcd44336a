#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <stdexcept>

#include "bench_math.h"
#include "sp2b/gen/generator.h"
#include "sp2b/queries.h"
#include "sp2b/report.h"

namespace sp2b::bench {

namespace {

std::vector<MetricDecl> BuildPerLayer() {
  std::vector<MetricDecl> m = {
      {"gen.generate_s", "s"},
      {"store.finalize_s", "s"},
      {"store.stats_build_s", "s"},
      {"store.scan_mtps", "Mtriples/s"},
      {"store.dict_lookup_ns", "ns"},
  };
  for (const std::string& id : CatalogQueryIds()) {
    m.push_back({"engine." + id + ".ms", "ms"});
  }
  for (const std::string& id : CatalogQueryIds()) {
    m.push_back({"engine." + id + ".probes", "count"});
  }
  for (const std::string& id : CatalogQueryIds()) {
    m.push_back({"plan." + id + ".qerror", "ratio"});
  }
  std::vector<MetricDecl> rest = {
      {"sparql.parse_us", "us"},
      {"query_cache.canonicalize_us", "us"},
      {"query_cache.pattern_counts_us", "us"},
      {"engine.prepared_us", "us"},
      {"protocol.serialize_us", "us"},
      {"protocol.response_bytes", "B"},
      {"query_cache.result_hit_ratio", "ratio"},
      {"query_cache.plan_hit_ratio", "ratio"},
      {"query_cache.replan_ratio", "ratio"},
      {"query_cache.result_evictions", "count"},
      {"server.overloads", "count"},
      {"client.lateness_p99_ms", "ms"},
      {"client.wall_p50_ms", "ms"},
      {"client.wall_p99_ms", "ms"},
      {"live.stats_build_ms", "ms"},
      {"live.delta_runs_max", "count"},
      {"live.compactions", "count"},
      {"live.pinned_high_water", "count"},
      {"live.q1.p99_ms", "ms"},
      {"live.q3a.p99_ms", "ms"},
      {"live.q9.p99_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"error_rate", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Interns generator output straight into a dictionary + store.
class StoreSink : public gen::TripleSink {
 public:
  StoreSink(rdf::Dictionary& dict, rdf::Store& store,
            std::vector<rdf::Triple>& generated)
      : dict_(dict), store_(store), generated_(generated) {}

  void Emit(const gen::Node& s, std::string_view p,
            const gen::Node& o) override {
    rdf::Triple t{Intern(s), dict_.InternIri(p), Intern(o)};
    store_.Add(t);
    generated_.push_back(t);
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
  std::vector<rdf::Triple>& generated_;
};

double CpuSecondsSince(double t0_ms) { return (ThreadCpuMs() - t0_ms) / 1e3; }

}  // namespace

const std::vector<MetricDecl>& EndToEndMetrics() {
  static const std::vector<MetricDecl> metrics = {
      {"setup_s", "s"},
      {"query_amean_ms", "ms"},
      {"query_gmean_ms", "ms"},
      {"path_amean_ms", "ms"},
      {"store_bytes_per_triple", "B"},
      {"peak_rss_mb", "MB"},
      {"latency_p50_ms", "ms"},
      {"max_rate_qps", "1/s"},
      {"ingest_triples_per_s", "1/s"},
      {"update_p50_ms", "ms"},
      {"update_p90_ms", "ms"},
  };
  return metrics;
}

const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> metrics = BuildPerLayer();
  return metrics;
}

std::vector<std::string> CatalogQueryIds() {
  std::vector<std::string> ids;
  for (const BenchmarkQuery& q : AllQueries()) ids.push_back(q.id);
  for (const BenchmarkQuery& q : PathQueries()) ids.push_back(q.id);
  return ids;
}

void RunResult::Set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

double RunResult::Get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  return 0.0;
}

void RunResult::Fail(const std::string& reason) {
  correct = false;
  std::fprintf(stderr, "correctness: %s\n", reason.c_str());
}

std::string ResultJson(const RunResult& result, bool trace) {
  const std::vector<MetricDecl>& decls =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDecl& d : decls) {
    auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                           [&](const auto& m) { return m.first == d.name; });
    if (it == result.metrics.end()) {
      throw std::logic_error("metric not measured: " + d.name);
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + d.name + "\": {\"value\": " + JsonDouble(it->second, 9) +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.ms());
  }
  return out;
}

bool SpanLog::Write(const std::string& path, Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  auto us = [&](Clock::time_point t) {
    return JsonDouble(
        std::chrono::duration<double, std::micro>(t - origin).count(), 1);
  };
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"start_us\": " << us(s.start)
        << ", \"end_us\": " << us(s.end) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return out.good();
}

double Document::BytesPerTriple() const {
  uint64_t n = store->size();
  if (n == 0) return 0.0;
  return static_cast<double>(store->MemoryBytes() + dict->MemoryBytes()) /
         static_cast<double>(n);
}

Document BuildDocument(uint64_t triples, SetupTimes* times) {
  Document doc;
  doc.dict = std::make_unique<rdf::Dictionary>();
  doc.store = std::make_unique<rdf::IndexStore>();
  doc.generated.reserve(triples);
  double t0 = ThreadCpuMs();
  {
    StoreSink sink(*doc.dict, *doc.store, doc.generated);
    gen::GeneratorConfig cfg;
    cfg.triple_limit = triples;
    cfg.seed = kGeneratorSeed;
    gen::Generate(cfg, sink);
  }
  times->generate = CpuSecondsSince(t0);
  t0 = ThreadCpuMs();
  doc.store->Finalize();
  times->finalize = CpuSecondsSince(t0);
  t0 = ThreadCpuMs();
  doc.stats = std::make_unique<rdf::Stats>(
      rdf::Stats::Build(*doc.store, *doc.dict));
  times->stats_build = CpuSecondsSince(t0);
  return doc;
}

SetupTimes MedianSetup(const std::vector<SetupTimes>& samples) {
  std::vector<double> g, f, s;
  for (const SetupTimes& t : samples) {
    g.push_back(t.generate);
    f.push_back(t.finalize);
    s.push_back(t.stats_build);
  }
  return {Median(g), Median(f), Median(s)};
}

double RecommitShare(size_t k) {
  static_assert(kRecommits % 37 != 0, "37 must be coprime to kRecommits");
  return static_cast<double>((37 * k) % kRecommits + 1) / kRecommits;
}

double Recommit(const Document& doc, size_t k) {
  const size_t n = static_cast<size_t>(
      RecommitShare(k) * static_cast<double>(doc.generated.size()));
  rdf::IndexStore store;
  for (size_t i = 0; i < n; ++i) store.Add(doc.generated[i]);
  double t0 = ThreadCpuMs();
  store.Finalize();
  rdf::Stats stats = rdf::Stats::Build(store, *doc.dict);
  double ms = ThreadCpuMs() - t0;
  (void)stats;
  return ms;
}

void ReportBulkSetup(const std::vector<SetupTimes>& samples,
                     const std::vector<double>& recommit_ms, uint64_t triples,
                     RunResult* result) {
  std::vector<double> totals;
  for (const SetupTimes& t : samples) totals.push_back(t.total());
  double setup = Median(totals);
  result->Set("setup_s", setup);
  result->Set("ingest_triples_per_s",
              static_cast<double>(triples) / TrimmedMean(totals));
  Percentile p50 = PercentileOf(recommit_ms, 0.50);
  Percentile p90 = PercentileOf(recommit_ms, 0.90);
  result->Set("update_p50_ms", p50.value);
  result->Set("update_p90_ms", p90.value);
  std::printf("setup: %d set-ups, median %.3f s; bulk commit p50 %.1f ms / "
              "p90 %.1f ms (n=%llu, %llu beyond p90)\n",
              static_cast<int>(samples.size()), setup, p50.value, p90.value,
              static_cast<unsigned long long>(p90.samples),
              static_cast<unsigned long long>(p90.beyond));
  SetupTimes med = MedianSetup(samples);
  result->Set("gen.generate_s", med.generate);
  result->Set("store.finalize_s", med.finalize);
  result->Set("store.stats_build_s", med.stats_build);
}

double PeakRssMb() {
  struct rusage u {};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KB on Linux
}

void ProbeStore(const rdf::Store& store, const rdf::Dictionary& dict,
                uint64_t seed, RunResult* result) {
  // Full scans through each leading component (every permutation).
  uint64_t scanned = 0;
  rdf::ScanCursor cursor;
  double t0 = ThreadCpuMs();
  while (ThreadCpuMs() - t0 < 300.0) {
    for (int lead = 0; lead < 3; ++lead) {
      store.Scan({}, &cursor, lead);
      for (rdf::TripleBlock b = cursor.Next(); !b.empty(); b = cursor.Next()) {
        for (const rdf::Triple& t : b) scanned += t.o != rdf::kNoTerm;
      }
    }
  }
  double secs = (ThreadCpuMs() - t0) / 1000.0;
  result->Set("store.scan_mtps", static_cast<double>(scanned) / secs / 1e6);

  // Dictionary round trips over ids drawn from the store's terms.
  std::mt19937_64 rng(seed);
  std::vector<rdf::TermId> ids;
  store.Match({}, [&](const rdf::Triple& t) {
    if (rng() % 16 == 0) ids.push_back(t.o);
    return ids.size() < 100'000;
  });
  uint64_t found = 0, lookups = 0;
  t0 = ThreadCpuMs();
  while (ThreadCpuMs() - t0 < 200.0) {
    for (rdf::TermId id : ids) {
      const rdf::Term& term = dict.Lookup(id);
      rdf::TermId back = rdf::kNoTerm;
      switch (term.type) {
        case rdf::TermType::kIri:
          back = dict.FindIri(term.lexical);
          break;
        case rdf::TermType::kBlank:
          back = dict.FindBlank(term.lexical);
          break;
        case rdf::TermType::kLiteral:
          back = dict.FindLiteral(term.lexical, term.datatype);
          break;
      }
      found += back == id;
    }
    lookups += ids.size();
  }
  double ns = (ThreadCpuMs() - t0) * 1e6 /
              static_cast<double>(std::max<uint64_t>(1, lookups));
  if (found != lookups) {
    result->Fail("dictionary round trip lost " +
                 std::to_string(lookups - found) + " ids");
  }
  result->Set("store.dict_lookup_ns", ns);
}

void ZeroMissing(RunResult* result, bool trace) {
  if (!trace) return;
  for (const MetricDecl& d : PerLayerMetrics()) {
    bool have = std::any_of(result->metrics.begin(), result->metrics.end(),
                            [&](const auto& m) { return m.first == d.name; });
    if (!have) result->Set(d.name, 0.0);
  }
}

}  // namespace sp2b::bench
