// sp2b-catalog: the paper's own experiment. The 17 Q1-Q12 variants
// plus qp1-qp4 run one after another, in-process, with the planned
// engine on an IndexStore over the bulk document. One client,
// closed loop: a pass runs every query once in a seed-shuffled order;
// the first pass warms up, the timed passes fill --seconds, and a
// final timed pass doubles as the correctness gate (row count and
// ResultGridChecksum per query against the pinned golden file). Query
// times are thread CPU time; the set-ups and bulk commits after the
// first are interleaved with the timed passes.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "bench_math.h"
#include "sp2b/queries.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"

namespace sp2b::bench {

namespace {

/// Per-query budget; a query past it fails and the means charge the
/// paper's penalty of twice the timeout.
constexpr double kTimeoutSeconds = 30.0;
/// Queries faster than this are re-run back to back until the batch
/// takes at least this long; the sample is the batch mean, so timer
/// resolution cannot set the geometric mean.
constexpr double kRepeatBelowMs = 50.0;
constexpr int kMaxRepeats = 2000;

struct Golden {
  uint64_t rows = 0;
  uint64_t checksum = 0;
};

std::string GoldenPath(const Options& opt, uint64_t triples) {
  return opt.golden_dir + "/catalog-" + std::to_string(triples) + "-" +
         std::to_string(kGeneratorSeed) + ".tsv";
}

std::map<std::string, Golden> ReadGolden(const std::string& path) {
  std::map<std::string, Golden> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id, checksum;
    Golden g;
    if (fields >> id >> g.rows >> checksum) {
      g.checksum = std::stoull(checksum, nullptr, 16);
      out[id] = g;
    }
  }
  return out;
}

struct Query {
  std::string id;
  sparql::AstQuery ast;
};

struct Sample {
  bool ok = false;
  double ms = 0.0;
  uint64_t probes = 0;
  std::string error;
};

/// One timed execution (a batch of back-to-back executions for
/// sub-kRepeatBelowMs queries). The last result is left in `*result`
/// for the caller's gate; `explain`, when non-null, switches to
/// ExecuteExplained and receives the plan.
Sample TimeQuery(const Document& doc, const Query& q,
                 sparql::QueryResult* result, std::string* explain) {
  sparql::Engine engine(*doc.store, *doc.dict, sparql::EngineConfig::Planned(),
                        doc.stats.get());
  auto run = [&] {
    auto limits = sparql::QueryLimits::WithTimeout(std::chrono::milliseconds(
        static_cast<int64_t>(kTimeoutSeconds * 1000)));
    if (explain != nullptr) {
      explain->clear();
      *result = engine.ExecuteExplained(q.ast, limits, explain);
    } else {
      *result = engine.Execute(q.ast, limits);
    }
  };
  Sample s;
  try {
    double t0 = ThreadCpuMs();
    run();
    double ms = ThreadCpuMs() - t0;
    int reps = 1;
    if (ms < kRepeatBelowMs) {
      t0 = ThreadCpuMs();
      reps = 0;
      do {
        run();
        ++reps;
      } while (ThreadCpuMs() - t0 < kRepeatBelowMs && reps < kMaxRepeats);
      ms = (ThreadCpuMs() - t0) / reps;
    }
    s.ok = true;
    s.ms = ms;
    s.probes = result->stats.probes;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  return s;
}

/// Per-query samples of a set of passes.
using Samples = std::map<std::string, std::vector<Sample>>;

struct PassStats {
  uint64_t attempted = 0, failed = 0;
};

/// Runs one pass over `queries` in a seed-shuffled order. `gate`
/// non-null checks every result against it; `log` non-null records a
/// span per query and plans into `plans`.
PassStats RunPass(const Document& doc, std::vector<const Query*> order,
                  std::mt19937_64& rng, Samples* samples,
                  const std::map<std::string, Golden>* gate,
                  RunResult* result, SpanLog* log,
                  std::map<std::string, std::string>* plans) {
  std::shuffle(order.begin(), order.end(), rng);
  PassStats ps;
  for (const Query* q : order) {
    sparql::QueryResult r;
    std::string explain;
    Sample s;
    {
      ScopedSpan span(log, "engine.execute", ++ps.attempted);
      s = TimeQuery(doc, *q, &r, log != nullptr ? &explain : nullptr);
    }
    if (!s.ok) {
      ++ps.failed;
      std::fprintf(stderr, "%s failed: %s\n", q->id.c_str(), s.error.c_str());
    } else if (gate != nullptr) {
      auto it = gate->find(q->id);
      uint64_t rows = r.row_count();
      uint64_t checksum = ResultGridChecksum(r, *doc.dict);
      if (it == gate->end() || it->second.rows != rows ||
          it->second.checksum != checksum) {
        ++ps.failed;
        s.ok = false;
        result->Fail(q->id + ": " + std::to_string(rows) +
                     " rows, checksum " + std::to_string(checksum) +
                     " differ from the pinned golden");
      }
    }
    // A failed query is charged the paper's penalty in every statistic.
    if (!s.ok) s.ms = 2 * kTimeoutSeconds * 1000.0;
    if (plans != nullptr && s.ok) (*plans)[q->id] = explain;
    if (samples != nullptr) (*samples)[q->id].push_back(s);
  }
  return ps;
}

/// Time per query: the trimmed mean of its samples (failed if any
/// sample failed).
std::vector<QueryTime> QueryTimes(const Samples& samples) {
  std::vector<QueryTime> out;
  for (const auto& [id, list] : samples) {
    QueryTime t{id, true, 0.0};
    std::vector<double> ms;
    for (const Sample& s : list) {
      if (!s.ok) t.ok = false;
      ms.push_back(s.ms);
    }
    t.seconds = t.ok ? TrimmedMean(ms) / 1000.0 : 2 * kTimeoutSeconds;
    out.push_back(t);
  }
  return out;
}

/// The catalog's end-to-end query metrics from a set of passes.
void ReportQueries(const Samples& samples, RunResult* result) {
  std::vector<QueryTime> times = QueryTimes(samples);
  std::vector<QueryTime> paths;
  for (const QueryTime& t : times) {
    if (t.id.rfind("qp", 0) == 0) paths.push_back(t);
  }
  Means paper = PaperMeans(times, 2 * kTimeoutSeconds);
  Means path = PenalizedMeans(paths, 2 * kTimeoutSeconds);
  result->Set("query_amean_ms", paper.amean_seconds * 1000.0);
  result->Set("query_gmean_ms", paper.gmean_seconds * 1000.0);
  result->Set("path_amean_ms", path.amean_seconds * 1000.0);

  // Latency percentiles over the per-query times: one sample of one
  // query does not set them, and every query weighs the same.
  std::vector<double> times_ms;
  double sum_s = 0.0;
  for (const QueryTime& t : times) {
    times_ms.push_back(t.seconds * 1000.0);
    sum_s += t.seconds;
  }
  Percentile p50 = PercentileOf(times_ms, 0.50);
  Percentile p99 = PercentileOf(times_ms, 0.99);
  result->Set("latency_p50_ms", p50.value);
  result->Set("latency_p99_ms", p99.value);
  // One closed-loop client over the whole catalog: queries per second
  // of catalog time.
  result->Set("max_rate_qps", static_cast<double>(times.size()) / sum_s);
  std::printf("catalog: %zu queries, per-query trimmed mean over %zu "
              "passes; over the queries p50 %.3f ms, p99 %.3f ms (n=%llu, "
              "%llu beyond p99)\n",
              times.size(), samples.begin()->second.size(), p50.value,
              p99.value, static_cast<unsigned long long>(p99.samples),
              static_cast<unsigned long long>(p99.beyond));
  for (const QueryTime& t : times) {
    std::printf("  %-5s %s %12.3f ms\n", t.id.c_str(), t.ok ? "+" : "F",
                t.seconds * 1000.0);
  }
}

std::vector<Query> ParseCatalog() {
  std::vector<Query> queries;
  for (const std::string& id : CatalogQueryIds()) {
    queries.push_back(
        {id, sparql::Parse(GetQuery(id).text, DefaultPrefixes())});
  }
  return queries;
}

}  // namespace

int PinCatalog(const Options& opt) {
  SetupTimes times;
  Document doc = BuildDocument(kDocumentTriples, &times);
  std::string path = GoldenPath(opt, kDocumentTriples);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# id rows checksum: sp2b-catalog results on the "
      << kDocumentTriples << "-triple seed-" << kGeneratorSeed
      << " document,\n# pinned only where planned and planned-hash agree.\n";
  for (const Query& q : ParseCatalog()) {
    uint64_t rows[2], sums[2];
    int i = 0;
    const sparql::EngineConfig configs[] = {
        sparql::EngineConfig::Planned(), sparql::EngineConfig::PlannedHash()};
    for (const sparql::EngineConfig& cfg : configs) {
      sparql::Engine engine(*doc.store, *doc.dict, cfg, doc.stats.get());
      sparql::QueryResult r = engine.Execute(q.ast);
      rows[i] = r.row_count();
      sums[i] = ResultGridChecksum(r, *doc.dict);
      ++i;
    }
    if (rows[0] != rows[1] || sums[0] != sums[1]) {
      std::fprintf(stderr, "%s: planned and planned-hash disagree\n",
                   q.id.c_str());
      return 1;
    }
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(sums[0]));
    out << q.id << '\t' << rows[0] << '\t' << hex << '\n';
    std::printf("%-5s %llu rows %s\n", q.id.c_str(),
                static_cast<unsigned long long>(rows[0]), hex);
  }
  return out.good() ? 0 : 1;
}

RunResult RunCatalog(const Options& opt) {
  RunResult result;
  std::map<std::string, Golden> golden =
      ReadGolden(GoldenPath(opt, kDocumentTriples));
  if (golden.size() != CatalogQueryIds().size()) {
    throw std::runtime_error("missing or incomplete golden file " +
                             GoldenPath(opt, kDocumentTriples));
  }

  std::vector<SetupTimes> setups(1);
  Document doc = BuildDocument(kDocumentTriples, &setups[0]);
  result.Set("store_bytes_per_triple", doc.BytesPerTriple());

  std::vector<Query> queries = ParseCatalog();
  std::vector<const Query*> order;
  for (const Query& q : queries) order.push_back(&q);
  std::mt19937_64 rng(opt.seed);

  RunPass(doc, order, rng, nullptr, nullptr, &result, nullptr, nullptr);
  Samples samples;
  PassStats total;
  std::vector<double> recommits;
  // The set-ups and re-commits due once `fraction` of the phase passed.
  auto side_work = [&](double fraction) {
    while (setups.size() < DueBy(fraction, kSetups)) {
      setups.emplace_back();
      BuildDocument(kDocumentTriples, &setups.back());
    }
    while (recommits.size() < DueBy(fraction, kRecommits)) {
      recommits.push_back(Recommit(doc, recommits.size()));
    }
  };
  auto t0 = Clock::now();
  while (MsSince(t0) < opt.seconds * 1000.0) {
    PassStats ps = RunPass(doc, order, rng, &samples, nullptr, &result,
                           nullptr, nullptr);
    total.attempted += ps.attempted;
    total.failed += ps.failed;
    side_work(MsSince(t0) / (opt.seconds * 1000.0));
  }
  side_work(1.0);
  ReportBulkSetup(setups, recommits, doc.store->size(), &result);
  // Peak memory of set-up and measurement, read before the gate
  // renders result grids to strings.
  result.Set("peak_rss_mb", PeakRssMb());
  PassStats gate =
      RunPass(doc, order, rng, &samples, &golden, &result, nullptr, nullptr);
  total.attempted += gate.attempted;
  total.failed += gate.failed;
  result.attempted = total.attempted;
  result.failed = total.failed;
  ReportQueries(samples, &result);

  if (opt.trace) {
    // The traced phase repeats the measurement with a span per query
    // and EXPLAIN plans, then probes the store layer.
    double untraced_amean = result.Get("query_amean_ms");
    SpanLog log;
    Samples traced;
    std::map<std::string, std::string> plans;
    t0 = Clock::now();
    do {
      PassStats ps =
          RunPass(doc, order, rng, &traced, nullptr, &result, &log, &plans);
      result.attempted += ps.attempted;
      result.failed += ps.failed;
    } while (MsSince(t0) < opt.seconds * 1000.0);
    RunResult traced_result;
    ReportQueries(traced, &traced_result);
    result.Set("trace.overhead_pct",
               100.0 * (traced_result.Get("query_amean_ms") - untraced_amean) /
                   untraced_amean);
    for (const QueryTime& t : QueryTimes(traced)) {
      result.Set("engine." + t.id + ".ms", t.seconds * 1000.0);
      std::vector<double> probes;
      for (const Sample& s : traced[t.id]) {
        probes.push_back(static_cast<double>(s.probes));
      }
      result.Set("engine." + t.id + ".probes", Median(probes));
      result.Set("plan." + t.id + ".qerror", WorstQError(plans[t.id]));
    }
    ProbeStore(*doc.store, *doc.dict, opt.seed, &result);
    if (!opt.trace_out.empty()) log.Write(opt.trace_out, t0);
  }
  return result;
}

}  // namespace sp2b::bench
