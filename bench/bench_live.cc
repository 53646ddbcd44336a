// bench_live: live-ingest benchmark — sustained inserts/s from the
// generator's year-batch stream against a concurrent query mix, with
// query p50/p99 under ingest load and a per-epoch correctness audit:
// every pinned epoch must be sorted-grid-identical to a store built
// from scratch at the same year cut (the generator's sequential
// simulation makes each year batch a byte-exact prefix extension).
//
// Usage:
//   bench_live [--triples N] [--interval-ms M] [--queries q1,q3a,...]
//              [--no-verify] [--json BENCH_live.json]
//
// Exit codes: 0 success, 1 I/O or runtime error, 2 usage,
//             5 epoch/equivalence mismatch, or no epoch verified
//             although verification is on.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sp2b/gen/year_batches.h"
#include "sp2b/metrics.h"
#include "sp2b/queries.h"
#include "sp2b/report.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/dictionary.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "sp2b/strict_parse.h"

using namespace sp2b;

namespace {

constexpr int kExitUsage = 2;
constexpr int kExitMismatch = 5;

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_live [--triples N] [--interval-ms M]\n"
      "                  [--queries q1,q3a,...] [--no-verify]\n"
      "                  [--json <path>]\n"
      "  --triples N      generator triple budget (default 20000)\n"
      "  --interval-ms M  pause between year batches (default 0)\n"
      "  --queries IDS    query mix run concurrently with ingest\n"
      "                   (default q1,q3a,q9)\n"
      "  --no-verify      skip the per-epoch from-scratch audit\n"
      "  --json <path>    write BENCH_live.json records\n");
  return kExitUsage;
}

struct EpochRecord {
  size_t batch_index;  // batches[0..batch_index] are committed
  int year;
  std::shared_ptr<const rdf::SnapshotStore> snapshot;
};

/// Full store content as sorted N-Triples text lines. Two stores with
/// different dictionaries compare equal iff they hold the same triples.
std::vector<std::string> SortedGrid(const rdf::Store& store,
                                    const rdf::Dictionary& dict) {
  std::vector<std::string> lines;
  lines.reserve(store.size());
  store.Match({}, [&](const rdf::Triple& t) {
    lines.push_back(dict.ToNTriples(t.s) + " " + dict.ToNTriples(t.p) + " " +
                    dict.ToNTriples(t.o) + " .");
    return true;
  });
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::vector<std::string> SortedRows(const sparql::QueryResult& result,
                                    const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  if (result.is_ask) {
    rows.push_back(result.ask_value ? "yes" : "no");
  } else {
    rows.reserve(result.row_count());
    for (size_t i = 0; i < result.row_count(); ++i) {
      rows.push_back(result.RowToString(i, dict));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct QuerySeries {
  std::string id;
  std::vector<double> latencies_ms;
  uint64_t runs = 0;
};

bool WriteJson(const std::string& path, uint64_t triples,
               const std::vector<QuerySeries>& series, double ingest_seconds,
               uint64_t ingested, const rdf::IngestStats& stats,
               size_t verified_epochs, size_t mismatches) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  double rate = ingest_seconds > 0
                    ? static_cast<double>(ingested) / ingest_seconds
                    : 0.0;
  // Aggregate record first, then the per-query latency split. All
  // doubles go through JsonDouble so a comma-decimal locale cannot
  // corrupt the file.
  out << "  {\"query\": \"_ingest\", \"triples\": " << triples
      << ", \"ingested\": " << ingested
      << ", \"seconds\": " << JsonDouble(ingest_seconds, 3)
      << ", \"inserts_per_sec\": " << JsonDouble(rate, 1)
      << ", \"batches\": " << stats.batches << ", \"epochs\": " << stats.epochs
      << ", \"compactions\": " << stats.compactions
      << ", \"delta_runs\": " << stats.delta_runs
      << ", \"pinned_high_water\": " << stats.pinned_high_water
      << ", \"verified_epochs\": " << verified_epochs
      << ", \"mismatches\": " << mismatches << "}";
  for (const QuerySeries& s : series) {
    std::vector<double> lat = s.latencies_ms;
    double p50 = Percentile(lat, 0.50);
    double p99 = Percentile(lat, 0.99);
    double mean = 0.0;
    for (double v : lat) mean += v;
    if (!lat.empty()) mean /= static_cast<double>(lat.size());
    out << ",\n  {\"query\": \"" << s.id << "\", \"triples\": " << triples
        << ", \"count\": " << s.runs
        << ", \"ingest_rate\": " << JsonDouble(rate, 1)
        << ", \"p50_ms\": " << JsonDouble(p50, 3)
        << ", \"p99_ms\": " << JsonDouble(p99, 3)
        << ", \"mean_ms\": " << JsonDouble(mean, 3) << "}";
  }
  out << "\n]\n";
  return out.good();
}

int Run(int argc, char** argv) {
  uint64_t triples = 20000;
  uint64_t interval_ms = 0;
  bool verify = true;
  std::string json_path;
  std::vector<std::string> query_ids = {"q1", "q3a", "q9"};
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--triples") == 0 && (v = next())) {
      auto n = ParsePositiveCount(v);
      if (!n) return Usage();
      triples = *n;
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && (v = next())) {
      auto n = ParseDigitsOnly(v);
      if (!n || *n > 60'000) return Usage();
      interval_ms = *n;
    } else if (std::strcmp(argv[i], "--queries") == 0 && (v = next())) {
      query_ids.clear();
      std::stringstream ss{std::string(v)};
      std::string item;
      while (std::getline(ss, item, ',')) query_ids.push_back(item);
      if (query_ids.empty()) return Usage();
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else if (std::strcmp(argv[i], "--json") == 0 && (v = next())) {
      json_path = v;
    } else {
      return Usage();
    }
  }

  // Parse the query mix up front; a parse failure is a usage error.
  std::vector<sparql::AstQuery> asts;
  for (const std::string& qid : query_ids) {
    asts.push_back(sparql::Parse(GetQuery(qid).text, DefaultPrefixes()));
  }

  gen::GeneratorConfig gen_cfg;
  gen_cfg.triple_limit = triples;
  std::vector<gen::YearBatch> batches = gen::GenerateYearBatches(gen_cfg);
  if (batches.empty()) {
    std::fprintf(stderr, "generator produced no batches\n");
    return 1;
  }
  std::fprintf(stderr, "generated %zu year batches (%s triples budget)\n",
               batches.size(), FormatCount(triples).c_str());

  rdf::LiveStore live;
  std::mutex epochs_mu;
  std::vector<EpochRecord> epochs;
  std::atomic<bool> ingest_done{false};
  std::atomic<uint64_t> ingested{0};
  double ingest_seconds = 0.0;

  std::thread feeder([&] {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batches.size(); ++i) {
      rdf::LiveStore::CommitResult r = live.IngestNTriples(batches[i].ntriples);
      ingested.fetch_add(r.added, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(epochs_mu);
        epochs.push_back({i, batches[i].year, live.Pin()});
      }
      if (interval_ms > 0 && i + 1 < batches.size()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    }
    ingest_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ingest_done.store(true, std::memory_order_release);
  });

  // Query loop on this thread: round-robin the mix against whatever
  // snapshot is current, for the whole duration of the ingest stream.
  std::vector<QuerySeries> series;
  for (const std::string& qid : query_ids) series.push_back({qid, {}, 0});
  sparql::EngineConfig engine_cfg = sparql::EngineConfig::ByName("planned");
  while (!ingest_done.load(std::memory_order_acquire)) {
    for (size_t q = 0; q < asts.size(); ++q) {
      std::shared_ptr<const rdf::SnapshotStore> snap = live.Pin();
      sparql::Engine engine(*snap, live.dict(), engine_cfg, snap->stats());
      auto t0 = std::chrono::steady_clock::now();
      sparql::QueryResult result = engine.Execute(asts[q]);
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      (void)result;
      series[q].latencies_ms.push_back(ms);
      ++series[q].runs;
    }
  }
  feeder.join();

  rdf::IngestStats stats = live.ingest_stats();
  double rate = ingest_seconds > 0
                    ? static_cast<double>(ingested.load()) / ingest_seconds
                    : 0.0;
  std::fprintf(stderr,
               "ingested %s triples in %.2fs (%.0f inserts/s), "
               "%llu epochs, %llu compactions\n",
               FormatCount(ingested.load()).c_str(), ingest_seconds, rate,
               static_cast<unsigned long long>(stats.epochs),
               static_cast<unsigned long long>(stats.compactions));

  // Per-epoch audit: each pinned snapshot must match a from-scratch
  // store loaded with exactly the batches committed at that point —
  // both the full sorted triple grid and the query results.
  size_t verified = 0;
  size_t mismatches = 0;
  if (verify) {
    for (const EpochRecord& rec : epochs) {
      std::string text;
      for (size_t i = 0; i <= rec.batch_index; ++i) text += batches[i].ntriples;
      rdf::Dictionary fresh_dict;
      rdf::IndexStore fresh;
      std::istringstream in(text);
      rdf::ParseNTriples(in, fresh_dict, fresh);
      fresh.Finalize();
      bool ok = SortedGrid(*rec.snapshot, live.dict()) ==
                SortedGrid(fresh, fresh_dict);
      if (ok) {
        sparql::Engine live_engine(*rec.snapshot, live.dict(), engine_cfg,
                                   rec.snapshot->stats());
        sparql::Engine fresh_engine(fresh, fresh_dict, engine_cfg, nullptr);
        for (size_t q = 0; q < asts.size() && ok; ++q) {
          ok = SortedRows(live_engine.Execute(asts[q]), live.dict()) ==
               SortedRows(fresh_engine.Execute(asts[q]), fresh_dict);
        }
      }
      ++verified;
      if (!ok) {
        ++mismatches;
        std::fprintf(stderr,
                     "MISMATCH: epoch %llu (year %d, %zu batches) differs "
                     "from from-scratch store\n",
                     static_cast<unsigned long long>(rec.snapshot->epoch()),
                     rec.year, rec.batch_index + 1);
      }
    }
    std::fprintf(stderr, "verified %zu epochs against from-scratch stores"
                 " (%zu mismatches)\n", verified, mismatches);
  }
  // An audit that checked nothing proves nothing: fail it like a
  // mismatch.
  bool audit_failed = mismatches > 0 || (verify && verified == 0);

  Table table({"query", "runs", "p50 ms", "p99 ms"});
  for (QuerySeries& s : series) {
    std::vector<double> lat = s.latencies_ms;
    table.AddRow({s.id, FormatCount(s.runs),
                  JsonDouble(Percentile(lat, 0.50), 3),
                  JsonDouble(Percentile(lat, 0.99), 3)});
  }
  std::printf("%s", table.ToString().c_str());

  if (!json_path.empty()) {
    if (!WriteJson(json_path, triples, series, ingest_seconds, ingested.load(),
                   stats, verified, mismatches)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return audit_failed ? kExitMismatch : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
