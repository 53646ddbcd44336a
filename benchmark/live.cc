// live-ingest: writes beside reads. A LiveStore is built over a
// bulk-loaded year cut of the generator's stream; one writer commits
// the following years, cut into fixed-size N-Triples commits, as fast
// as IngestNTriples returns, while one closed-loop reader runs q1, q3a
// and q9 in equal shares (each cycle runs all three, in a seed-shuffled
// order) on pinned snapshots and the background compactor folds delta
// runs. Three threads in all. The run repeats this as episodes until
// --seconds pass: each episode reloads the base and makes the same
// commits, then compacts and times the property-path queries qp1-qp4
// on its final epoch. The gate: the last episode's final epoch must be
// sorted-grid-identical to a bulk load of the same cut, and the reader
// and path queries must return the same grids on both.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_math.h"
#include "sp2b/gen/year_batches.h"
#include "sp2b/queries.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/store/live_store.h"
#include "sp2b/store/ntriples.h"
#include "workloads.h"

namespace sp2b::bench {

namespace {

/// The bulk-loaded base: the first simulated years holding at least
/// this many triples.
constexpr uint64_t kBaseTriples = 10'000;
/// Generator budget; the years past the base cut are the commit stream.
constexpr uint64_t kStreamLimit = 40'000;
constexpr size_t kCommitLines = 500;
/// Commits per episode. Every episode makes the same commits, so the
/// update percentiles cover the same store sizes in every run, however
/// fast the host is; the samples of many episodes spread over the run.
constexpr size_t kEpisodeCommits = 30;
constexpr double kReaderTimeoutSeconds = 5.0;
const char* const kReaderQueries[] = {"q1", "q3a", "q9"};
/// Path queries on each episode's final epoch: samples per query, each
/// the mean of back-to-back executions filling at least kPathBatchMs of
/// CPU time.
constexpr int kPathSamples = 3;
constexpr double kPathBatchMs = 20.0;

struct NamedQuery {
  std::string id;
  sparql::AstQuery ast;
};

struct Setup {
  std::unique_ptr<rdf::LiveStore> live;
  std::string base_text;
  std::vector<std::string> commits;  // kCommitLines N-Triples lines each
  uint64_t base_triples = 0;
};

/// A LiveStore over the bulk-loaded base; Finalize and the
/// constructor's Stats::Build are timed into `times`.
std::unique_ptr<rdf::LiveStore> LoadBase(const std::string& base_text,
                                         SetupTimes* times) {
  auto dict = std::make_unique<rdf::Dictionary>();
  auto base = std::make_unique<rdf::IndexStore>();
  std::istringstream in(base_text);
  rdf::ParseNTriples(in, *dict, *base);
  double t0 = ThreadCpuMs();
  base->Finalize();
  times->finalize = (ThreadCpuMs() - t0) / 1000.0;
  // The constructor's work is the base's Stats::Build.
  t0 = ThreadCpuMs();
  auto live = std::make_unique<rdf::LiveStore>(std::move(base), std::move(dict));
  times->stats_build = (ThreadCpuMs() - t0) / 1000.0;
  return live;
}

Setup BuildLive(SetupTimes* times) {
  Setup s;
  double t0 = ThreadCpuMs();
  gen::GeneratorConfig cfg;
  cfg.triple_limit = kStreamLimit;
  cfg.seed = kGeneratorSeed;
  std::vector<gen::YearBatch> batches = gen::GenerateYearBatches(cfg);
  times->generate = (ThreadCpuMs() - t0) / 1000.0;

  size_t i = 0;
  for (; i < batches.size() && s.base_triples < kBaseTriples; ++i) {
    s.base_text += batches[i].ntriples;
    s.base_triples += batches[i].triples;
  }
  std::string chunk;
  size_t lines = 0;
  for (; i < batches.size(); ++i) {
    std::istringstream in(batches[i].ntriples);
    for (std::string line; std::getline(in, line);) {
      chunk += line;
      chunk += '\n';
      if (++lines == kCommitLines) {
        s.commits.push_back(std::move(chunk));
        chunk.clear();
        lines = 0;
      }
    }
  }
  if (!chunk.empty()) s.commits.push_back(std::move(chunk));

  s.live = LoadBase(s.base_text, times);
  return s;
}

/// Full store content as sorted N-Triples lines.
std::vector<std::string> SortedTriples(const rdf::Store& store,
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

std::vector<std::string> SortedRows(const sparql::QueryResult& r,
                                    const rdf::Dictionary& dict) {
  std::vector<std::string> rows;
  for (size_t i = 0; i < r.row_count(); ++i) {
    rows.push_back(r.RowToString(i, dict));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct Phase {
  std::vector<double> commit_ms;  // writer CPU time per commit
  size_t commits = 0;             // per episode
  uint64_t added = 0;
  double reader_cpu_s = 0.0;  // reader CPU time over all its queries
  uint64_t delta_runs_max = 0;
  std::map<std::string, std::vector<double>> reads;  // qid -> CPU ms
  uint64_t reads_attempted = 0, reads_failed = 0;
  std::map<std::string, std::vector<double>> paths;  // qid -> CPU ms
  int episodes = 0;
};

/// One episode's commits into s.live: writer on its own thread, reader
/// on this one, until the writer has made kEpisodeCommits commits; each
/// commit and each read is timed on its thread's CPU clock and added to
/// `ph`. Traced, the writer also times Stats::Build on every snapshot it
/// publishes.
void Drive(Setup& s, const std::vector<sparql::AstQuery>& queries,
           std::mt19937_64& rng, SpanLog* log, Phase& ph) {
  std::atomic<bool> done{false};
  std::thread writer([&] {
    SpanLog mine;
    const size_t commits = std::min(s.commits.size(), kEpisodeCommits);
    ph.commits = 0;
    for (size_t i = 0; i < commits; ++i) {
      const std::string& commit = s.commits[i];
      auto t0 = Clock::now();
      double c0 = ThreadCpuMs();
      rdf::LiveStore::CommitResult r = s.live->IngestNTriples(commit);
      ph.commit_ms.push_back(ThreadCpuMs() - c0);
      auto t1 = Clock::now();
      ph.added += r.added;
      ++ph.commits;
      ph.delta_runs_max =
          std::max(ph.delta_runs_max, s.live->ingest_stats().delta_runs);
      if (log != nullptr) {
        mine.Add("live.ingest", ph.commit_ms.size(), 0, t0, t1);
        auto snap = s.live->Pin();
        auto b0 = Clock::now();
        rdf::Stats stats = rdf::Stats::Build(*snap, s.live->dict());
        mine.Add("live.stats_build", ph.commit_ms.size(), ph.commit_ms.size(),
                 b0, Clock::now());
        (void)stats;
      }
    }
    if (log != nullptr) log->Append(mine);
    done.store(true, std::memory_order_release);
  });

  std::vector<size_t> cycle(std::size(kReaderQueries));
  for (size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
  sparql::EngineConfig planned = sparql::EngineConfig::Planned();
  for (size_t step = 0; !done.load(std::memory_order_acquire); ++step) {
    if (step % cycle.size() == 0) std::shuffle(cycle.begin(), cycle.end(), rng);
    size_t q = cycle[step % cycle.size()];
    auto snap = s.live->Pin();
    sparql::Engine engine(*snap, s.live->dict(), planned, snap->stats());
    ++ph.reads_attempted;
    double t0 = ThreadCpuMs();
    try {
      engine.Execute(queries[q],
                     sparql::QueryLimits::WithTimeout(std::chrono::milliseconds(
                         static_cast<int64_t>(kReaderTimeoutSeconds * 1000))));
      double ms = ThreadCpuMs() - t0;
      ph.reads[kReaderQueries[q]].push_back(ms);
      ph.reader_cpu_s += ms / 1000.0;
    } catch (const std::exception& e) {
      ++ph.reads_failed;
      ph.reads[kReaderQueries[q]].push_back(2 * kReaderTimeoutSeconds * 1000);
      std::fprintf(stderr, "reader %s failed: %s\n", kReaderQueries[q],
                   e.what());
    }
  }
  writer.join();
}

void Report(const Phase& ph, RunResult* result) {
  Percentile u50 = PercentileOf(ph.commit_ms, 0.50);
  Percentile u90 = PercentileOf(ph.commit_ms, 0.90);
  result->Set("update_p50_ms", u50.value);
  result->Set("update_p90_ms", u90.value);
  double commit_ms = 0.0;
  for (double ms : ph.commit_ms) commit_ms += ms;
  result->Set("ingest_triples_per_s",
              static_cast<double>(ph.added) / (commit_ms / 1000.0));
  std::vector<double> all;
  std::vector<QueryTime> queries;
  for (const auto& [id, v] : ph.reads) {
    all.insert(all.end(), v.begin(), v.end());
    queries.push_back({id, true, TrimmedMean(v) / 1000.0});
    Percentile p99 = PercentileOf(v, 0.99);
    result->Set("live." + id + ".p99_ms", p99.value);
    std::printf("  %-4s p50 %8.3f ms  p99 %8.3f ms (n=%llu)\n", id.c_str(),
                Median(v), p99.value,
                static_cast<unsigned long long>(p99.samples));
  }
  Percentile p50 = PercentileOf(all, 0.50);
  Percentile p99 = PercentileOf(all, 0.99);
  result->Set("latency_p50_ms", p50.value);
  result->Set("latency_p99_ms", p99.value);
  double penalty = 2 * kReaderTimeoutSeconds;
  Means q = PenalizedMeans(queries, penalty);
  result->Set("query_amean_ms", q.amean_seconds * 1000.0);
  result->Set("query_gmean_ms", q.gmean_seconds * 1000.0);
  // The closed-loop reader's rate per second of its own CPU time.
  result->Set("max_rate_qps", static_cast<double>(all.size()) /
                                  ph.reader_cpu_s);
  std::printf("live: %d episodes x %zu commits of %zu lines, %llu triples "
              "added in %.2f CPU s; update p50 %.1f ms / p90 %.1f ms (n=%llu, "
              "%llu beyond p90)\n",
              ph.episodes, ph.commits, kCommitLines,
              static_cast<unsigned long long>(ph.added), commit_ms / 1000.0,
              u50.value, u90.value,
              static_cast<unsigned long long>(u90.samples),
              static_cast<unsigned long long>(u90.beyond));
  std::printf("reader: p50 %.3f ms / p99 %.3f ms (n=%llu, %llu beyond p99), "
              "%llu failed\n",
              p50.value, p99.value,
              static_cast<unsigned long long>(p99.samples),
              static_cast<unsigned long long>(p99.beyond),
              static_cast<unsigned long long>(ph.reads_failed));
}

/// Times the path queries on a snapshot into ph.paths: kPathSamples
/// samples per query, each a batch mean so timer resolution does not
/// set it.
void TimePaths(const rdf::SnapshotStore& snap, const rdf::Dictionary& dict,
               const std::vector<NamedQuery>& paths, Phase& ph) {
  sparql::Engine engine(snap, dict, sparql::EngineConfig::Planned(),
                        snap.stats());
  for (const NamedQuery& q : paths) {
    for (int i = 0; i < kPathSamples; ++i) {
      int runs = 0;
      double t0 = ThreadCpuMs();
      do {
        engine.Execute(q.ast);
        ++runs;
      } while (ThreadCpuMs() - t0 < kPathBatchMs);
      ph.paths[q.id].push_back((ThreadCpuMs() - t0) / runs);
    }
  }
}

/// path_amean_ms: penalized mean of the path queries' median times.
void ReportPaths(const Phase& ph, RunResult* result) {
  std::vector<QueryTime> times;
  for (const auto& [id, v] : ph.paths) {
    times.push_back({id, true, TrimmedMean(v) / 1000.0});
    std::printf("  %-4s trimmed mean %.3f ms (n=%zu batches)\n", id.c_str(),
                TrimmedMean(v), v.size());
  }
  result->Set("path_amean_ms",
              PenalizedMeans(times, 2 * kReaderTimeoutSeconds).amean_seconds *
                  1000.0);
}

/// Episodes until `seconds` pass, at least one. The first runs on the
/// store s.live already holds; each later one reloads the base. Every
/// episode ends compacted, with its path queries timed; the last one's
/// store stays in s.live. After each episode, `side_work` (when set)
/// gets the share of `seconds` passed so far.
Phase RunEpisodes(Setup& s, const std::vector<sparql::AstQuery>& queries,
                  const std::vector<NamedQuery>& paths, uint64_t seed,
                  double seconds, SpanLog* log,
                  const std::function<void(double)>& side_work) {
  Phase ph;
  std::mt19937_64 rng(seed);
  auto start = Clock::now();
  do {
    if (ph.episodes > 0) {
      s.live.reset();
      SetupTimes unused;
      s.live = LoadBase(s.base_text, &unused);
    }
    Drive(s, queries, rng, log, ph);
    // Compacted first, so the path queries see one store rather than
    // however many delta runs the compactor had left at the end.
    s.live->CompactNow();
    TimePaths(*s.live->Pin(), s.live->dict(), paths, ph);
    ++ph.episodes;
    if (side_work) side_work(MsSince(start) / (seconds * 1000.0));
  } while (MsSince(start) < seconds * 1000.0);
  return ph;
}

/// The final epoch against a bulk load of base + committed commits.
void Gate(const Setup& s, const Phase& ph,
          const std::vector<NamedQuery>& queries, RunResult* result) {
  auto snap = s.live->Pin();
  std::string text = s.base_text;
  for (size_t i = 0; i < ph.commits; ++i) text += s.commits[i];
  rdf::Dictionary dict;
  rdf::IndexStore bulk;
  std::istringstream in(text);
  rdf::ParseNTriples(in, dict, bulk);
  bulk.Finalize();
  ++result->attempted;
  if (SortedTriples(*snap, s.live->dict()) != SortedTriples(bulk, dict)) {
    ++result->failed;
    result->Fail("final epoch differs from a bulk load of the same cut");
  }
  sparql::EngineConfig planned = sparql::EngineConfig::Planned();
  sparql::Engine live_engine(*snap, s.live->dict(), planned, snap->stats());
  sparql::Engine bulk_engine(bulk, dict, planned, nullptr);
  for (size_t q = 0; q < queries.size(); ++q) {
    ++result->attempted;
    if (SortedRows(live_engine.Execute(queries[q].ast), s.live->dict()) !=
        SortedRows(bulk_engine.Execute(queries[q].ast), dict)) {
      ++result->failed;
      result->Fail("query " + queries[q].id + " differs on the final epoch");
    }
  }
}

}  // namespace

RunResult RunLive(const Options& opt) {
  RunResult result;
  std::vector<sparql::AstQuery> queries;
  std::vector<NamedQuery> checks, paths;
  for (const char* id : kReaderQueries) {
    queries.push_back(sparql::Parse(GetQuery(id).text, DefaultPrefixes()));
    checks.push_back({id, queries.back()});
  }
  for (const BenchmarkQuery& q : PathQueries()) {
    paths.push_back({q.id, sparql::Parse(q.text, DefaultPrefixes())});
    checks.push_back(paths.back());
  }

  std::vector<SetupTimes> setups;
  std::vector<double> totals;
  auto set_up = [&] {
    setups.emplace_back();
    double t0 = ThreadCpuMs();
    Setup built = BuildLive(&setups.back());
    totals.push_back((ThreadCpuMs() - t0) / 1000.0);
    return built;
  };
  Setup s = set_up();
  if (s.commits.size() < kEpisodeCommits) {
    throw std::runtime_error("commit stream shorter than an episode");
  }
  // The other set-ups run between episodes, spread over the run.
  auto side_work = [&](double fraction) {
    while (setups.size() < DueBy(fraction, kSetups)) set_up();
  };
  Phase ph =
      RunEpisodes(s, queries, paths, opt.seed, opt.seconds, nullptr, side_work);
  side_work(1.0);
  result.Set("setup_s", Median(totals));
  SetupTimes med = MedianSetup(setups);
  result.Set("gen.generate_s", med.generate);
  result.Set("store.finalize_s", med.finalize);
  result.Set("store.stats_build_s", med.stats_build);
  std::printf("setup: %zu set-ups, median %.3f s; base %llu triples, "
              "%zu commits available, %zu per episode\n",
              setups.size(), Median(totals),
              static_cast<unsigned long long>(s.base_triples),
              s.commits.size(), kEpisodeCommits);
  result.attempted += ph.commit_ms.size() + ph.reads_attempted;
  result.failed += ph.reads_failed;
  std::printf("%d episodes\n", ph.episodes);
  Report(ph, &result);
  ReportPaths(ph, &result);
  auto snap = s.live->Pin();
  result.Set("store_bytes_per_triple",
             static_cast<double>(snap->MemoryBytes() +
                                 s.live->dict().MemoryBytes()) /
                 static_cast<double>(snap->size()));
  snap.reset();
  result.Set("peak_rss_mb", PeakRssMb());
  Gate(s, ph, checks, &result);

  if (opt.trace) {
    // Traced episodes, from the same state as the untraced ones.
    SetupTimes unused;
    s.live = LoadBase(s.base_text, &unused);
    SpanLog log;
    auto origin = Clock::now();
    Phase traced =
        RunEpisodes(s, queries, paths, opt.seed, opt.seconds, &log, {});
    result.attempted += traced.commit_ms.size() + traced.reads_attempted;
    result.failed += traced.reads_failed;
    RunResult scratch;
    Report(traced, &scratch);
    for (const auto& [name, value] : scratch.metrics) {
      if (name.rfind("live.", 0) == 0) result.Set(name, value);
    }
    // Every episode makes the same commits, so the medians compare.
    double untraced = Median(ph.commit_ms);
    double with_spans = Median(traced.commit_ms);
    result.Set("trace.overhead_pct",
               100.0 * (with_spans - untraced) / untraced);
    result.Set("live.stats_build_ms",
               Median(log.Durations("live.stats_build")));
    result.Set("live.delta_runs_max",
               static_cast<double>(traced.delta_runs_max));
    rdf::IngestStats is = s.live->ingest_stats();
    result.Set("live.compactions", static_cast<double>(is.compactions));
    result.Set("live.pinned_high_water",
               static_cast<double>(is.pinned_high_water));
    snap = s.live->Pin();
    ProbeStore(*snap, s.live->dict(), opt.seed, &result);
    snap.reset();
    if (!opt.trace_out.empty()) log.Write(opt.trace_out, origin);
  }
  return result;
}

}  // namespace sp2b::bench
