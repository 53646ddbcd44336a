// endpoint-zipf: open-loop SPARQL-protocol traffic against an
// in-process SparqlServer over the bulk document. Requests follow a
// fixed schedule (request i due at start + i/rate). The rate search
// times requests on the wall clock from their due time, so a stall is
// charged to every request it delays; the fixed-rate latencies are the
// CPU time each request costs the process (see ReportFixedRate), with
// the wall-clock view reported per layer. The mix is Zipf(1)-popular over instances of twelve
// selective templates (q1/q2/q3/q5b/q8-q12 shapes plus two property
// paths) whose constants are sampled from the store, so the endpoint's
// parser, caches and wire protocol do most of the work and the engine
// runs only on cache misses.
//
// A run: warm-up at the fixed rate, the measured fixed-rate phase (in
// slices, with the set-ups and bulk commits between them), then a search for the highest rate whose p99 (failures counted as
// misses) stays within the latency limit, and finally the gate: sampled
// instances of every template fetched in both wire formats and
// compared, as sorted grids, with the in-process engine.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <thread>

#include "bench_math.h"
#include "sp2b/exec/thread_pool.h"
#include "sp2b/net/http.h"
#include "sp2b/net/protocol.h"
#include "sp2b/net/server.h"
#include "sp2b/queries.h"
#include "sp2b/sparql/engine.h"
#include "sp2b/sparql/parser.h"
#include "sp2b/sparql/query_cache.h"
#include "workloads.h"

namespace sp2b::bench {

namespace {

constexpr int kServerWorkers = 2;
constexpr int kClients = 2;  // client connections
/// Requests/s of the measured phase: a light load, 7-10% of the
/// closed-loop throughput RunClosed measures (10k-14k/s on a 4-vCPU
/// 2.1 GHz VM), so requests rarely queue and the phase measures
/// service time; queueing is what the rate search measures.
constexpr double kFixedRate = 1000.0;
constexpr double kWarmupSeconds = 1.0;
/// The measured fixed-rate phase runs as this many back-to-back slices
/// of its schedule; the bulk re-commits run between them, so they are
/// spread over the phase without competing with its requests.
constexpr int kSlices = 10;
constexpr double kRequestTimeoutSeconds = 5.0;
/// The latency limit max_rate_qps is held to, on the p99.
constexpr double kLimitMs = 50.0;
constexpr double kLimitQuantile = 0.99;
/// The search starts from the closed-loop throughput of the client's
/// connections (they cap what an open loop can offer) and bisects
/// [kSearchLow, kSearchHigh] x that throughput.
constexpr double kClosedSeconds = 1.0;
constexpr double kSearchLow = 0.5;
constexpr double kSearchHigh = 1.25;
constexpr double kProbeSeconds = 2.0;
constexpr int kMaxProbes = 7;
/// Constants sampled per template; the instance space is
/// templates x this.
constexpr size_t kInstancesPerTemplate = 5000;
/// As bench_throughput's cache workload (1/rank popularity).
constexpr double kZipfExponent = 1.0;
/// Result-cache budget, MB. One run at the fixed rate produces about
/// 3 MB of distinct responses (some 4k instances of ~700 B), far below
/// the server's default 32 MB, which it would take minutes of traffic
/// to fill; at 1 MB the working set outgrows the cache and evicts.
constexpr size_t kResultCacheMb = 1;
constexpr size_t kGateInstances = 3;   // per template, both formats
constexpr size_t kReplaySample = 300;  // traced in-process layer replay

/// Every endpoint thread (client connections, the server's accept,
/// dispatcher and pool worker) runs on one CPU, the last. Requests then
/// hand over between threads on one CPU instead of waking idle ones,
/// whose wake-up latency on a virtual machine shifts with the host's
/// load and would set the sub-millisecond latencies measured here.
const int kEndpointCpu =
    std::max(1, static_cast<int>(std::thread::hardware_concurrency())) - 1;

/// Restricts the calling thread, and threads it creates later, to
/// `cpu` (-1: every CPU).
void PinThread(int cpu) {
  int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < cpus; ++c) {
    if (cpu < 0 || c == cpu) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

struct Template {
  std::string id;
  bool path = false;  // property-path template (path_amean_ms)
  std::vector<std::string> texts;  // one query text per instance
};

/// A term as SPARQL source text.
std::string SparqlTerm(const rdf::Term& t) {
  if (t.type == rdf::TermType::kIri) return "<" + t.lexical + ">";
  std::string out = "\"";
  for (char c : t.lexical) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  if (!t.datatype.empty()) {
    out += t.datatype[0] == '@' ? t.datatype : "^^<" + t.datatype + ">";
  }
  return out;
}

/// Rows of a discovery query, each as SPARQL terms of its projection.
std::vector<std::vector<std::string>> Discover(const Document& doc,
                                               const std::string& query) {
  sparql::Engine engine(*doc.store, *doc.dict, sparql::EngineConfig::Planned(),
                        doc.stats.get());
  sparql::QueryResult r =
      engine.Execute(sparql::Parse(query, DefaultPrefixes()));
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    std::vector<std::string> row;
    for (int slot : r.projection) {
      row.push_back(SparqlTerm(r.ResolveTerm(r.rows.Row(i)[slot], *doc.dict)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  for (size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

/// Seed-shuffled, capped sample of discovery rows.
std::vector<std::vector<std::string>> Sample(
    std::vector<std::vector<std::string>> rows, std::mt19937_64& rng) {
  std::shuffle(rows.begin(), rows.end(), rng);
  if (rows.size() > kInstancesPerTemplate) rows.resize(kInstancesPerTemplate);
  return rows;
}

/// The instance space is part of the document: its constants are
/// sampled with the generator's seed, so every workload seed sends its
/// own request stream over the same instances.
std::vector<Template> BuildTemplates(const Document& doc) {
  std::mt19937_64 rng(kGeneratorSeed);
  auto journals = Sample(
      Discover(doc,
               "SELECT ?j ?t WHERE { ?j rdf:type bench:Journal . "
               "?j dc:title ?t }"),
      rng);
  auto persons = Sample(
      Discover(doc,
               "SELECT ?p ?n WHERE { ?p rdf:type foaf:Person . "
               "?p foaf:name ?n }"),
      rng);
  auto inprocs = Sample(
      Discover(doc, "SELECT ?i WHERE { ?i rdf:type bench:Inproceedings }"),
      rng);
  auto articles = Sample(
      Discover(doc, "SELECT ?a WHERE { ?a rdf:type bench:Article }"), rng);
  auto citing = Sample(
      Discover(doc,
               "SELECT DISTINCT ?d WHERE { ?d dcterms:references ?b }"),
      rng);

  std::vector<Template> out;
  auto add = [&](const std::string& id, bool path, size_t n,
                 const std::function<std::string(size_t)>& text) {
    Template t{id, path, {}};
    for (size_t i = 0; i < n; ++i) t.texts.push_back(text(i));
    out.push_back(std::move(t));
  };
  add("q1", false, journals.size(), [&](size_t i) {
    return "SELECT ?yr WHERE { ?journal rdf:type bench:Journal . "
           "?journal dc:title " + journals[i][1] +
           " . ?journal dcterms:issued ?yr }";
  });
  add("q2", false, inprocs.size(), [&](size_t i) {
    return Replace(
        "SELECT ?author ?booktitle ?title ?proc ?ee ?page ?url ?yr ?abstract "
        "WHERE { $I rdf:type bench:Inproceedings . $I dc:creator ?author . "
        "$I bench:booktitle ?booktitle . $I dc:title ?title . "
        "$I dcterms:partOf ?proc . $I rdfs:seeAlso ?ee . $I swrc:pages ?page . "
        "$I foaf:homepage ?url . $I dcterms:issued ?yr "
        "OPTIONAL { $I bench:abstract ?abstract } } ORDER BY ?yr",
        "$I", inprocs[i][0]);
  });
  static const char* kProperties[] = {"pages", "month", "isbn"};
  add("q3", false, journals.size() * 3, [&](size_t i) {
    return "SELECT ?article WHERE { ?article rdf:type bench:Article . "
           "?article swrc:journal " + journals[i / 3][0] +
           " . ?article ?property ?value FILTER (?property = swrc:" +
           kProperties[i % 3] + ") }";
  });
  add("q5b", false, persons.size(), [&](size_t i) {
    return "SELECT DISTINCT ?person WHERE { ?article rdf:type bench:Article . "
           "?article dc:creator ?person . ?inproc rdf:type "
           "bench:Inproceedings . ?inproc dc:creator ?person . "
           "?person foaf:name " + persons[i][1] + " }";
  });
  add("q8", false, persons.size(), [&](size_t i) {
    return Replace(GetQuery("q8").text, "\"Paul Erdoes\"^^xsd:string",
                   persons[i][1]);
  });
  add("q9", false, persons.size(), [&](size_t i) {
    return Replace(
        "SELECT DISTINCT ?predicate WHERE { { $P rdf:type foaf:Person . "
        "?subject ?predicate $P } UNION { $P rdf:type foaf:Person . "
        "$P ?predicate ?object } }",
        "$P", persons[i][0]);
  });
  add("q10", false, persons.size(), [&](size_t i) {
    return "SELECT ?subj ?pred WHERE { ?subj ?pred " + persons[i][0] + " }";
  });
  // q11's ORDER BY + LIMIT/OFFSET over one journal's articles.
  add("q11", false, journals.size() * 5, [&](size_t i) {
    return "SELECT ?ee WHERE { ?publication swrc:journal " +
           journals[i / 5][0] +
           " . ?publication rdfs:seeAlso ?ee } ORDER BY ?ee LIMIT 10 OFFSET " +
           std::to_string(10 * (i % 5));
  });
  add("q12b", false, persons.size(), [&](size_t i) {
    return Replace(GetQuery("q12b").text, "\"Paul Erdoes\"^^xsd:string",
                   persons[i][1]);
  });
  add("q12c", false, persons.size(), [&](size_t i) {
    // Every other instance asks for a person that does not exist.
    std::string who = i % 2 == 0 ? persons[i][0]
                                 : "<http://localhost/persons/Absent_" +
                                       std::to_string(i) + ">";
    return "ASK { " + who + " rdf:type foaf:Person }";
  });
  add("qp3", true, articles.size(), [&](size_t i) {
    return "SELECT ?name WHERE { " + articles[i][0] +
           " dc:creator/foaf:name ?name }";
  });
  add("qp4", true, citing.size(), [&](size_t i) {
    return "SELECT ?cited WHERE { " + citing[i][0] +
           " dcterms:references/rdf:_1 ?cited }";
  });
  return out;
}

/// The instance space in Zipf rank order: ranks interleave templates
/// round-robin so the popular head spans every template, the way
/// template-dominated endpoint logs do.
struct InstanceSpace {
  std::vector<std::pair<uint32_t, uint32_t>> ranked;  // (template, instance)
  std::vector<double> cumulative;                     // Zipf CDF over ranks
  std::vector<std::string> paths;                     // GET target per rank

  explicit InstanceSpace(const std::vector<Template>& templates) {
    for (size_t i = 0;; ++i) {
      bool any = false;
      for (size_t t = 0; t < templates.size(); ++t) {
        if (i < templates[t].texts.size()) {
          ranked.emplace_back(static_cast<uint32_t>(t),
                              static_cast<uint32_t>(i));
          any = true;
        }
      }
      if (!any) break;
    }
    double sum = 0.0;
    char timeout[32];
    std::snprintf(timeout, sizeof(timeout), "&timeout=%g",
                  kRequestTimeoutSeconds);
    for (size_t r = 0; r < ranked.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative.push_back(sum);
      const auto& [t, i] = ranked[r];
      paths.push_back("/sparql?query=" +
                      net::PercentEncode(templates[t].texts[i]) + timeout);
    }
  }

  /// The rank request `index` of a seed's schedule asks for.
  size_t Pick(uint64_t seed, uint64_t index) const {
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;  // SplitMix64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    double u = static_cast<double>(z >> 11) * 0x1.0p-53 * cumulative.back();
    return static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end() - 1, u) -
        cumulative.begin());
  }
};

struct Outcome {
  uint32_t tmpl = 0;
  bool ok = false;
  double at_s = 0.0;         // due time, from the phase start
  double latency_ms = 0.0;   // wall clock, from the due time
  double cpu_ms = 0.0;       // process CPU time from send to response
  double lateness_ms = 0.0;  // send time minus due time
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double elapsed_s = 0.0;
  uint64_t failed() const {
    return static_cast<uint64_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [](const Outcome& o) { return !o.ok; }));
  }
  /// Latency by due time; a failed request carries `failed_ms`.
  std::vector<TimedSample> Timed(double failed_ms) const {
    std::vector<TimedSample> out;
    for (const Outcome& o : outcomes) {
      out.push_back({o.at_s, o.ok ? o.latency_ms : failed_ms});
    }
    return out;
  }
};

/// Drives `rate` requests/s for `seconds` from kClients connections,
/// continuing the schedule at request `*next_index`.
PhaseResult RunPhase(const InstanceSpace& space, int port, uint64_t seed,
                     double rate, double seconds, uint64_t* next_index,
                     SpanLog* log) {
  const uint64_t total =
      std::max<uint64_t>(1, static_cast<uint64_t>(rate * seconds));
  const uint64_t base = *next_index;
  *next_index += total;
  std::atomic<uint64_t> dispenser{0};
  std::vector<std::vector<Outcome>> per_client(kClients);
  std::vector<SpanLog> logs(kClients);
  auto start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PinThread(kEndpointCpu);
      // Wake at the due time, not up to the default 50 us slack later.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      net::HttpClient client("127.0.0.1", port);
      std::vector<Outcome>& mine = per_client[static_cast<size_t>(c)];
      for (;;) {
        uint64_t i = dispenser.fetch_add(1);
        if (i >= total) return;
        auto due = start + std::chrono::nanoseconds(static_cast<int64_t>(
                               1e9 * static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        size_t rank = space.Pick(seed, base + i);
        Outcome o;
        o.tmpl = space.ranked[rank].first;
        o.at_s = static_cast<double>(i) / rate;
        auto sent = Clock::now();
        o.lateness_ms =
            std::chrono::duration<double, std::milli>(sent - due).count();
        double c0 = ProcessCpuMs();
        try {
          net::HttpResponse resp = client.Get(space.paths[rank]);
          o.ok = resp.status == 200;
        } catch (const std::exception&) {
          client.Close();  // the next request reconnects
        }
        o.cpu_ms = ProcessCpuMs() - c0;
        auto done = Clock::now();
        o.latency_ms =
            std::chrono::duration<double, std::milli>(done - due).count();
        if (log != nullptr) {
          logs[static_cast<size_t>(c)].Add("client.request", base + i + 1, 0,
                                           sent, done);
        }
        mine.push_back(o);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult result;
  result.elapsed_s = MsSince(start) / 1000.0;
  for (const auto& v : per_client) {
    result.outcomes.insert(result.outcomes.end(), v.begin(), v.end());
  }
  if (log != nullptr) {
    for (const SpanLog& l : logs) log->Append(l);
  }
  return result;
}

/// Requests/s the client's connections complete back to back.
double RunClosed(const InstanceSpace& space, int port, uint64_t seed,
                 double seconds, uint64_t* next_index) {
  std::atomic<uint64_t> dispenser{*next_index};
  auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PinThread(kEndpointCpu);
      net::HttpClient client("127.0.0.1", port);
      while (MsSince(start) < seconds * 1000.0) {
        try {
          client.Get(space.paths[space.Pick(seed, dispenser.fetch_add(1))]);
        } catch (const std::exception&) {
          client.Close();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t done = dispenser.load() - *next_index;
  *next_index = dispenser.load();
  return static_cast<double>(done) / (MsSince(start) / 1000.0);
}

uint64_t StatsCounter(const std::string& json, const std::string& name) {
  size_t pos = json.find("\"" + name + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + name.size() + 3, nullptr, 10);
}

struct CacheCounters {
  uint64_t result_hits = 0, result_misses = 0, result_evictions = 0;
  uint64_t plan_hits = 0, plan_misses = 0, plan_replans = 0;
  uint64_t overloads = 0;
  uint64_t result_entries = 0, result_bytes = 0;  // cache content now
};

CacheCounters FetchCounters(int port) {
  net::HttpClient client("127.0.0.1", port);
  std::string json = client.Get("/stats").body;
  CacheCounters c;
  c.result_hits = StatsCounter(json, "result_hits");
  c.result_misses = StatsCounter(json, "result_misses");
  c.result_evictions = StatsCounter(json, "result_evictions");
  c.plan_hits = StatsCounter(json, "plan_hits");
  c.plan_misses = StatsCounter(json, "plan_misses");
  c.plan_replans = StatsCounter(json, "plan_replans");
  c.overloads = StatsCounter(json, "overloads");
  c.result_entries = StatsCounter(json, "result_entries");
  c.result_bytes = StatsCounter(json, "result_bytes");
  return c;
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Sorted result grid of the in-process engine, rendered like
/// net::SortedWireGrid.
std::vector<std::string> EngineGrid(const Document& doc,
                                    const std::string& text) {
  sparql::Engine engine(*doc.store, *doc.dict, sparql::EngineConfig::Planned(),
                        doc.stats.get());
  sparql::QueryResult r =
      engine.Execute(sparql::Parse(text, DefaultPrefixes()));
  std::vector<std::string> grid;
  if (r.is_ask) {
    grid.push_back(r.ask_value ? "yes" : "no");
    return grid;
  }
  for (size_t i = 0; i < r.row_count(); ++i) {
    grid.push_back(r.RowToString(i, *doc.dict));
  }
  std::sort(grid.begin(), grid.end());
  return grid;
}

/// Fetches kGateInstances instances of every template in both wire
/// formats and compares them with the in-process engine; every fetch
/// is attempted, every mismatch or error failed.
void Gate(const Document& doc, const std::vector<Template>& templates,
          int port, RunResult* result) {
  net::HttpClient client("127.0.0.1", port);
  for (const Template& t : templates) {
    for (size_t i = 0; i < std::min(kGateInstances, t.texts.size()); ++i) {
      std::vector<std::string> expected = EngineGrid(doc, t.texts[i]);
      for (net::ResultFormat format :
           {net::ResultFormat::kJson, net::ResultFormat::kBinary}) {
        ++result->attempted;
        std::vector<std::pair<std::string, std::string>> headers;
        if (format == net::ResultFormat::kBinary) {
          headers.emplace_back("Accept", net::kContentTypeBinary);
        }
        bool ok = false;
        try {
          net::HttpResponse resp = client.Get(
              "/sparql?query=" + net::PercentEncode(t.texts[i]), headers);
          ok = resp.status == 200 &&
               net::SortedWireGrid(net::DecodeResults(resp.body, format)) ==
                   expected;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "gate %s: %s\n", t.id.c_str(), e.what());
        }
        if (!ok) {
          ++result->failed;
          result->Fail("endpoint " + t.id + " instance " + std::to_string(i) +
                       " differs from the in-process engine");
        }
      }
    }
  }
}

/// Traced: times the endpoint's layers in-process, on the thread CPU
/// clock, over the first kReplaySample requests of the schedule.
void ReplayLayers(const Document& doc, const std::vector<Template>& templates,
                  const InstanceSpace& space, uint64_t seed, uint64_t first,
                  RunResult* result) {
  std::vector<double> parse, canon, counts, exec, serialize, bytes;
  sparql::Engine engine(*doc.store, *doc.dict, sparql::EngineConfig::Planned(),
                        doc.stats.get());
  for (uint64_t i = 0; i < kReplaySample; ++i) {
    const auto& [t, k] = space.ranked[space.Pick(seed, first + i)];
    const std::string& text = templates[t].texts[k];
    double t0 = ThreadCpuMs();
    sparql::AstQuery ast = sparql::Parse(text, DefaultPrefixes());
    parse.push_back((ThreadCpuMs() - t0) * 1000.0);
    t0 = ThreadCpuMs();
    sparql::CanonicalQuery c = sparql::Canonicalize(ast);
    canon.push_back((ThreadCpuMs() - t0) * 1000.0);
    t0 = ThreadCpuMs();
    std::vector<uint64_t> pc =
        sparql::PatternCounts(ast, *doc.store, *doc.dict);
    counts.push_back((ThreadCpuMs() - t0) * 1000.0);
    sparql::PlanScript record;
    t0 = ThreadCpuMs();
    sparql::QueryResult r = engine.ExecutePrepared(
        ast, sparql::QueryLimits::None(), nullptr, &record);
    exec.push_back((ThreadCpuMs() - t0) * 1000.0);
    size_t n = 0;
    t0 = ThreadCpuMs();
    net::SerializeResults(r, *doc.dict, net::ResultFormat::kJson,
                          [&](std::string_view piece) { n += piece.size(); });
    serialize.push_back((ThreadCpuMs() - t0) * 1000.0);
    bytes.push_back(static_cast<double>(n));
    (void)c;
    (void)pc;
  }
  result->Set("sparql.parse_us", Median(parse));
  result->Set("query_cache.canonicalize_us", Median(canon));
  result->Set("query_cache.pattern_counts_us", Median(counts));
  result->Set("engine.prepared_us", Median(exec));
  result->Set("protocol.serialize_us", Median(serialize));
  result->Set("protocol.response_bytes", Median(bytes));
}

/// Latency metrics of the fixed-rate phase. The end-to-end ones are on
/// the process CPU clock: every endpoint thread shares one CPU, so the
/// CPU time the process spends between a request's send and its
/// response is the request's service time, without the wait for the
/// host to run an idle vCPU that the wall clock adds (and that moved
/// the wall-clock p50 by a third between runs on a shared host). What
/// the client saw on the wall clock, from the due time, is reported
/// per layer as client.wall_p50_ms / client.wall_p99_ms.
void ReportFixedRate(const PhaseResult& phase,
                     const std::vector<Template>& templates,
                     RunResult* result) {
  std::vector<double> all, wall;
  std::vector<TimedSample> timed;
  std::map<uint32_t, std::vector<double>> per_template;
  const double penalty_ms = 2 * kRequestTimeoutSeconds * 1000.0;
  for (const Outcome& o : phase.outcomes) {
    // A failed request is charged the penalty in every statistic.
    double ms = o.ok ? o.cpu_ms : penalty_ms;
    all.push_back(ms);
    timed.push_back({o.at_s, ms});
    per_template[o.tmpl].push_back(ms);
    wall.push_back(o.ok ? o.latency_ms : penalty_ms);
  }
  Percentile p50 = PercentileOf(all, 0.50);
  // Per-second p99s, median over the seconds: one stall of the machine
  // moves one second's tail, not the reported one.
  Percentile p99 = WindowedPercentile(timed, 1.0, 0.99);
  Percentile wall_p50 = PercentileOf(wall, 0.50);
  Percentile wall_p99 = WindowedPercentile(phase.Timed(penalty_ms), 1.0, 0.99);
  std::vector<QueryTime> queries, paths;
  for (const auto& [t, v] : per_template) {
    // A template's time is its trimmed mean, not its median: its
    // instances mix result-cache hits and misses, whose times differ
    // several-fold, and a median near a 50% hit ratio would jump
    // between the two.
    QueryTime qt{templates[t].id, true, TrimmedMean(v) / 1000.0};
    (templates[t].path ? paths : queries).push_back(qt);
    Percentile tp99 = PercentileOf(v, 0.99);
    std::printf("  %-5s mean %8.3f ms  p50 %8.3f ms  p99 %8.3f ms (n=%llu)\n",
                templates[t].id.c_str(), qt.seconds * 1000.0, Median(v),
                tp99.value,
                static_cast<unsigned long long>(tp99.samples));
  }
  Means q = PenalizedMeans(queries, penalty_ms / 1000.0);
  Means p = PenalizedMeans(paths, penalty_ms / 1000.0);
  result->Set("latency_p50_ms", p50.value);
  result->Set("latency_p99_ms", p99.value);
  result->Set("client.wall_p50_ms", wall_p50.value);
  result->Set("client.wall_p99_ms", wall_p99.value);
  result->Set("query_amean_ms", q.amean_seconds * 1000.0);
  result->Set("query_gmean_ms", q.gmean_seconds * 1000.0);
  result->Set("path_amean_ms", p.amean_seconds * 1000.0);
  std::printf("fixed rate %.0f/s for %.1f s, CPU clock: p50 %.3f ms (n=%llu), "
              "per-second p99 median %.3f ms (>= %llu beyond p99 in every "
              "second); wall clock from the due time: p50 %.3f ms, "
              "per-second p99 median %.3f ms; %llu failed\n",
              kFixedRate, phase.elapsed_s, p50.value,
              static_cast<unsigned long long>(p50.samples), p99.value,
              static_cast<unsigned long long>(p99.beyond), wall_p50.value,
              wall_p99.value,
              static_cast<unsigned long long>(phase.failed()));
}

std::unique_ptr<net::SparqlServer> StartServer(const Document& doc) {
  // The server's lanes are its dispatcher thread plus workers of the
  // shared pool (server.h); create those from a pinned thread so they
  // inherit the placement.
  std::thread([] {
    PinThread(kEndpointCpu);
    exec::ThreadPool::Shared().EnsureWorkers(kServerWorkers - 1);
  }).join();
  net::ServerConfig cfg;
  cfg.workers = kServerWorkers;
  cfg.result_cache_mb = kResultCacheMb;
  auto server = std::make_unique<net::SparqlServer>(*doc.store, *doc.dict,
                                                    doc.stats.get(), cfg);
  PinThread(kEndpointCpu);  // accept + dispatcher threads inherit it
  server->Start();
  PinThread(-1);
  return server;
}

struct FixedPhase {
  PhaseResult phase;
  CacheCounters before, after;  // /stats around the phase
  uint64_t first = 0;           // schedule index of its first request
  uint64_t next = 0;            // schedule index after it
};

/// Warm-up then the measured phase at kFixedRate, from the start of
/// the seed's schedule, in kSlices slices. After each slice,
/// `side_work` (when set) gets the share of the phase done so far.
FixedPhase RunFixed(const InstanceSpace& space, int port, uint64_t seed,
                    double seconds, SpanLog* log,
                    const std::function<void(double)>& side_work) {
  FixedPhase f;
  RunPhase(space, port, seed, kFixedRate, kWarmupSeconds, &f.next, nullptr);
  f.before = FetchCounters(port);
  f.first = f.next;
  const double slice_s = seconds / kSlices;
  for (int k = 0; k < kSlices; ++k) {
    PhaseResult p =
        RunPhase(space, port, seed, kFixedRate, slice_s, &f.next, log);
    for (Outcome& o : p.outcomes) o.at_s += k * slice_s;
    f.phase.outcomes.insert(f.phase.outcomes.end(), p.outcomes.begin(),
                            p.outcomes.end());
    f.phase.elapsed_s += p.elapsed_s;
    if (side_work) side_work(static_cast<double>(k + 1) / kSlices);
  }
  f.after = FetchCounters(port);
  return f;
}

}  // namespace

RunResult RunEndpoint(const Options& opt) {
  RunResult result;
  std::vector<SetupTimes> setups;
  std::vector<double> totals;
  // One set-up: the document, its instance space and the request paths.
  auto set_up = [&](Document* doc, std::vector<Template>* templates,
                    std::unique_ptr<InstanceSpace>* space) {
    setups.emplace_back();
    double t0 = ThreadCpuMs();
    *doc = BuildDocument(kDocumentTriples, &setups.back());
    *templates = BuildTemplates(*doc);
    *space = std::make_unique<InstanceSpace>(*templates);
    totals.push_back((ThreadCpuMs() - t0) / 1000.0);
  };
  Document doc;
  std::vector<Template> templates;
  std::unique_ptr<InstanceSpace> space;
  set_up(&doc, &templates, &space);
  result.Set("store_bytes_per_triple", doc.BytesPerTriple());
  std::printf("endpoint: %zu templates, %zu instances, Zipf(%.1f)\n",
              templates.size(), space->ranked.size(), kZipfExponent);

  // Untraced: warm-up, the fixed-rate phase, the rate search and the
  // gate on one server.
  auto server = StartServer(doc);
  const int port = server->port();
  // The other set-ups and the re-commits run between the slices of the
  // fixed-rate phase, so they do not compete with its requests.
  std::vector<double> recommits;
  auto side_work = [&](double fraction) {
    while (setups.size() < DueBy(fraction, kSetups)) {
      Document d;
      std::vector<Template> t;
      std::unique_ptr<InstanceSpace> s;
      set_up(&d, &t, &s);
    }
    while (recommits.size() < DueBy(fraction, kRecommits)) {
      recommits.push_back(Recommit(doc, recommits.size()));
    }
  };
  FixedPhase fixed =
      RunFixed(*space, port, opt.seed, opt.seconds, nullptr, side_work);
  ReportBulkSetup(setups, recommits, doc.store->size(), &result);
  result.Set("setup_s", Median(totals));
  result.attempted += fixed.phase.outcomes.size();
  result.failed += fixed.phase.failed();
  ReportFixedRate(fixed.phase, templates, &result);
  std::printf("result cache after the fixed-rate phase: %llu entries, "
              "%.2f MB, %llu evictions in the phase\n",
              static_cast<unsigned long long>(fixed.after.result_entries),
              static_cast<double>(fixed.after.result_bytes) / (1 << 20),
              static_cast<unsigned long long>(fixed.after.result_evictions -
                                              fixed.before.result_evictions));

  uint64_t next = fixed.next;
  double closed = RunClosed(*space, port, opt.seed, kClosedSeconds, &next);
  std::vector<RateProbe> probes;
  double max_rate = MaxPassingRate(
      kSearchLow * closed, kSearchHigh * closed, kSearchHigh / kSearchLow,
      0.03, kMaxProbes,
      [&](double rate) {
        // A rate that misses is tried once more: a stall of the machine
        // fails one probe, a rate past capacity fails both.
        for (int attempt = 0; attempt < 2; ++attempt) {
          PhaseResult p = RunPhase(*space, port, opt.seed, rate,
                                   kProbeSeconds, &next, nullptr);
          result.attempted += p.outcomes.size();
          result.failed += p.failed();
          if (ProbeMeetsLimit(p.Timed(HUGE_VAL), kProbeSeconds / 3,
                              kLimitQuantile, kLimitMs)) {
            return true;
          }
        }
        return false;
      },
      &probes);
  result.Set("max_rate_qps", max_rate);
  std::printf("max rate: %.0f/s meets p99 <= %.0f ms (closed loop %.0f/s); "
              "probes:", max_rate, kLimitMs, closed);
  for (const RateProbe& p : probes) {
    std::printf(" %.0f%s", p.rate, p.ok ? "+" : "-");
  }
  std::printf("\n");
  result.Set("peak_rss_mb", PeakRssMb());
  Gate(doc, templates, port, &result);
  server->Stop();

  if (opt.trace) {
    // Traced: a fresh server replays the same schedule, so the traced
    // fixed-rate phase meets the same cache states as the untraced one.
    server = StartServer(doc);
    SpanLog log;
    auto origin = Clock::now();
    FixedPhase traced =
        RunFixed(*space, server->port(), opt.seed, opt.seconds, &log, {});
    server->Stop();
    result.attempted += traced.phase.outcomes.size();
    result.failed += traced.phase.failed();
    RunResult scratch;
    ReportFixedRate(traced.phase, templates, &scratch);
    double untraced = result.Get("latency_p50_ms");
    result.Set("trace.overhead_pct",
               100.0 * (scratch.Get("latency_p50_ms") - untraced) / untraced);
    std::vector<double> lateness;
    for (const Outcome& o : traced.phase.outcomes) {
      lateness.push_back(o.lateness_ms);
    }
    result.Set("client.lateness_p99_ms", PercentileOf(lateness, 0.99).value);
    const CacheCounters& a = traced.after;
    const CacheCounters& b = traced.before;
    uint64_t lookups =
        (a.result_hits - b.result_hits) + (a.result_misses - b.result_misses);
    uint64_t plans = (a.plan_hits - b.plan_hits) +
                     (a.plan_misses - b.plan_misses) +
                     (a.plan_replans - b.plan_replans);
    result.Set("query_cache.result_hit_ratio",
               Ratio(a.result_hits - b.result_hits, lookups));
    result.Set("query_cache.plan_hit_ratio",
               Ratio(a.plan_hits - b.plan_hits, plans));
    result.Set("query_cache.replan_ratio",
               Ratio(a.plan_replans - b.plan_replans, plans));
    result.Set("query_cache.result_evictions",
               static_cast<double>(a.result_evictions - b.result_evictions));
    result.Set("server.overloads",
               static_cast<double>(a.overloads - b.overloads));
    ReplayLayers(doc, templates, *space, opt.seed, traced.first, &result);
    ProbeStore(*doc.store, *doc.dict, opt.seed, &result);
    if (!opt.trace_out.empty()) log.Write(opt.trace_out, origin);
  }
  return result;
}

}  // namespace sp2b::bench
