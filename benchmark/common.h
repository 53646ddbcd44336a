// Shared plumbing of the three workloads: run options, the metric
// declaration BENCHMARK.json mirrors, the run result and its one-line
// JSON, span recording for traced runs, and the bulk document set-up
// (generator -> IndexStore -> Finalize -> Stats::Build, each timed
// from outside).
#ifndef SP2B_BENCHMARK_COMMON_H_
#define SP2B_BENCHMARK_COMMON_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sp2b/store/dictionary.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/stats.h"

namespace sp2b::bench {

/// The generator seed every workload's document is built from; the
/// workload seed (--seed) only drives what the workload does with it.
inline constexpr uint64_t kGeneratorSeed = 4711;

/// The bulk document of sp2b-catalog and endpoint-zipf.
inline constexpr uint64_t kDocumentTriples = 10'000;

/// Set-ups per run; setup_s is their median. The first one builds what
/// the run measures; the others are built and dropped, spread over the
/// measured phase (see DueBy).
inline constexpr size_t kSetups = 15;

/// Bulk commits (Finalize + Stats::Build) the bulk workloads time per
/// run for their update percentiles, spread over the measured phase.
/// They hold 1/kRecommits, 2/kRecommits, ... of the document's triples,
/// in an order that interleaves small and large (RecommitShare), so the
/// percentiles fall on a spread of commit sizes rather than on repeats
/// of one, and no size range lands on one moment of the run; p90 has
/// 10 samples beyond it.
inline constexpr size_t kRecommits = 100;

/// How many of `total` pieces of side work (set-ups, re-commits) should
/// be done once `fraction` of the measured phase has passed. Spreading
/// them over the phase makes them sample the host over the whole run:
/// on a shared host the speed of memory-bound work drifts over seconds,
/// so samples taken back to back would all land on one moment of it.
inline size_t DueBy(double fraction, size_t total) {
  double due = fraction * static_cast<double>(total);
  return due >= static_cast<double>(total) ? total : static_cast<size_t>(due);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string golden_dir = "benchmark/golden";
  std::string trace_out;  // spans JSON written here by traced runs
};

struct MetricDecl {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<MetricDecl>& EndToEndMetrics();
/// The per-layer metrics, in BENCHMARK.json order.
const std::vector<MetricDecl>& PerLayerMetrics();

/// The catalog the sp2b-catalog workload runs: the 17 paper queries
/// then qp1..qp4.
std::vector<std::string> CatalogQueryIds();

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Name -> value; units come from the declaration.
  std::vector<std::pair<std::string, double>> metrics;

  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// Marks the run incorrect and prints the reason on stderr.
  void Fail(const std::string& reason);
};

/// The final stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} for exactly the declared
/// metrics of the mode (end-to-end untraced, per-layer traced).
/// Throws std::logic_error when the result misses a declared metric.
std::string ResultJson(const RunResult& result, bool trace);

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// CPU clocks. The benchmark times work on them rather than on the wall
// clock: on a virtual machine that shares its host, wall time also
// counts the time a thread waits for a CPU -- the host running other
// tenants' vCPUs (steal) or the guest waking an idle vCPU -- and that
// share moves by tens of percent between runs minutes apart. Only the
// open-loop rate search (max_rate_qps) and the run length are wall time.

/// CPU time the calling thread has used, ms.
inline double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// CPU time every thread of the process has used, ms.
inline double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct Span {
  const char* name = "";
  uint64_t id = 0;      // request / query execution the span belongs to
  uint64_t parent = 0;  // enclosing span's id (0: none)
  Clock::time_point start{};
  Clock::time_point end{};

  double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// One thread's spans, kept in memory until the run ends. A null
/// SpanLog* means tracing is off and every recording call is skipped.
class SpanLog {
 public:
  void Add(const char* name, uint64_t id, uint64_t parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, id, parent, start, end});
  }
  void Append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Durations (ms) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans as a JSON array (times relative to `origin`).
  bool Write(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
};

/// Times a scope into `log` when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t id = 0,
             uint64_t parent = 0)
      : log_(log), name_(name), id_(id), parent_(parent) {
    if (log_ != nullptr) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Add(name_, id_, parent_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t id_, parent_;
  Clock::time_point start_{};
};

// ------------------------------------------------------------------
// Set-up
// ------------------------------------------------------------------

/// A bulk-loaded, query-ready document.
struct Document {
  std::unique_ptr<rdf::Dictionary> dict;
  std::unique_ptr<rdf::IndexStore> store;
  std::unique_ptr<rdf::Stats> stats;
  /// The generated triples in generation order, kept for Recommit.
  /// Read-only once the document is built, like `dict`.
  std::vector<rdf::Triple> generated;

  double BytesPerTriple() const;
};

/// Phase times of one set-up, seconds.
struct SetupTimes {
  double generate = 0, finalize = 0, stats_build = 0;
  double total() const { return generate + finalize + stats_build; }
};

/// Generates `triples` (kGeneratorSeed) straight into a fresh
/// dictionary + IndexStore through gen::Generate, then Finalize and
/// Stats::Build, timing each call.
Document BuildDocument(uint64_t triples, SetupTimes* times);

/// Medians of each phase over several set-ups.
SetupTimes MedianSetup(const std::vector<SetupTimes>& samples);

/// The share of the document bulk commit k holds: ((37 k) mod
/// kRecommits + 1) / kRecommits, every share once per kRecommits.
double RecommitShare(size_t k);

/// Commits bulk commit k's share of the document's generated triples
/// into a fresh IndexStore, which is then dropped, and returns the CPU
/// time of its Finalize + Stats::Build, ms.
double Recommit(const Document& doc, size_t k);

/// Fills the setup-derived metrics shared by the bulk workloads
/// (setup_s, the median set-up; ingest_triples_per_s, the triples over
/// the trimmed mean set-up; update_p50_ms / update_p90_ms over
/// `recommit_ms`; and the traced gen/store.* per-layer times).
void ReportBulkSetup(const std::vector<SetupTimes>& samples,
                     const std::vector<double>& recommit_ms, uint64_t triples,
                     RunResult* result);

/// Peak resident set of the process so far, MB (getrusage).
double PeakRssMb();

/// Store-layer probes for traced runs: full-scan rate over all three
/// permutations (million triples/s) and the mean cost of one
/// dictionary round trip, Lookup(id) then Find*(lexical) (ns).
void ProbeStore(const rdf::Store& store, const rdf::Dictionary& dict,
                uint64_t seed, RunResult* result);

/// Every per-layer metric a workload leaves idle is reported as 0.
void ZeroMissing(RunResult* result, bool trace);

}  // namespace sp2b::bench

#endif  // SP2B_BENCHMARK_COMMON_H_
