// Benchmark run bookkeeping: per-run outcomes, the engine x size x
// query result grid, and the Table IV / VI / VII summary metrics
// (success strings, penalized arithmetic/geometric means, memory).
#ifndef SP2B_METRICS_H_
#define SP2B_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace sp2b {

// ------------------------------------------------------------------
// Latency statistics shared by the bench harnesses and the HTTP
// server's per-request metrics.
// ------------------------------------------------------------------

/// 0-based index of the nearest-rank q-percentile in a sorted sample
/// of n values: ceil(q*n) - 1, clamped to [0, n-1]. The q-percentile
/// is the smallest sample value with at least q*n values <= it, so
/// p50 of {1, 2} is 1 (not 2) and p100 is the maximum.
size_t PercentileRank(size_t n, double q);

/// Nearest-rank percentile of `values` (q in (0, 1]); sorts the
/// sample in place. Returns 0 for an empty sample.
double Percentile(std::vector<double>& values, double q);

struct LatencySummary {
  uint64_t count = 0;
  double p50 = 0, p95 = 0, p99 = 0, mean = 0;
};

/// Count, nearest-rank p50/p95/p99, and mean of a latency sample in
/// milliseconds; sorts `ms` in place.
LatencySummary SummarizeLatencies(std::vector<double>& ms);

/// Thread-safe fixed-bucket latency histogram: power-of-two
/// microsecond buckets (bucket i holds latencies in (2^(i-1), 2^i]
/// us). Recording is a single relaxed atomic increment, so the HTTP
/// server charges it on every request without contention; percentile
/// reads resolve the same nearest-rank position as Percentile() and
/// report the bucket's upper bound.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(double ms);

  uint64_t count() const;
  double MeanMs() const;
  /// Upper bound (ms) of the bucket holding the nearest-rank
  /// q-percentile; 0 when empty.
  double PercentileMs(double q) const;
  /// '"buckets": [{"le_ms": .., "count": ..}, ...]' over the
  /// non-empty prefix, for the /stats endpoint.
  std::string BucketsJson() const;

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> total_us_{0};
};

enum class Outcome { kSuccess, kTimeout, kMemory, kError };

/// '+' success, 'T' timeout, 'M' memory exhaustion, 'E' error.
char OutcomeChar(Outcome outcome);

struct QueryRun {
  Outcome outcome = Outcome::kError;
  double seconds = 0.0;      // wall clock
  double usr_seconds = 0.0;  // process user time delta
  double sys_seconds = 0.0;  // process system time delta
  uint64_t result_count = 0;
  std::string first_row;      // RowToString of row 0 (qa3's count)
  uint64_t memory_bytes = 0;  // store+dict (in-memory) / result memory
  std::string error;
};

/// (engine name, document size, query id) -> QueryRun.
class ResultGrid {
 public:
  void Record(const std::string& engine, uint64_t size,
              const std::string& query_id, QueryRun run);

  /// nullptr when the cell was never recorded.
  const QueryRun* Find(const std::string& engine, uint64_t size,
                       const std::string& query_id) const;

 private:
  friend std::string SuccessString(const ResultGrid&, const std::string&,
                                   uint64_t);
  friend double ArithmeticMeanSeconds(const ResultGrid&, const std::string&,
                                      uint64_t, double);
  friend double GeometricMeanSeconds(const ResultGrid&, const std::string&,
                                     uint64_t, double);
  friend double MeanMemoryBytes(const ResultGrid&, const std::string&,
                                uint64_t);

  std::map<std::tuple<std::string, uint64_t, std::string>, QueryRun> cells_;
};

/// One OutcomeChar per benchmark query in paper order, e.g. "++T+...".
std::string SuccessString(const ResultGrid& grid, const std::string& engine,
                          uint64_t size);

/// Mean over the engine's runs at `size`; failures are charged
/// `penalty_seconds` (the paper uses 2x the timeout).
double ArithmeticMeanSeconds(const ResultGrid& grid, const std::string& engine,
                             uint64_t size, double penalty_seconds);
double GeometricMeanSeconds(const ResultGrid& grid, const std::string& engine,
                            uint64_t size, double penalty_seconds);

/// Mean memory over successful runs (0 when none succeeded).
double MeanMemoryBytes(const ResultGrid& grid, const std::string& engine,
                       uint64_t size);

}  // namespace sp2b

#endif  // SP2B_METRICS_H_
