// The benchmark's own measurement math, kept free of workload code so
// bench_math_test can pin it: nearest-rank percentiles with their
// sample counts, the paper's penalized means, the monotone max-rate
// search, EXPLAIN q-errors, and the metric-name rules BENCHMARK.json
// is held to. Percentiles and the catalog means delegate to
// sp2b/metrics.h so the benchmark reports exactly what the paper
// tables do.
#ifndef SP2B_BENCHMARK_BENCH_MATH_H_
#define SP2B_BENCHMARK_BENCH_MATH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace sp2b::bench {

/// A nearest-rank percentile together with the sample it came from:
/// `samples` values in total, `beyond` of them strictly above the
/// reported rank (the guide for choosing a percentile: report the
/// highest one with at least ten samples beyond it).
struct Percentile {
  double value = 0.0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
};

/// q in (0, 1]; an empty sample yields {0, 0, 0}.
Percentile PercentileOf(std::vector<double> values, double q);

/// Nearest-rank median (sp2b::Percentile at 0.5); 0 when empty.
double Median(std::vector<double> values);

/// Mean of `values` without the lowest and the highest `trim` share of
/// them (rounded down; 0 when empty). The benchmark's time per query:
/// on a shared host the speed of memory-bound work switches between
/// levels every second or so, and a median of repeated executions of
/// one query jumps with whichever level held the majority, while the
/// trimmed mean moves with the share of time at each level and still
/// ignores the odd outlier.
double TrimmedMean(std::vector<double> values, double trim = 0.1);

/// One query's outcome in a mean: its median time, or a failure that
/// is charged the penalty (the paper charges 2x the timeout).
struct QueryTime {
  std::string id;
  bool ok = true;
  double seconds = 0.0;
};

struct Means {
  double amean_seconds = 0.0;
  double gmean_seconds = 0.0;
};

/// Penalized arithmetic and geometric means over the 17 paper queries
/// (q1..q12c), computed by metrics.h's ArithmeticMeanSeconds /
/// GeometricMeanSeconds over a ResultGrid. Entries for other ids are
/// ignored, exactly as the paper tables ignore them.
Means PaperMeans(const std::vector<QueryTime>& times, double penalty_seconds);

/// The same penalized means over every entry of `times` (any ids) —
/// for query sets the paper tables do not cover (qp1..qp4, endpoint
/// templates, the live reader mix). The geometric mean uses the same
/// 1 us floor as metrics.h.
Means PenalizedMeans(const std::vector<QueryTime>& times,
                     double penalty_seconds);

/// True when a step of `attempted` requests meets a latency limit at
/// quantile q: the nearest-rank q-percentile of the sample, with every
/// failed request counted as missing the limit, is <= limit_ms.
bool MeetsLatencyLimit(const std::vector<double>& latencies_ms,
                       uint64_t failed, double q, double limit_ms);

/// A sample value observed at time `at` (seconds from the phase start).
struct TimedSample {
  double at = 0.0;
  double value = 0.0;
};

/// The q-percentile of each consecutive `window_s` window of a phase,
/// and the median over the windows: a stall confined to one window
/// moves one window's percentile, not the result. `samples` counts all
/// samples; `beyond` is the fewest samples beyond the percentile in any
/// window, so it states how well every window resolves q.
Percentile WindowedPercentile(const std::vector<TimedSample>& samples,
                              double window_s, double q);

/// A rate-search probe split into windows passes when most windows
/// meet the latency limit (MeetsLatencyLimit, failures as misses) and
/// the last window's median is within the limit, so its backlog is not
/// growing. `failed` samples carry an infinite value.
bool ProbeMeetsLimit(const std::vector<TimedSample>& samples, double window_s,
                     double q, double limit_ms);

struct RateProbe {
  double rate = 0.0;
  bool ok = false;
};

/// Highest rate that passes `meets`, treated as monotone (a rate
/// fails, so does every higher one): from `lo` it grows geometrically
/// by `growth` until a probe fails or `hi` is reached (or, when `lo`
/// fails, shrinks by `growth` until one passes), then bisects the
/// bracket until its ratio is <= 1 + resolution or `max_probes` probes
/// were spent. Never returns a rate that failed or one above a failed
/// probe; 0 when no probe passed. Every probe is appended to `probes`
/// when non-null.
double MaxPassingRate(double lo, double hi, double growth, double resolution,
                      int max_probes, const std::function<bool(double)>& meets,
                      std::vector<RateProbe>* probes);

/// Worst estimate-vs-actual ratio over the operator lines of an
/// EXPLAIN rendering ("... est=1,085  rows=3,056"): max over lines of
/// max(est, actual) / min(est, actual), both floored at 1 row. 1 when
/// the text holds no operator line (ASK queries render no plan).
double WorstQError(const std::string& explain);

/// BENCHMARK.json naming rules: a name starts with a letter or digit
/// and holds at most 64 of [A-Za-z0-9_.-]; a unit holds at most 16 of
/// [A-Za-z0-9_/%.-].
bool ValidMetricName(std::string_view name);
bool ValidUnit(std::string_view unit);

/// Empty when the two lists are a valid metric declaration (1..16
/// end-to-end, 1..128 per-layer, every name valid, no name used twice
/// across both lists); otherwise a one-line reason.
std::string CheckMetricSets(const std::vector<std::string>& end_to_end,
                            const std::vector<std::string>& per_layer);

}  // namespace sp2b::bench

#endif  // SP2B_BENCHMARK_BENCH_MATH_H_
