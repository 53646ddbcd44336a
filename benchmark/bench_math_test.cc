// Tests of the benchmark's own math: penalized means (against
// metrics.h), nearest-rank percentiles with their sample counts, the
// monotone max-rate search, EXPLAIN q-errors, and the metric-name
// rules — including the benchmark's own declaration.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.h"
#include "common.h"

using namespace sp2b::bench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void TestPenalizedMeans() {
  // Two successes and one failure charged a 10 s penalty.
  std::vector<QueryTime> times = {
      {"q1", true, 0.001}, {"q2", true, 0.1}, {"q4", false, 99.0}};
  Means m = PenalizedMeans(times, 10.0);
  Check(Near(m.amean_seconds, (0.001 + 0.1 + 10.0) / 3), "penalized amean");
  Check(Near(m.gmean_seconds, std::cbrt(0.001 * 0.1 * 10.0)),
        "penalized gmean");
  // metrics.h agrees on paper ids and ignores the rest.
  Means paper = PaperMeans(times, 10.0);
  Check(Near(paper.amean_seconds, m.amean_seconds), "paper amean");
  Check(Near(paper.gmean_seconds, m.gmean_seconds), "paper gmean");
  std::vector<QueryTime> with_path = times;
  with_path.push_back({"qp1", true, 1000.0});
  Check(Near(PaperMeans(with_path, 10.0).amean_seconds, m.amean_seconds),
        "paper means ignore qp ids");
  // The 1 us floor keeps a zero time from sinking the gmean to 0.
  Means floor = PenalizedMeans({{"q1", true, 0.0}, {"q2", true, 1e-6}}, 1.0);
  Check(Near(floor.gmean_seconds, 1e-6), "gmean floor");
  Check(PenalizedMeans({}, 1.0).amean_seconds == 0.0, "empty means");
}

void TestPercentiles() {
  Percentile p = PercentileOf({5, 1, 4, 2, 3}, 0.5);
  Check(p.value == 3 && p.samples == 5 && p.beyond == 2, "p50 of 5");
  p = PercentileOf({1, 2}, 0.5);
  Check(p.value == 1 && p.beyond == 1, "nearest-rank p50 of {1,2} is 1");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  p = PercentileOf(hundred, 0.99);
  Check(p.value == 99 && p.samples == 100 && p.beyond == 1, "p99 of 100");
  p = PercentileOf(hundred, 0.9);
  Check(p.value == 90 && p.beyond == 10, "p90 of 100 has 10 beyond");
  p = PercentileOf({}, 0.99);
  Check(p.value == 0 && p.samples == 0 && p.beyond == 0, "empty percentile");
  Check(Median({7}) == 7 && Median({}) == 0, "median edge cases");
}

void TestTrimmedMean() {
  std::vector<double> ten = {100, 1, 2, 3, 4, 5, 6, 7, 8, -50};
  Check(Near(TrimmedMean(ten), 4.5), "10% trimmed mean drops one each side");
  Check(Near(TrimmedMean({1, 2, 3}), 2.0), "nothing to trim from 3");
  Check(Near(TrimmedMean({1, 3}, 0.5), 2.0), "trimming keeps one or two");
  Check(TrimmedMean({}) == 0.0, "empty trimmed mean");
  // Moves with the share of slow samples where the median jumps.
  std::vector<double> mostly_fast = {10, 10, 10, 10, 10, 10, 14, 14, 14, 14};
  std::vector<double> mostly_slow = {10, 10, 10, 10, 14, 14, 14, 14, 14, 14};
  Check(Median(mostly_fast) == 10 && Median(mostly_slow) == 14,
        "the median jumps between levels");
  Check(Near(TrimmedMean(mostly_slow) - TrimmedMean(mostly_fast), 1.0),
        "the trimmed mean moves by the share");
}

void TestLatencyLimit() {
  std::vector<double> ms(99, 1.0);
  ms.push_back(50.0);
  Check(MeetsLatencyLimit(ms, 0, 0.99, 10.0), "one slow in 100 meets p99");
  Check(!MeetsLatencyLimit(ms, 1, 0.99, 10.0),
        "a failure counts as missing the limit");
  Check(!MeetsLatencyLimit({}, 0, 0.99, 10.0), "no sample never meets");
}

void TestWindows() {
  // Three 1 s windows of 100 samples; window 1 holds a 50 ms stall.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      double value = w == 1 && i < 20 ? 50.0 : 1.0 + w;
      samples.push_back({w + i / 100.0, value});
    }
  }
  Percentile p = WindowedPercentile(samples, 1.0, 0.99);
  Check(p.value == 3.0 && p.samples == 300 && p.beyond == 1,
        "windowed p99 is the median window's");
  Check(ProbeMeetsLimit(samples, 1.0, 0.99, 10.0),
        "a stall in one window of three passes");
  // A growing backlog: every window's tail and the last median miss.
  std::vector<TimedSample> backlog;
  for (int i = 0; i < 300; ++i) backlog.push_back({i / 100.0, i * 0.1});
  Check(!ProbeMeetsLimit(backlog, 1.0, 0.99, 10.0), "backlog fails");
  // Failures (infinite values) count as misses.
  std::vector<TimedSample> failing = samples;
  for (TimedSample& s : failing) {
    if (s.at >= 2.0 && s.at < 2.05) s.value = HUGE_VAL;
  }
  Check(!ProbeMeetsLimit(failing, 1.0, 0.99, 10.0),
        "failures in a second window fail the probe");
}

void TestMaxRate() {
  // Monotone: passes iff rate <= 1000.
  std::vector<RateProbe> probes;
  double r = MaxPassingRate(100, 100000, 2.0, 0.05, 20,
                            [](double rate) { return rate <= 1000; }, &probes);
  Check(r <= 1000 && r >= 1000 / 1.05, "max rate within resolution");
  double lowest_fail = 1e300, highest_pass = 0;
  for (const RateProbe& p : probes) {
    if (p.ok) highest_pass = std::max(highest_pass, p.rate);
    if (!p.ok) lowest_fail = std::min(lowest_fail, p.rate);
  }
  Check(r == highest_pass && r < lowest_fail, "result is the best pass");
  // Noise above a failure is ignored: 1600 would pass but 800 failed.
  probes.clear();
  r = MaxPassingRate(100, 100000, 2.0, 0.05, 20,
                     [](double rate) { return rate < 700 || rate > 1500; },
                     &probes);
  Check(r < 800, "never above a failed probe");
  Check(MaxPassingRate(100, 1000, 2.0, 0.05, 20,
                       [](double) { return false; }, nullptr) == 0,
        "no pass gives 0");
  // A failing start descends, then bisects.
  r = MaxPassingRate(1000, 4000, 2.0, 0.05, 20,
                     [](double rate) { return rate <= 300; }, nullptr);
  Check(r <= 300 && r >= 300 / 1.05, "descends below a failing start");
  Check(MaxPassingRate(100, 1000, 2.0, 0.05, 20, [](double) { return true; },
                       nullptr) == 1000,
        "capped at hi");
  int calls = 0;
  MaxPassingRate(1, 1e9, 2.0, 1e-9, 6,
                 [&](double) {
                   ++calls;
                   return true;
                 },
                 nullptr);
  Check(calls == 6, "probe budget respected");
}

void TestQError() {
  std::string explain =
      "Project ?a                    est=100  rows=1,000\n"
      "  IndexScan ?a type Article   est=3,060  rows=3,060\n"
      "  IndexScan ?b name ?n        est=0  rows=5\n";
  Check(Near(WorstQError(explain), 10.0), "worst q-error");
  Check(WorstQError("") == 1.0, "no plan gives 1");
}

void TestNames() {
  Check(ValidMetricName("engine.q12a.probes"), "dotted name");
  Check(ValidMetricName("setup_s") && ValidMetricName("9lives"), "plain names");
  Check(!ValidMetricName("_x") && !ValidMetricName(".x"), "leading symbol");
  Check(!ValidMetricName("a b") && !ValidMetricName("a/b"), "bad characters");
  Check(!ValidMetricName(std::string(65, 'a')) &&
            ValidMetricName(std::string(64, 'a')),
        "64-letter limit");
  Check(ValidUnit("1/s") && ValidUnit("%") && ValidUnit("Mtriples/s"),
        "units");
  Check(!ValidUnit("") && !ValidUnit("m s") &&
            !ValidUnit(std::string(17, 'u')),
        "bad units");
  std::vector<std::string> e2e(16, ""), layer(128, "");
  for (size_t i = 0; i < e2e.size(); ++i) e2e[i] = "e" + std::to_string(i);
  for (size_t i = 0; i < layer.size(); ++i) layer[i] = "l" + std::to_string(i);
  Check(CheckMetricSets(e2e, layer).empty(), "16 + 128 metrics are allowed");
  std::vector<std::string> e2e17 = e2e, layer129 = layer;
  e2e17.push_back("e16");
  layer129.push_back("l128");
  Check(!CheckMetricSets(e2e17, layer).empty(), "17 end-to-end refused");
  Check(!CheckMetricSets(e2e, layer129).empty(), "129 per-layer refused");
  Check(!CheckMetricSets({"a"}, {"a"}).empty(), "duplicate across lists");
  Check(!CheckMetricSets({}, {"a"}).empty(), "no end-to-end refused");

  // The benchmark's own declaration obeys the rules.
  std::vector<std::string> own_e2e, own_layer;
  for (const MetricDecl& d : EndToEndMetrics()) {
    own_e2e.push_back(d.name);
    Check(ValidUnit(d.unit), "declared end-to-end unit");
  }
  for (const MetricDecl& d : PerLayerMetrics()) {
    own_layer.push_back(d.name);
    Check(ValidUnit(d.unit), "declared per-layer unit");
  }
  Check(CheckMetricSets(own_e2e, own_layer).empty(), "own declaration");
  bool has_setup = false;
  for (const MetricDecl& d : EndToEndMetrics()) {
    has_setup |= d.name == "setup_s" && d.unit == "s";
  }
  Check(has_setup, "setup_s is declared in s");
}

}  // namespace

int main() {
  TestPenalizedMeans();
  TestPercentiles();
  TestTrimmedMean();
  TestLatencyLimit();
  TestWindows();
  TestMaxRate();
  TestQError();
  TestNames();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_math: all checks passed\n");
  return 0;
}
