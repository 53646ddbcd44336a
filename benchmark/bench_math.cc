#include "bench_math.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>

#include "sp2b/metrics.h"

namespace sp2b::bench {

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  size_t rank = PercentileRank(values.size(), q);
  p.value = values[rank];
  p.beyond = values.size() - 1 - rank;
  return p;
}

double Median(std::vector<double> values) {
  return sp2b::Percentile(values, 0.5);
}

double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t cut = static_cast<size_t>(trim * static_cast<double>(values.size()));
  if (2 * cut >= values.size()) cut = (values.size() - 1) / 2;
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

Means PaperMeans(const std::vector<QueryTime>& times, double penalty_seconds) {
  // One engine, one size: the grid's other two coordinates are fixed.
  constexpr char kEngine[] = "bench";
  constexpr uint64_t kSize = 0;
  ResultGrid grid;
  for (const QueryTime& t : times) {
    QueryRun run;
    run.outcome = t.ok ? Outcome::kSuccess : Outcome::kError;
    run.seconds = t.seconds;
    grid.Record(kEngine, kSize, t.id, run);
  }
  Means m;
  m.amean_seconds =
      ArithmeticMeanSeconds(grid, kEngine, kSize, penalty_seconds);
  m.gmean_seconds = GeometricMeanSeconds(grid, kEngine, kSize, penalty_seconds);
  return m;
}

Means PenalizedMeans(const std::vector<QueryTime>& times,
                     double penalty_seconds) {
  Means m;
  if (times.empty()) return m;
  double sum = 0.0, log_sum = 0.0;
  for (const QueryTime& t : times) {
    double s = t.ok ? t.seconds : penalty_seconds;
    sum += s;
    log_sum += std::log(std::max(s, 1e-6));
  }
  double n = static_cast<double>(times.size());
  m.amean_seconds = sum / n;
  m.gmean_seconds = std::exp(log_sum / n);
  return m;
}

bool MeetsLatencyLimit(const std::vector<double>& latencies_ms,
                       uint64_t failed, double q, double limit_ms) {
  uint64_t n = latencies_ms.size() + failed;
  if (n == 0) return false;
  uint64_t misses = failed;
  for (double ms : latencies_ms) {
    if (ms > limit_ms) ++misses;
  }
  // The nearest-rank q-percentile is the (rank+1)-th smallest value; it
  // stays within the limit iff at most n - (rank+1) samples miss.
  uint64_t rank = PercentileRank(n, q);
  return misses <= n - 1 - rank;
}

namespace {

/// Values of `samples` bucketed into consecutive windows.
std::vector<std::vector<double>> Windows(
    const std::vector<TimedSample>& samples, double window_s) {
  std::vector<std::vector<double>> windows;
  for (const TimedSample& s : samples) {
    size_t w = static_cast<size_t>(std::max(0.0, s.at) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.value);
  }
  windows.erase(std::remove_if(windows.begin(), windows.end(),
                               [](const auto& w) { return w.empty(); }),
                windows.end());
  return windows;
}

}  // namespace

Percentile WindowedPercentile(const std::vector<TimedSample>& samples,
                              double window_s, double q) {
  Percentile out;
  out.samples = samples.size();
  std::vector<double> per_window;
  bool first = true;
  for (std::vector<double>& w : Windows(samples, window_s)) {
    Percentile p = PercentileOf(std::move(w), q);
    per_window.push_back(p.value);
    out.beyond = first ? p.beyond : std::min(out.beyond, p.beyond);
    first = false;
  }
  out.value = Median(per_window);
  return out;
}

bool ProbeMeetsLimit(const std::vector<TimedSample>& samples, double window_s,
                     double q, double limit_ms) {
  std::vector<std::vector<double>> windows = Windows(samples, window_s);
  if (windows.empty()) return false;
  size_t passing = 0;
  for (const std::vector<double>& w : windows) {
    std::vector<double> ok;
    uint64_t failed = 0;
    for (double v : w) {
      if (std::isfinite(v)) {
        ok.push_back(v);
      } else {
        ++failed;
      }
    }
    passing += MeetsLatencyLimit(ok, failed, q, limit_ms);
  }
  return 2 * passing > windows.size() && Median(windows.back()) <= limit_ms;
}

double MaxPassingRate(double lo, double hi, double growth, double resolution,
                      int max_probes, const std::function<bool(double)>& meets,
                      std::vector<RateProbe>* probes) {
  int spent = 0;
  auto probe = [&](double rate) {
    ++spent;
    bool ok = meets(rate);
    if (probes != nullptr) probes->push_back({rate, ok});
    return ok;
  };
  double pass = 0.0;  // 0: no pass seen yet
  double fail = 0.0;  // 0: no failure seen yet
  (probe(lo) ? pass : fail) = lo;
  while (pass == 0.0 && spent < max_probes) {  // descend below a failing lo
    double next = fail / growth;
    (probe(next) ? pass : fail) = next;
  }
  if (pass == 0.0) return 0.0;
  while (fail == 0.0 && pass < hi && spent < max_probes) {
    double next = std::min(hi, pass * growth);
    if (probe(next)) {
      pass = next;
    } else {
      fail = next;
    }
  }
  while (fail != 0.0 && fail / pass > 1.0 + resolution && spent < max_probes) {
    double mid = std::sqrt(pass * fail);
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass;
}

namespace {

/// Parses the digits (with ',' thousands separators) after `key` in
/// `line`; -1 when absent.
double NumberAfter(const std::string& line, const std::string& key) {
  size_t pos = line.find(key);
  if (pos == std::string::npos) return -1;
  pos += key.size();
  std::string digits;
  while (pos < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[pos])) ||
          line[pos] == ',')) {
    if (line[pos] != ',') digits += line[pos];
    ++pos;
  }
  if (digits.empty()) return -1;
  return std::strtod(digits.c_str(), nullptr);
}

}  // namespace

double WorstQError(const std::string& explain) {
  double worst = 1.0;
  size_t start = 0;
  while (start < explain.size()) {
    size_t end = explain.find('\n', start);
    if (end == std::string::npos) end = explain.size();
    std::string line = explain.substr(start, end - start);
    start = end + 1;
    double est = NumberAfter(line, "est=");
    double actual = NumberAfter(line, "rows=");
    if (est < 0 || actual < 0) continue;
    est = std::max(est, 1.0);
    actual = std::max(actual, 1.0);
    worst = std::max(worst, std::max(est, actual) / std::min(est, actual));
  }
  return worst;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::string CheckMetricSets(const std::vector<std::string>& end_to_end,
                            const std::vector<std::string>& per_layer) {
  if (end_to_end.empty() || end_to_end.size() > 16) {
    return "end-to-end metrics must number 1 to 16, not " +
           std::to_string(end_to_end.size());
  }
  if (per_layer.empty() || per_layer.size() > 128) {
    return "per-layer metrics must number 1 to 128, not " +
           std::to_string(per_layer.size());
  }
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const std::string& name : *list) {
      if (!ValidMetricName(name)) return "invalid metric name: " + name;
      if (!seen.insert(name).second) return "metric name used twice: " + name;
    }
  }
  return "";
}

}  // namespace sp2b::bench
