// sp2b_bench: runs one benchmark workload and prints its metrics.
//
//   sp2b_bench --workload <sp2b-catalog|endpoint-zipf|live-ingest>
//              --seed N --seconds S --trace 0|1
//              [--golden-dir DIR] [--trace-out FILE]
//   sp2b_bench --pin [--golden-dir DIR]   (re-pin the catalog golden)
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics of the mode (end-to-end untraced, per-layer traced).
// Exit codes: 0 measured (see "correct"), 1 error, 2 usage.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common.h"
#include "sp2b/strict_parse.h"
#include "workloads.h"

using namespace sp2b;
using namespace sp2b::bench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sp2b_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--golden-dir DIR] [--trace-out FILE]\n"
               "       sp2b_bench --pin [--golden-dir DIR]\n");
  return 2;
}

int Run(int argc, char** argv) {
  Options opt;
  bool pin = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--workload") == 0 && (v = next())) {
      opt.workload = v;
    } else if (std::strcmp(argv[i], "--seed") == 0 && (v = next())) {
      auto n = ParseDigitsOnly(v);
      if (!n) return Usage();
      opt.seed = *n;
      have_seed = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && (v = next())) {
      auto s = ParsePositiveSeconds(v);
      if (!s || *s > 600) return Usage();
      opt.seconds = *s;
      have_seconds = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && (v = next())) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage();
      }
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (std::strcmp(argv[i], "--golden-dir") == 0 && (v = next())) {
      opt.golden_dir = v;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && (v = next())) {
      opt.trace_out = v;
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pin = true;
    } else {
      return Usage();
    }
  }
  if (pin) return PinCatalog(opt);
  if (!have_seed || !have_seconds || !have_trace) return Usage();

  RunResult result;
  if (opt.workload == "sp2b-catalog") {
    result = RunCatalog(opt);
  } else if (opt.workload == "endpoint-zipf") {
    result = RunEndpoint(opt);
  } else if (opt.workload == "live-ingest") {
    result = RunLive(opt);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return Usage();
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "no operation attempted\n");
    return 1;
  }
  result.Set("error_rate", static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted));
  ZeroMissing(&result, opt.trace);
  std::printf("%s\n", ResultJson(result, opt.trace).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays with the process rather than going back to the
  // kernel, so set-ups and queries reuse pages already faulted in. A
  // fresh page's first touch costs a fault whose price on a virtual
  // machine depends on the host's memory pressure; with it in the
  // timings, set-up and update times moved by a fifth between runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
