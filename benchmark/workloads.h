// The three workloads. Each builds its inputs from Options::seed,
// measures for Options::seconds, gates its outputs, and fills a
// RunResult with every end-to-end metric (and, traced, every
// per-layer metric it exercises).
#ifndef SP2B_BENCHMARK_WORKLOADS_H_
#define SP2B_BENCHMARK_WORKLOADS_H_

#include "common.h"

namespace sp2b::bench {

RunResult RunCatalog(const Options& opt);
RunResult RunEndpoint(const Options& opt);
RunResult RunLive(const Options& opt);

/// Writes the catalog's golden file (rows + ResultGridChecksum per
/// query), refusing when planned and planned-hash disagree.
int PinCatalog(const Options& opt);

}  // namespace sp2b::bench

#endif  // SP2B_BENCHMARK_WORKLOADS_H_
