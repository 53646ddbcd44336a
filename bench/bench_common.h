// Shared plumbing for sp2b_reproduce and bench_joins.
#ifndef SP2B_BENCH_BENCH_COMMON_H_
#define SP2B_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sp2b/metrics.h"
#include "sp2b/queries.h"
#include "sp2b/report.h"
#include "sp2b/runner.h"

namespace sp2b::bench {

/// What loading one (store kind, size) document cost.
struct LoadFigures {
  double load_seconds = 0.0;
  uint64_t memory_bytes = 0;
};

/// Caches loaded documents per (store kind, size) for native engines
/// and provisions the N-Triples files for in-memory reloading.
/// Release(size) drops a size's stores but keeps their LoadFigures, so
/// a run over several sizes holds at most one size's stores at a time.
class DocumentPool {
 public:
  DocumentPool() : dir_(DataDir()) {}

  const std::string& FilePath(uint64_t size) {
    auto it = files_.find(size);
    if (it == files_.end()) {
      it = files_.emplace(size, EnsureDocumentFile(size, dir_)).first;
    }
    return it->second;
  }

  const LoadedDocument& Loaded(StoreKind kind, uint64_t size) {
    auto key = std::make_pair(kind, size);
    auto it = loaded_.find(key);
    if (it == loaded_.end()) {
      auto doc = std::make_unique<LoadedDocument>(
          LoadDocument(FilePath(size), kind, /*with_stats=*/true));
      figures_[key] = {doc->load_seconds, doc->memory_bytes};
      it = loaded_.emplace(key, std::move(doc)).first;
    }
    return *it->second;
  }

  /// Load cost of a (kind, size) that Loaded() loaded, released or not.
  const LoadFigures& Figures(StoreKind kind, uint64_t size) const {
    return figures_.at(std::make_pair(kind, size));
  }

  /// Frees every store loaded for `size`.
  void Release(uint64_t size) {
    for (auto it = loaded_.begin(); it != loaded_.end();) {
      it = it->first.second == size ? loaded_.erase(it) : std::next(it);
    }
  }

 private:
  std::string dir_;
  std::map<uint64_t, std::string> files_;
  std::map<std::pair<StoreKind, uint64_t>, std::unique_ptr<LoadedDocument>>
      loaded_;
  std::map<std::pair<StoreKind, uint64_t>, LoadFigures> figures_;
};

/// Runs `query_ids` for every engine and size into a ResultGrid,
/// releasing each size's stores once its cells are done.
inline ResultGrid RunGrid(DocumentPool& pool,
                          const std::vector<EngineSpec>& specs,
                          const std::vector<uint64_t>& sizes,
                          const std::vector<std::string>& query_ids,
                          const RunOptions& opts, bool verbose = false) {
  ResultGrid grid;
  for (uint64_t size : sizes) {
    const std::string& path = pool.FilePath(size);
    for (const EngineSpec& spec : specs) {
      const LoadedDocument* loaded =
          spec.in_memory ? nullptr : &pool.Loaded(spec.store_kind, size);
      for (const std::string& qid : query_ids) {
        QueryRun run =
            RunQuery(spec, path, loaded, GetQuery(qid), opts);
        if (verbose) {
          std::fprintf(stderr, "  %s %s %s: %c %.3fs\n", spec.name.c_str(),
                       SizeLabel(size).c_str(), qid.c_str(),
                       OutcomeChar(run.outcome), run.seconds);
        }
        grid.Record(spec.name, size, qid, std::move(run));
      }
    }
    pool.Release(size);
  }
  return grid;
}

}  // namespace sp2b::bench

#endif  // SP2B_BENCH_BENCH_COMMON_H_
