#include "sp2b/store/stats.h"

#include <algorithm>
#include <vector>

namespace sp2b::rdf {

namespace {

/// Sets `field` of each predicate's entry to the number of distinct
/// terms packed with it in `keys` ((p << 32) | term).
void CountDistinct(std::vector<uint64_t>& keys,
                   uint64_t PredicateStat::*field,
                   std::unordered_map<TermId, PredicateStat>& out) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (size_t i = 0, j = 0; i < keys.size(); i = j) {
    uint64_t p = keys[i] >> 32;
    while (j < keys.size() && keys[j] >> 32 == p) ++j;
    out[static_cast<TermId>(p)].*field = j - i;
  }
}

}  // namespace

Stats Stats::Build(const Store& store, const Dictionary&) {
  std::vector<uint64_t> ps, po;
  ps.reserve(store.size());
  po.reserve(store.size());
  store.Match({}, [&](const Triple& t) {
    ps.push_back(uint64_t{t.p} << 32 | t.s);
    po.push_back(uint64_t{t.p} << 32 | t.o);
    return true;
  });
  Stats stats;
  CountDistinct(ps, &PredicateStat::distinct_subjects, stats.predicate_stats);
  CountDistinct(po, &PredicateStat::distinct_objects, stats.predicate_stats);
  return stats;
}

}  // namespace sp2b::rdf
