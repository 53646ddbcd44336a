// Per-predicate cardinalities the optimizer consults when a pattern
// carries no bound term it can probe the store's indexes with.
#ifndef SP2B_STORE_STATS_H_
#define SP2B_STORE_STATS_H_

#include <cstdint>
#include <unordered_map>

#include "sp2b/store/dictionary.h"
#include "sp2b/store/store.h"

namespace sp2b::rdf {

struct PredicateStat {
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

struct Stats {
  /// The optimizer's join-selectivity source: expected matches of
  /// (s, p, ?) is Count(?, p, ?)/distinct_subjects. One entry per
  /// predicate present, so size() is the distinct predicate count.
  std::unordered_map<TermId, PredicateStat> predicate_stats;

  static Stats Build(const Store& store, const Dictionary&);
};

}  // namespace sp2b::rdf

#endif  // SP2B_STORE_STATS_H_
