#include "sp2b/store/index_store.h"

#include <algorithm>
#include <stdexcept>

namespace sp2b::rdf {

namespace {

struct OrderSpo {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct OrderPos {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};
struct OrderOsp {
  bool operator()(const Triple& a, const Triple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};

// Range of triples in `index` (sorted by Cmp) whose Cmp-leading bound
// components equal the pattern's. `lo`/`hi` are sentinel triples where
// unbound slots are set to 0 / max. The run's end is found by
// galloping from its start: a bound probe's run is a few triples, so
// bracketing it costs a few comparisons instead of a second binary
// search over the whole permutation.
template <typename Cmp>
std::pair<size_t, size_t> Range(const std::vector<Triple>& index,
                                const Triple& lo, const Triple& hi) {
  const Cmp cmp;
  const size_t n = index.size();
  const size_t begin = static_cast<size_t>(
      std::lower_bound(index.begin(), index.end(), lo, cmp) - index.begin());
  size_t step = 1;
  while (begin + step < n && !cmp(hi, index[begin + step])) step <<= 1;
  // index[begin + step / 2] <= hi (for step > 1) and index[begin + step]
  // > hi (or past the end): the end lies in between.
  auto end = std::upper_bound(index.begin() + (begin + step / 2),
                              index.begin() + std::min(n, begin + step), hi,
                              cmp);
  return {begin, static_cast<size_t>(end - index.begin())};
}

constexpr TermId kMax = ~TermId{0};

/// Stable counting-sort pass by one triple component over the dense
/// term-id space: O(n + max_id) instead of a comparison sort.
void CountingPass(const std::vector<Triple>& in, std::vector<Triple>& out,
                  std::vector<uint32_t>& counts, TermId max_id,
                  TermId Triple::*component) {
  counts.assign(static_cast<size_t>(max_id) + 1, 0);
  for (const Triple& t : in) ++counts[t.*component];
  uint32_t offset = 0;
  for (uint32_t& c : counts) {
    uint32_t n = c;
    c = offset;
    offset += n;
  }
  out.resize(in.size());
  for (const Triple& t : in) out[counts[t.*component]++] = t;
}

}  // namespace

void IndexStore::Add(const Triple& t) {
  spo_.push_back(t);
  finalized_ = false;
}

void IndexStore::Finalize() {
  std::sort(spo_.begin(), spo_.end(), OrderSpo());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  // The two secondary permutations are derived from the sorted spo_
  // by stable LSD counting passes over the dense term-id space —
  // each pass is O(n + |dict|), replacing two more full O(n log n)
  // comparison sorts:
  //   pos_ = by_p(by_o(spo_))   (spo_ is already stably ordered by s)
  //   osp_ = by_o(by_s(pos_))   (pos_ is already stably ordered by p)
  TermId max_id = 0;
  for (const Triple& t : spo_) {
    max_id = std::max({max_id, t.s, t.p, t.o});
  }
  std::vector<uint32_t> counts;
  std::vector<Triple> tmp;
  CountingPass(spo_, tmp, counts, max_id, &Triple::o);
  CountingPass(tmp, pos_, counts, max_id, &Triple::p);
  CountingPass(pos_, tmp, counts, max_id, &Triple::s);
  CountingPass(tmp, osp_, counts, max_id, &Triple::o);
  finalized_ = true;
}

IndexStore::Routed IndexStore::Route(const TriplePattern& q, int lead) const {
  if (!finalized_) {
    throw std::logic_error("IndexStore::Finalize() not called before query");
  }
  bool s = q.s != kNoTerm, p = q.p != kNoTerm, o = q.o != kNoTerm;
  if (s) {
    // SPO serves s, sp, spo; (s,o) goes to OSP where (o,s) is a prefix.
    if (o && !p) {
      auto r = Range<OrderOsp>(osp_, {q.s, 0, q.o}, {q.s, kMax, q.o});
      return {&osp_, r.first, r.second, ScanOrder::kOSP};
    }
    Triple lo{q.s, p ? q.p : 0, o ? q.o : 0};
    Triple hi{q.s, p ? q.p : kMax, o ? q.o : kMax};
    auto r = Range<OrderSpo>(spo_, lo, hi);
    return {&spo_, r.first, r.second, ScanOrder::kSPO};
  }
  if (p) {
    Triple lo{0, q.p, o ? q.o : 0};
    Triple hi{kMax, q.p, o ? q.o : kMax};
    auto r = Range<OrderPos>(pos_, lo, hi);
    return {&pos_, r.first, r.second, ScanOrder::kPOS};
  }
  if (o) {
    auto r = Range<OrderOsp>(osp_, {0, 0, q.o}, {kMax, kMax, q.o});
    return {&osp_, r.first, r.second, ScanOrder::kOSP};
  }
  // Full scan: every permutation serves; honor the order preference.
  if (lead == 1) return {&pos_, 0, pos_.size(), ScanOrder::kPOS};
  if (lead == 2) return {&osp_, 0, osp_.size(), ScanOrder::kOSP};
  return {&spo_, 0, spo_.size(), ScanOrder::kSPO};
}

ScanOrder IndexStore::ScanOrderFor(const TriplePattern& q, int lead) const {
  bool s = q.s != kNoTerm, p = q.p != kNoTerm, o = q.o != kNoTerm;
  if (s) return o && !p ? ScanOrder::kOSP : ScanOrder::kSPO;
  if (p) return ScanOrder::kPOS;
  if (o) return ScanOrder::kOSP;
  if (lead == 1) return ScanOrder::kPOS;
  if (lead == 2) return ScanOrder::kOSP;
  return ScanOrder::kSPO;
}

void IndexStore::Scan(const TriplePattern& q, ScanCursor* cursor,
                      int lead) const {
  Routed r = Route(q, lead);
  cursor->Reset(r.order);
  cursor->direct_ = r.index->data() + r.lo;
  cursor->direct_end_ = r.index->data() + r.hi;
}

uint64_t IndexStore::Count(const TriplePattern& q) const {
  Routed r = Route(q, -1);
  return r.hi - r.lo;
}

uint64_t IndexStore::MemoryBytes() const {
  return (spo_.capacity() + pos_.capacity() + osp_.capacity()) *
         sizeof(Triple);
}

}  // namespace sp2b::rdf
