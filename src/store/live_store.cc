#include "sp2b/store/live_store.h"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "sp2b/fault.h"
#include "sp2b/store/ntriples.h"

namespace sp2b::rdf {
namespace {

// Merge output block size: big enough to amortize the virtual
// RefillScan call, small enough to stay cache-resident.
constexpr size_t kMergeBlock = 1024;

bool OrderLess(ScanOrder order, const Triple& a, const Triple& b) {
  switch (order) {
    case ScanOrder::kPOS:
      return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
    case ScanOrder::kOSP:
      return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
    case ScanOrder::kPSO:
      return std::tie(a.p, a.s, a.o) < std::tie(b.p, b.s, b.o);
    case ScanOrder::kSPO:
    case ScanOrder::kNone:
      break;
  }
  return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
}

bool SpoLess(const Triple& a, const Triple& b) {
  return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
}

}  // namespace

// Per-cursor k-way merge state, stashed in ScanCursor::ext_ so a
// reused cursor (nested-loop join probes) keeps its vectors' capacity
// across Scan() calls. Source 0 is the base, then one per delta run.
struct SnapshotStore::MergeState {
  std::vector<ScanCursor> cursors;
  std::vector<TripleBlock> heads;  // current block per source
  std::vector<size_t> pos;         // offset into heads[i]

  const Triple& Head(size_t i) const { return heads[i].data[pos[i]]; }
  bool Exhausted(size_t i) const { return heads[i].empty(); }
  void Advance(size_t i) {
    if (++pos[i] >= heads[i].size) {
      heads[i] = cursors[i].Next();
      pos[i] = 0;
    }
  }
};

SnapshotStore::SnapshotStore(std::shared_ptr<const Store> base,
                             std::vector<std::shared_ptr<const IndexStore>> runs,
                             uint64_t epoch, uint64_t generation,
                             std::shared_ptr<detail::PinTracker> pins)
    : base_(std::move(base)),
      runs_(std::move(runs)),
      epoch_(epoch),
      generation_(generation),
      pins_(std::move(pins)) {
  if (pins_ != nullptr) {
    uint64_t now = pins_->live.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t seen = pins_->high_water.load(std::memory_order_relaxed);
    while (seen < now && !pins_->high_water.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
  }
}

SnapshotStore::~SnapshotStore() {
  if (pins_ != nullptr) {
    pins_->live.fetch_sub(1, std::memory_order_relaxed);
  }
}

uint64_t SnapshotStore::delta_triples() const {
  uint64_t n = 0;
  for (const auto& run : runs_) n += run->size();
  return n;
}

void SnapshotStore::Add(const Triple&) {
  throw std::logic_error("SnapshotStore is immutable; ingest via LiveStore");
}

void SnapshotStore::Scan(const TriplePattern& pattern, ScanCursor* cursor,
                         int lead) const {
  if (runs_.empty()) {
    base_->Scan(pattern, cursor, lead);
    return;
  }
  // Base and runs are all IndexStores, whose routing is a pure
  // function of (pattern, lead) — every source streams in the same
  // order, which is what makes the linear k-way merge below valid.
  ScanOrder order = base_->ScanOrderFor(pattern, lead);
  cursor->Reset(order);
  auto state = std::static_pointer_cast<MergeState>(cursor->ext_);
  if (state == nullptr) {
    state = std::make_shared<MergeState>();
    cursor->ext_ = state;
  }
  size_t k = runs_.size() + 1;
  state->cursors.resize(k);
  state->heads.resize(k);
  state->pos.assign(k, 0);
  base_->Scan(pattern, &state->cursors[0], lead);
  for (size_t i = 0; i < runs_.size(); ++i) {
    runs_[i]->Scan(pattern, &state->cursors[i + 1], lead);
  }
  for (size_t i = 0; i < k; ++i) {
    state->heads[i] = state->cursors[i].Next();
  }
  cursor->pattern_ = pattern;
  cursor->source_ = this;
  cursor->detail_ = state.get();
}

bool SnapshotStore::RefillScan(ScanCursor& cursor) const {
  auto* state =
      static_cast<MergeState*>(const_cast<void*>(cursor.detail_));
  const ScanOrder order = cursor.order();
  const size_t k = state->heads.size();
  auto& out = cursor.buffer_;
  out.clear();
  out.reserve(kMergeBlock);
  while (out.size() < kMergeBlock) {
    size_t min = k;
    for (size_t i = 0; i < k; ++i) {
      if (state->Exhausted(i)) continue;
      if (min == k || OrderLess(order, state->Head(i), state->Head(min))) {
        min = i;
      }
    }
    if (min == k) break;
    Triple next = state->Head(min);
    // Advance every source positioned on `next` — the winner plus any
    // duplicates (the commit-time dedup makes cross-source duplicates
    // impossible, but skipping them here keeps the stream a set even
    // if that invariant ever weakens).
    for (size_t i = 0; i < k; ++i) {
      if (!state->Exhausted(i) && state->Head(i) == next) {
        state->Advance(i);
      }
    }
    out.push_back(next);
  }
  return !out.empty();
}

ScanOrder SnapshotStore::ScanOrderFor(const TriplePattern& pattern,
                                      int lead) const {
  return base_->ScanOrderFor(pattern, lead);
}

bool SnapshotStore::ScanIsDirect(const TriplePattern& pattern) const {
  return runs_.empty() && base_->ScanIsDirect(pattern);
}

uint64_t SnapshotStore::Count(const TriplePattern& pattern) const {
  // Exact, not an upper bound: the commit path guarantees each triple
  // exists in exactly one of {base, runs...}.
  uint64_t n = base_->Count(pattern);
  for (const auto& run : runs_) n += run->Count(pattern);
  return n;
}

uint64_t SnapshotStore::MemoryBytes() const {
  uint64_t n = base_->MemoryBytes();
  for (const auto& run : runs_) n += run->MemoryBytes();
  return n;
}

bool SnapshotStore::Contains(const Triple& t) const {
  return Count({t.s, t.p, t.o}) != 0;
}

LiveStore::LiveStore() : LiveStore(Config()) {}

LiveStore::LiveStore(Config config)
    : LiveStore(nullptr, std::make_unique<Dictionary>(), config) {}

LiveStore::LiveStore(std::unique_ptr<Store> base,
                     std::unique_ptr<Dictionary> dict)
    : LiveStore(std::move(base), std::move(dict), Config()) {}

LiveStore::LiveStore(std::unique_ptr<Store> base,
                     std::unique_ptr<Dictionary> dict, Config config)
    : config_(config),
      dict_(std::move(dict)),
      pins_(std::make_shared<detail::PinTracker>()) {
  if (base == nullptr) {
    auto empty = std::make_unique<IndexStore>();
    empty->Finalize();
    base = std::move(empty);
  }
  if (std::string_view(base->Name()) != "index") {
    throw std::invalid_argument(
        "LiveStore base must be an index store (StoreKind::kIndex)");
  }
  std::shared_ptr<const Store> shared_base(std::move(base));
  auto snap = std::make_shared<SnapshotStore>(
      shared_base, std::vector<std::shared_ptr<const IndexStore>>{},
      /*epoch=*/0, /*generation=*/0, pins_);
  snap->size_ = shared_base->size();
  snap->stats_ =
      std::make_shared<const Stats>(Stats::Build(*shared_base, *dict_));
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const SnapshotStore>(std::move(snap)));
  if (config_.background_compaction) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
}

LiveStore::~LiveStore() {
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_ = true;
    }
    wake_cv_.notify_one();
    compactor_.join();
  }
}

std::shared_ptr<const SnapshotStore> LiveStore::Pin() const {
  return std::atomic_load(&snapshot_);
}

void LiveStore::Publish(std::shared_ptr<const SnapshotStore> snap) {
  std::atomic_store(&snapshot_, std::move(snap));
}

LiveStore::CommitResult LiveStore::IngestNTriples(std::string_view text) {
  std::unique_lock<std::mutex> lock(commit_mu_);
  // A malformed line throws out of here with nothing published; terms
  // already interned by earlier lines are harmless (the dictionary
  // only grows, and unreferenced terms are invisible to queries).
  std::vector<Triple> batch;
  uint64_t parsed = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    size_t end = (nl == std::string_view::npos) ? text.size() : nl;
    std::string_view line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    Triple t;
    if (ParseNTriplesLine(line, *dict_, &t)) {
      batch.push_back(t);
      ++parsed;
    }
    start = end + 1;
  }

  auto cur = std::atomic_load(&snapshot_);
  triples_parsed_.fetch_add(parsed, std::memory_order_relaxed);

  // Dedup within the batch, then against the snapshot being extended:
  // this is what keeps every triple in exactly one component and
  // Count()/size() exact across the composed store.
  std::sort(batch.begin(), batch.end(), SpoLess);
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  batch.erase(std::remove_if(batch.begin(), batch.end(),
                             [&](const Triple& t) { return cur->Contains(t); }),
              batch.end());

  CommitResult result;
  result.parsed = parsed;
  if (batch.empty()) {
    result.epoch = cur->epoch_;
    result.generation = cur->generation_;
    return result;
  }

  auto run = std::make_shared<IndexStore>();
  for (const Triple& t : batch) run->Add(t);
  run->Finalize();

  auto runs = cur->runs_;
  runs.push_back(std::move(run));
  size_t run_count = runs.size();
  auto snap = std::make_shared<SnapshotStore>(cur->base_, std::move(runs),
                                              cur->epoch_ + 1,
                                              cur->generation_ + 1, pins_);
  snap->size_ = cur->size_ + batch.size();
  // Planner statistics refresh per epoch, over the composed snapshot.
  snap->stats_ = std::make_shared<const Stats>(Stats::Build(*snap, *dict_));

  result.added = batch.size();
  result.epoch = snap->epoch_;
  result.generation = snap->generation_;
  Publish(std::move(snap));
  batches_.fetch_add(1, std::memory_order_relaxed);
  triples_added_.fetch_add(result.added, std::memory_order_relaxed);

  if (hook_) hook_(result.generation);

  if (compactor_.joinable() && run_count >= config_.compact_after_runs) {
    {
      std::lock_guard<std::mutex> wake(wake_mu_);
      compact_pending_ = true;
    }
    wake_cv_.notify_one();
  }
  return result;
}

void LiveStore::CompactNow() {
  // One compaction at a time; ingest keeps running — the heavy merge
  // below works off a pinned snapshot without holding the commit lock.
  std::lock_guard<std::mutex> compacting(compact_mu_);
  auto snap = Pin();
  if (snap->runs_.empty()) return;
  size_t consumed = snap->runs_.size();

  auto merged = std::make_shared<IndexStore>();
  if (fault::Probe(fault::Site::kLiveCompact).kind ==
      fault::Outcome::Kind::kFail) {
    throw std::bad_alloc();  // scripted allocation failure mid-merge
  }
  snap->Match(TriplePattern{}, [&](const Triple& t) {
    merged->Add(t);
    return true;
  });
  merged->Finalize();

  std::lock_guard<std::mutex> lock(commit_mu_);
  auto cur = std::atomic_load(&snapshot_);
  // Runs committed while we merged survive as the new snapshot's
  // suffix; the prefix [0, consumed) is exactly what `merged` holds
  // (runs are append-only between compactions, and this is the only
  // compactor).
  std::vector<std::shared_ptr<const IndexStore>> leftover(
      cur->runs_.begin() + static_cast<ptrdiff_t>(consumed),
      cur->runs_.end());
  auto next = std::make_shared<SnapshotStore>(std::move(merged),
                                              std::move(leftover),
                                              cur->epoch_ + 1,
                                              cur->generation_, pins_);
  // Content is unchanged: same size, same statistics, same data
  // generation — result caches stay warm across compaction.
  next->size_ = cur->size_;
  next->stats_ = cur->stats_;
  Publish(std::move(next));
  compactions_.fetch_add(1, std::memory_order_relaxed);
}

void LiveStore::CompactorLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [this] { return stop_ || compact_pending_; });
      if (stop_) return;
      compact_pending_ = false;
    }
    try {
      CompactNow();
    } catch (const std::exception&) {
      // Nothing was published: readers keep the last snapshot, and the
      // next commit past the run threshold wakes a retry.
      compaction_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void LiveStore::SetCommitHook(std::function<void(uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  hook_ = std::move(hook);
}

IngestStats LiveStore::ingest_stats() const {
  auto snap = Pin();
  IngestStats stats;
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.triples_added = triples_added_.load(std::memory_order_relaxed);
  stats.triples_parsed = triples_parsed_.load(std::memory_order_relaxed);
  stats.epochs = snap->epoch();
  stats.generation = snap->generation();
  stats.compactions = compactions_.load(std::memory_order_relaxed);
  stats.compaction_failures =
      compaction_failures_.load(std::memory_order_relaxed);
  stats.delta_runs = snap->delta_runs();
  stats.delta_triples = snap->delta_triples();
  stats.pinned_snapshots = pins_->live.load(std::memory_order_relaxed);
  stats.pinned_high_water = pins_->high_water.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace sp2b::rdf
