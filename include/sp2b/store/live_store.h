// The live-update layer on top of the immutable hexastore: a
// LiveStore batches inserts into small immutable sorted runs
// (IndexStore deltas), publishes each committed batch as a new
// *epoch* — an immutable SnapshotStore composing (base, delta runs…)
// — and compacts runs back into one base permutation set off the
// query path.
//
//   writers   IngestNTriples() — parse, dedup, build one sorted run,
//             refresh planner statistics, publish epoch N+1. Writers
//             serialize on the commit lock; readers never take it.
//   readers   Pin() — grab the current epoch (a shared_ptr): every
//             scan of that snapshot sees exactly the triples committed
//             up to its epoch, forever, however long the query runs.
//             Old epochs retire automatically when the last reader
//             drops its pin (shared_ptr refcount); nothing blocks.
//   compactor a background thread (or CompactNow()) merges the delta
//             runs into a fresh base IndexStore and publishes an
//             epoch with zero runs — content-identical, so caches
//             keyed by the data generation stay valid and scans are
//             single zero-copy ranges again (merge joins re-enable).
//             A background merge that throws (bad_alloc) publishes
//             nothing, counts a compaction failure, and retries on
//             the next wake.
//
// Scans of a snapshot with delta runs flow through a k-way merging
// cursor that preserves the advertised ScanOrder (so order-aware
// merge joins still fire) and deduplicates on the fly; with zero
// runs the snapshot delegates to the base store wholesale, keeping
// the zero-copy direct-range contract.
//
// The global invariant making Count()/size() exact: a committed run
// contains only triples absent from every earlier epoch (the commit
// dedups the batch against the snapshot it extends), so each triple
// lives in exactly one of {base, runs...}.
#ifndef SP2B_STORE_LIVE_STORE_H_
#define SP2B_STORE_LIVE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "sp2b/store/dictionary.h"
#include "sp2b/store/index_store.h"
#include "sp2b/store/stats.h"
#include "sp2b/store/store.h"

namespace sp2b::rdf {

/// Counters snapshot rendered into /stats "ingest".
struct IngestStats {
  uint64_t batches = 0;        // committed update batches
  uint64_t triples_added = 0;  // new unique triples across all batches
  uint64_t triples_parsed = 0;  // batch lines parsed (incl. duplicates)
  uint64_t epochs = 0;         // current epoch number
  uint64_t generation = 0;     // data generation (compaction keeps it)
  uint64_t compactions = 0;
  uint64_t compaction_failures = 0;  // background merges that threw
  uint64_t delta_runs = 0;     // runs in the current epoch
  uint64_t delta_triples = 0;  // triples in those runs
  uint64_t pinned_snapshots = 0;   // snapshots alive right now (>= 1)
  uint64_t pinned_high_water = 0;  // most snapshots ever alive at once
};

namespace detail {
/// Shared between the LiveStore and every snapshot it published:
/// tracks how many epochs are alive concurrently (the LiveStore's own
/// current snapshot counts, so the floor is 1 while it exists).
struct PinTracker {
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> high_water{0};
};
}  // namespace detail

/// One immutable epoch: base store + delta runs, query-ready. All
/// Store methods are const and thread-safe; scans with runs present
/// use a buffered k-way merge (order-preserving, deduplicating), and
/// with no runs delegate straight to the base (zero-copy direct
/// ranges, parallel-morsel eligible).
class SnapshotStore final : public Store {
 public:
  SnapshotStore(std::shared_ptr<const Store> base,
                std::vector<std::shared_ptr<const IndexStore>> runs,
                uint64_t epoch, uint64_t generation,
                std::shared_ptr<detail::PinTracker> pins);
  ~SnapshotStore() override;

  /// Monotone epoch number; bumped by every commit and compaction.
  uint64_t epoch() const { return epoch_; }
  /// Data-content generation: bumped by commits only — compaction
  /// preserves it because the triple set is unchanged. The result
  /// cache keys on this.
  uint64_t generation() const { return generation_; }
  /// Per-epoch planner statistics (refreshed at commit time).
  const Stats* stats() const { return stats_.get(); }
  size_t delta_runs() const { return runs_.size(); }
  uint64_t delta_triples() const;

  // Store interface. Add/Finalize are forbidden: snapshots are
  // immutable by construction.
  void Add(const Triple& t) override;
  void Finalize() override {}
  uint64_t size() const override { return size_; }
  using Store::Scan;
  using Store::ScanOrderFor;
  void Scan(const TriplePattern& pattern, ScanCursor* cursor,
            int lead) const override;
  ScanOrder ScanOrderFor(const TriplePattern& pattern,
                         int lead) const override;
  bool ScanIsDirect(const TriplePattern& pattern) const override;
  uint64_t Count(const TriplePattern& pattern) const override;
  uint64_t MemoryBytes() const override;
  const char* Name() const override { return "snapshot"; }

  /// True when the triple is present in this epoch.
  bool Contains(const Triple& t) const;

 protected:
  bool RefillScan(ScanCursor& cursor) const override;

 private:
  friend class LiveStore;

  struct MergeState;  // per-cursor k-way merge state (lives in ext_)

  std::shared_ptr<const Store> base_;  // routing-compatible (IndexStore)
  std::vector<std::shared_ptr<const IndexStore>> runs_;
  std::shared_ptr<const Stats> stats_;
  uint64_t epoch_ = 0;
  uint64_t generation_ = 0;
  uint64_t size_ = 0;
  std::shared_ptr<detail::PinTracker> pins_;
};

/// The mutable front: owns the master dictionary, accepts batches,
/// publishes epochs, and runs the background compactor. Readers call
/// Pin() and the const dict(); everything else is the writer surface.
class LiveStore {
 public:
  struct Config {
    /// Compact once a commit leaves at least this many delta runs.
    size_t compact_after_runs = 8;
    /// Run the compactor on a background thread; off = caller drives
    /// CompactNow() (tests do, for determinism).
    bool background_compaction = true;
  };

  /// Empty store: epoch 0 is a finalized zero-triple base.
  LiveStore();
  explicit LiveStore(Config config);
  /// Adopts a bulk-loaded base. `base` must be finalized and routing-
  /// compatible with the delta runs (an IndexStore — what
  /// LoadDocument/GenerateDocument build for StoreKind::kIndex);
  /// throws std::invalid_argument otherwise.
  LiveStore(std::unique_ptr<Store> base, std::unique_ptr<Dictionary> dict);
  LiveStore(std::unique_ptr<Store> base, std::unique_ptr<Dictionary> dict,
            Config config);
  ~LiveStore();

  LiveStore(const LiveStore&) = delete;
  LiveStore& operator=(const LiveStore&) = delete;

  /// The master dictionary. Safe to read concurrently with ingest
  /// (see dictionary.h's concurrency contract).
  const Dictionary& dict() const { return *dict_; }

  /// Pins the current epoch. Never blocks; the snapshot stays valid
  /// (and its memory alive) until the returned pointer is dropped.
  std::shared_ptr<const SnapshotStore> Pin() const;

  struct CommitResult {
    uint64_t parsed = 0;  // non-blank N-Triples lines in the batch
    uint64_t added = 0;   // new unique triples committed
    uint64_t epoch = 0;
    uint64_t generation = 0;
  };

  /// Parses an N-Triples batch (interning new terms) and commits it
  /// as one delta run + new epoch. A batch that adds nothing (all
  /// duplicates) publishes no epoch. Throws NTriplesError on
  /// malformed input — the store is unchanged in that case.
  CommitResult IngestNTriples(std::string_view text);

  /// Synchronously merge all current delta runs into a fresh base and
  /// publish the compacted epoch. Content (and therefore the data
  /// generation) is unchanged. Safe to call concurrently with ingest.
  void CompactNow();

  /// `hook(generation)` fires inside every data commit, after the new
  /// epoch is published — the server uses it to invalidate its result
  /// cache. Set before serving traffic; not fired by compaction.
  void SetCommitHook(std::function<void(uint64_t)> hook);

  IngestStats ingest_stats() const;

 private:
  void CompactorLoop();
  void Publish(std::shared_ptr<const SnapshotStore> snap);

  Config config_;
  std::unique_ptr<Dictionary> dict_;
  std::shared_ptr<detail::PinTracker> pins_;

  mutable std::mutex commit_mu_;  // serializes writers; readers never take it
  std::shared_ptr<const SnapshotStore> snapshot_;  // atomic_load / atomic_store
  std::function<void(uint64_t)> hook_;

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> triples_added_{0};
  std::atomic<uint64_t> triples_parsed_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compaction_failures_{0};

  std::mutex compact_mu_;  // one compaction at a time (bg thread + CompactNow)
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_ = false;
  bool compact_pending_ = false;
  std::thread compactor_;
};

}  // namespace sp2b::rdf

#endif  // SP2B_STORE_LIVE_STORE_H_
