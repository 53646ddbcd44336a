// The physical-plan layer: operator classes, the cost-based plan
// builder, and the EXPLAIN renderer. Operators materialize their
// output once and form a DAG (union branches and correlated OPTIONAL
// right sides share the outer input),
// which makes per-operator actual cardinalities trivially available
// after execution.
#include "sp2b/sparql/plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "compiled.h"
#include "sp2b/exec/thread_pool.h"
#include "sp2b/fault.h"
#include "sp2b/report.h"

namespace sp2b::sparql {

namespace internal {

using rdf::kNoTerm;
using rdf::TermId;

namespace {

// Cost-model constants (relative per-row work): an index-nested-loop
// probe pays a store lookup per outer row; a hash join pays one build
// pass over the scan plus one cheap probe per outer row. Hash joins
// therefore win exactly when both inputs are large.
constexpr double kProbeCost = 4.0;
constexpr double kBuildCost = 1.25;
/// Per-input-row cost of advancing a galloping merge join: cheaper
/// than an index probe (no virtual dispatch, no re-descent — the
/// search window only ever shrinks) but not free.
constexpr double kMergeProbeCost = 1.0;

/// Morsel size of the parallel operators: the unit the pool's
/// dispenser hands to lanes. Large enough that per-morsel dispatch
/// and stitch costs vanish, small enough that a skewed morsel cannot
/// serialize the tail of a scan.
constexpr size_t kMorselSize = 16 * 1024;
/// Fan-out gates: estimated rows an input must clear before the
/// planner swaps in a parallel operator — below them, thread fan-out
/// costs more than the serial operator. threads == 1 bypasses the
/// operators entirely, reproducing the serial plans bit-for-bit.
constexpr double kParallelScanMinRows = 4096.0;
constexpr double kParallelJoinMinRows = 8192.0;
constexpr double kParallelUnionMinRows = 1024.0;
/// Parallel lanes and the hash-join probe kernel charge their
/// materialized rows against the live-row cap in increments of this
/// many rows (and re-check the deadline on the serial operators'
/// 1024-candidate cadence), so a runaway high-fanout morsel overshoots
/// max_rows by at most kLaneChargeRows x lanes instead of a whole
/// morsel's join output.
constexpr size_t kLaneChargeRows = 1024;

}  // namespace

/// Shared by every operator of one execution — including the lanes of
/// parallel operators (serial operators inside parallel union
/// branches run concurrently with this very context), so all counters
/// are relaxed atomics. On the serial path that costs one uncontended
/// relaxed RMW per row — low single-digit ns, a few percent of the
/// cheapest row's work. Parallel lanes and the hash-join probe kernel
/// batch-charge (per probed range, and within it every kLaneChargeRows
/// output rows) to keep the hot loops contention-free.
struct ExecCtx {
  const QueryLimits& limits;
  ExecStats& stats;
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> bindings{0};
  std::atomic<uint64_t> materialized{0};

  void CheckDeadline() const {
    if (limits.has_deadline &&
        std::chrono::steady_clock::now() > limits.deadline) {
      throw QueryTimeout();
    }
  }
  void Probe() {
    uint64_t n = probes.fetch_add(1, std::memory_order_relaxed) + 1;
    if ((n & 0xFF) == 0) CheckDeadline();
  }
  /// Every candidate row — including ones an inline filter is about to
  /// reject — counts as a binding and drives the periodic deadline
  /// check, matching the backtracking evaluator.
  void Candidate() {
    uint64_t n = bindings.fetch_add(1, std::memory_order_relaxed) + 1;
    if ((n & 0x3FF) == 0) {
      CheckDeadline();
      // The serial path has no morsels; its fault hook rides the same
      // periodic cadence as the deadline check.
      MorselProbe();
    }
  }
  /// Fault hook at morsel granularity. Injected latency sleeps inside
  /// Probe (the next periodic CheckDeadline then sees the lost time);
  /// a fail/errno outcome aborts the query as an internal engine
  /// error (-> 500 over the wire).
  void MorselProbe() {
    if (!fault::Armed()) return;
    fault::Outcome f = fault::Probe(fault::Site::kEngineMorsel);
    if (f.kind == fault::Outcome::Kind::kFail ||
        f.kind == fault::Outcome::Kind::kErrno) {
      throw std::runtime_error("injected engine fault");
    }
  }
  void Materialized() { Charge(1); }
  /// Batch counterparts used by parallel lanes and the hash-join probe
  /// kernel (one call per probed range).
  void ChargeProbes(uint64_t n) {
    probes.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeCandidates(uint64_t n) {
    bindings.fetch_add(n, std::memory_order_relaxed);
  }
  void Charge(uint64_t rows) {
    if (fault::Armed()) {
      // Table growth is where execution allocates; a scripted
      // allocation failure surfaces exactly like the row cap.
      fault::Outcome f = fault::Probe(fault::Site::kPlanTableGrow);
      if (f.kind == fault::Outcome::Kind::kFail ||
          f.kind == fault::Outcome::Kind::kErrno) {
        throw QueryMemoryExhausted();
      }
    }
    uint64_t now = materialized.fetch_add(rows, std::memory_order_relaxed) +
                   rows;
    if (limits.max_rows != 0 && now > limits.max_rows) {
      throw QueryMemoryExhausted();
    }
  }
  void Deduct(uint64_t rows) {
    uint64_t cur = materialized.load(std::memory_order_relaxed);
    while (!materialized.compare_exchange_weak(
        cur, cur > rows ? cur - rows : 0, std::memory_order_relaxed)) {
    }
  }
  /// Folds the atomic counters into the caller-visible stats once the
  /// execution (or its exception) is over.
  void Flush() {
    stats.probes += probes.load(std::memory_order_relaxed);
    stats.bindings += bindings.load(std::memory_order_relaxed);
  }
};

/// Thrown by Append when an operator's row cap (LIMIT pushdown) is
/// reached; caught inside the capped operator's own Output so the
/// partial table stands as the result. Never escapes the plan layer.
struct LimitSatisfied {};

class Operator {
 public:
  Operator(std::string op, std::string detail, size_t width,
           std::vector<std::shared_ptr<Operator>> children)
      : op_(std::move(op)),
        detail_(std::move(detail)),
        width_(width),
        children_(std::move(children)),
        result_(width) {
    for (const auto& c : children_) ++c->pending_consumers_;
  }
  virtual ~Operator() = default;

  /// Materialize-once, and thread-safe: parallel union branches can
  /// race to demand a DAG-shared input, so the whole
  /// check-compute-mark sequence runs under the operator's mutex (the
  /// loser blocks, then returns the winner's table). Lock order
  /// always follows DAG edges parent -> child, so no cycle exists.
  const BindingTable& Output(ExecCtx& ctx) {
    std::lock_guard<std::mutex> lock(exec_mu_);
    if (!executed_) {
      result_.Reset(width_);
      if (row_cap_ != 0) {
        // LIMIT pushdown: the first row_cap_ rows are the exact
        // answer (no downstream ORDER BY/DISTINCT/aggregate), so the
        // capped operator stops computing mid-stream. Only this
        // operator catches — a cap never silences a child's throw,
        // because caps are only ever set on the root's child.
        try {
          Compute(ctx);
        } catch (const LimitSatisfied&) {
        }
      } else {
        Compute(ctx);
      }
      actual_rows_ = CountRows();
      executed_ = true;
      if (releases_children()) {
        for (const auto& c : children_) c->ConsumerDone(ctx);
      }
    }
    return result_;
  }

  /// A consumer finished reading this operator's table; once the last
  /// one is done the table frees eagerly, and its rows stop counting
  /// against the live-row cap — the cap tracks peak concurrent
  /// materialization, like the backtracking engine's result cap.
  void ConsumerDone(ExecCtx& ctx) {
    std::lock_guard<std::mutex> lock(exec_mu_);
    if (--pending_consumers_ == 0) {
      ctx.Deduct(result_.size());
      result_ = BindingTable(width_);
    }
  }

  /// Moves the materialized table out (root only; never on shared
  /// nodes). ProjectOp forwards to its child.
  virtual void TakeResult(BindingTable* out) { *out = std::move(result_); }

  /// Frees materialized tables bottom-up, keeping actual_rows_.
  void Release() {
    result_ = BindingTable(width_);
    for (const auto& c : children_) c->Release();
  }

  /// Fuses filters into this operator: rows failing them are dropped
  /// before materialization (cheaper than a downstream Filter node).
  void AttachFilters(std::vector<const CExpr*> filters,
                     const rdf::Dictionary& dict, std::string label) {
    inline_filters_.insert(inline_filters_.end(), filters.begin(),
                           filters.end());
    if (!eval_) eval_.emplace(dict);
    detail_ += " filter: " + std::move(label);
  }

  const std::string& op_name() const { return op_; }
  const std::string& detail() const { return detail_; }
  const std::vector<std::shared_ptr<Operator>>& children() const {
    return children_;
  }
  double est_rows = 0.0;
  uint64_t actual_rows() const { return actual_rows_; }
  void set_actual_rows(uint64_t n) { actual_rows_ = n; executed_ = true; }
  bool executed() const { return executed_; }

  /// Caps this operator's materialization at `n` rows (0 = unlimited).
  /// Set by the builder on the root's child for LIMIT pushdown.
  void set_row_cap(uint64_t n) { row_cap_ = n; }

 protected:
  virtual void Compute(ExecCtx& ctx) = 0;

  /// Rows this operator reports as its actual cardinality.
  virtual uint64_t CountRows() const { return result_.size(); }

  /// Pass-through operators (Project) keep their child's table alive.
  virtual bool releases_children() const { return true; }

  void Append(ExecCtx& ctx, const TermId* row) {
    ctx.Candidate();
    if (!PassesInlineFilters(row)) return;
    result_.Append(row);
    ctx.Materialized();
    // Serial path only: parallel lanes collect into lane-local tables
    // and stitch, so a cap can never throw across threads.
    if (row_cap_ != 0 && result_.size() >= row_cap_) throw LimitSatisfied{};
  }

  /// True when `row` passes every fused inline filter. Safe to call
  /// from parallel lanes: filter evaluation is stateless over the
  /// const dictionary.
  bool PassesInlineFilters(const TermId* row) const {
    for (const CExpr* f : inline_filters_) {
      if (!eval_->EvalBool(*f, row)) return false;
    }
    return true;
  }

  /// Stitches per-morsel lane outputs into result_ in morsel order —
  /// the materialized table is byte-identical to the serial
  /// operator's. Rows were already charged by the lanes; they merely
  /// move, so no cap accounting here.
  void StitchParts(std::vector<BindingTable>& parts) {
    size_t total = 0;
    for (const BindingTable& part : parts) total += part.size();
    result_.Reserve(total);
    for (BindingTable& part : parts) {
      result_.AppendFrom(part);
      part = BindingTable();
    }
  }

  std::string op_;
  std::string detail_;
  size_t width_;
  std::vector<std::shared_ptr<Operator>> children_;
  std::vector<const CExpr*> inline_filters_;
  std::optional<FilterEval> eval_;
  BindingTable result_;
  uint64_t actual_rows_ = 0;
  uint64_t row_cap_ = 0;  // LIMIT pushdown; 0 = unlimited
  bool executed_ = false;
  int pending_consumers_ = 0;
  std::mutex exec_mu_;  // guards Output()/ConsumerDone() races
};

namespace {

/// One all-unbound row: the neutral input of a group's first join.
class SingletonOp : public Operator {
 public:
  explicit SingletonOp(size_t width) : Operator("Singleton", "", width, {}) {
    est_rows = 1.0;
  }

 protected:
  void Compute(ExecCtx& ctx) override {
    std::vector<TermId> row(width_, kNoTerm);
    Append(ctx, row.data());
  }
};

/// Component of a triple by pattern position (0 = s, 1 = p, 2 = o).
inline TermId Component(const rdf::Triple& t, int pos) {
  return pos == 0 ? t.s : pos == 1 ? t.p : t.o;
}

/// Binds the triples of one contiguous run into `row`: the pattern's
/// variable slots take each triple's components (repeated variables
/// within the pattern must agree), `emit` fires per compatible
/// triple, and the touched slots are restored afterwards. The
/// per-triple core of both the cursor-driven scans and the parallel
/// morsel lanes.
template <typename EmitFn>
void BindRangeInto(const CPattern& pattern, const rdf::Triple* begin,
                   const rdf::Triple* end, std::vector<TermId>& row,
                   const EmitFn& emit) {
  for (const rdf::Triple* cur = begin; cur != end; ++cur) {
    TermId values[3] = {cur->s, cur->p, cur->o};
    int bound_here[3];
    int n_bound = 0;
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      int slot = pattern.t[i].slot;
      if (slot < 0) continue;
      if (row[slot] == kNoTerm) {
        row[slot] = values[i];
        bound_here[n_bound++] = slot;
      } else if (row[slot] != values[i]) {
        ok = false;  // repeated variable mismatch within the pattern
      }
    }
    if (ok) emit();
    for (int i = n_bound - 1; i >= 0; --i) row[bound_here[i]] = kNoTerm;
  }
}

/// Shared scan core: iterates the store's block scan of `tp` — raw
/// pointer runs, no per-triple callback — binding the pattern's
/// variable slots into `row`, calling `emit` per compatible triple.
/// The cursor is caller-owned so nested-loop probes reuse one buffer
/// across probes.
template <typename EmitFn>
void ScanPatternInto(const rdf::Store& store, const CPattern& pattern,
                     const rdf::TriplePattern& tp, rdf::ScanCursor& cursor,
                     std::vector<TermId>& row, const EmitFn& emit) {
  store.Scan(tp, &cursor);
  for (rdf::TripleBlock b = cursor.Next(); !b.empty(); b = cursor.Next()) {
    BindRangeInto(pattern, b.begin(), b.end(), row, emit);
  }
}

/// First index >= `from` in the block whose `pos` component reaches
/// `key`: exponential probing to bound the run, then binary search
/// inside the bound — the galloping primitive of the merge joins.
inline size_t GallopBlock(const rdf::TripleBlock& b, size_t from, int pos,
                          TermId key) {
  if (from >= b.size || Component(b.data[from], pos) >= key) return from;
  size_t bound = 1;
  while (from + bound < b.size &&
         Component(b.data[from + bound], pos) < key) {
    bound <<= 1;
  }
  const rdf::Triple* first = b.data + from + (bound >> 1);
  const rdf::Triple* last = b.data + std::min(b.size, from + bound);
  auto it = std::lower_bound(
      first, last, key,
      [pos](const rdf::Triple& t, TermId k) { return Component(t, pos) < k; });
  return static_cast<size_t>(it - b.data);
}

class IndexScanOp : public Operator {
 public:
  IndexScanOp(std::string detail, size_t width, const rdf::Store& store,
              const CPattern& pattern)
      : Operator("IndexScan", std::move(detail), width, {}),
        store_(store),
        pattern_(pattern) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    rdf::TriplePattern tp;
    if (!ConstTriplePattern(pattern_, &tp)) return;  // absent constant
    ctx.Probe();
    std::vector<TermId> row(width_, kNoTerm);
    // Batch-at-a-time: each block is bound and filtered (inline
    // filters run inside Append) in one tight loop over the range.
    ScanPatternInto(store_, pattern_, tp, cursor_, row,
                    [&] { Append(ctx, row.data()); });
  }

 private:
  const rdf::Store& store_;
  CPattern pattern_;
  rdf::ScanCursor cursor_;
};

/// Morsel-driven parallel scan of a zero-copy range: the matching
/// range splits into fixed-size morsels handed to lanes by the
/// pool's dynamic dispenser; each lane binds its morsels into a
/// lane-local row and collects survivors into a per-morsel table,
/// and the tables stitch back in morsel order — the materialized
/// output is byte-identical to the serial IndexScan's. Chosen only
/// when the store serves the pattern as one contiguous block
/// (ScanIsDirect) and the estimate clears the fan-out gate.
class ParallelScanOp : public Operator {
 public:
  ParallelScanOp(std::string detail, size_t width, const rdf::Store& store,
                 const CPattern& pattern, int threads)
      : Operator("ParallelScan[" + std::to_string(threads) + "]",
                 std::move(detail), width, {}),
        store_(store),
        pattern_(pattern),
        threads_(threads) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    rdf::TriplePattern tp;
    if (!ConstTriplePattern(pattern_, &tp)) return;  // absent constant
    ctx.Probe();
    rdf::ScanCursor cursor;
    store_.Scan(tp, &cursor);
    if (!cursor.direct()) {
      // Defensive: the planner gates on ScanIsDirect, but a buffered
      // answer still executes correctly — sequentially.
      std::vector<TermId> row(width_, kNoTerm);
      ScanPatternInto(store_, pattern_, tp, cursor, row,
                      [&] { Append(ctx, row.data()); });
      return;
    }
    const rdf::TripleBlock range = cursor.DirectRange();
    size_t morsels = (range.size + kMorselSize - 1) / kMorselSize;
    std::vector<BindingTable> parts(morsels);
    exec::ThreadPool::Shared().ParallelFor(morsels, threads_, [&](size_t m) {
      ctx.CheckDeadline();
      ctx.MorselProbe();
      BindingTable& out = parts[m];
      out.Reset(width_);
      std::vector<TermId> row(width_, kNoTerm);
      const rdf::Triple* begin = range.data + m * kMorselSize;
      const rdf::Triple* end =
          range.data + std::min(range.size, (m + 1) * kMorselSize);
      uint64_t candidates = 0;
      size_t charged = 0;
      BindRangeInto(pattern_, begin, end, row, [&] {
        if ((++candidates & 0x3FF) == 0) ctx.CheckDeadline();
        if (PassesInlineFilters(row.data())) {
          out.Append(row.data());
          if (out.size() - charged >= kLaneChargeRows) {
            ctx.Charge(out.size() - charged);  // incremental: cap holds
            charged = out.size();
          }
        }
      });
      ctx.ChargeCandidates(candidates);
      ctx.Charge(out.size() - charged);  // lane rows count until stitched
    });
    StitchParts(parts);
  }

 private:
  const rdf::Store& store_;
  CPattern pattern_;
  int threads_;
};

/// Probes the store once per input row with the row's bindings
/// substituted into the pattern — the triple-at-a-time extension the
/// backtracking engine runs, as an explicit operator.
class IndexNestedLoopJoinOp : public Operator {
 public:
  IndexNestedLoopJoinOp(std::string detail, size_t width,
                        const rdf::Store& store,
                        std::shared_ptr<Operator> input,
                        const CPattern& pattern)
      : Operator("IndexNestedLoopJoin", std::move(detail), width,
                 {std::move(input)}),
        store_(store),
        pattern_(pattern) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& in = children_[0]->Output(ctx);
    for (int i = 0; i < 3; ++i) {
      if (pattern_.t[i].slot < 0 && pattern_.t[i].id == kMissing) return;
    }
    std::vector<TermId> row(width_, kNoTerm);
    for (size_t r = 0; r < in.size(); ++r) {
      const TermId* left = in.Row(r);
      rdf::TriplePattern tp;
      TermId* fields[3] = {&tp.s, &tp.p, &tp.o};
      for (int i = 0; i < 3; ++i) {
        *fields[i] = pattern_.t[i].slot < 0 ? pattern_.t[i].id
                                            : left[pattern_.t[i].slot];
      }
      ctx.Probe();
      std::copy(left, left + width_, row.begin());
      ScanPatternInto(store_, pattern_, tp, cursor_, row,
                      [&] { Append(ctx, row.data()); });
    }
  }

 private:
  const rdf::Store& store_;
  CPattern pattern_;
  rdf::ScanCursor cursor_;
};

/// Generic merge of two full-width rows: every slot bound on both
/// sides must agree (shared certain slots are join keys and agree by
/// construction; shared possibly-unbound slots get the compatibility
/// check the backtracking engine performs through its shared row).
bool MergeRows(const TermId* l, const TermId* r, size_t width,
               const std::vector<std::pair<int, int>>& keys, TermId* out) {
  for (const auto& [ls, rs] : keys) {
    if (l[ls] != r[rs]) return false;  // hash-collision / seed-key check
  }
  for (size_t i = 0; i < width; ++i) {
    TermId lv = l[i], rv = r[i];
    if (lv != kNoTerm && rv != kNoTerm && lv != rv) return false;
    out[i] = lv != kNoTerm ? lv : rv;
  }
  return true;
}

/// The build side of every hash operator: a CSR index over the build
/// rows' key hashes. A stable counting sort groups the row ids by
/// `hash & mask` in build-row order, with `start_` bounding each
/// bucket, so a probe walks one contiguous run and meets its matching
/// rows in build-row order — the order serial and parallel probes
/// share. Read-only once built: any number of lanes probe it at once.
class JoinIndex {
 public:
  explicit JoinIndex(const std::vector<uint64_t>& hashes) {
    size_t buckets = 1;
    while (buckets < hashes.size()) buckets <<= 1;
    mask_ = buckets - 1;
    start_.assign(buckets + 1, 0);
    for (uint64_t h : hashes) ++start_[h & mask_];
    for (size_t b = 1; b <= buckets; ++b) start_[b] += start_[b - 1];
    // start_[b] is now bucket b's end; filling backwards leaves it at
    // the bucket's start with the rows in ascending order.
    entries_.resize(hashes.size());
    for (size_t i = hashes.size(); i-- > 0;) {
      entries_[--start_[hashes[i] & mask_]] = {
          static_cast<uint32_t>(hashes[i] >> 32), static_cast<uint32_t>(i)};
    }
  }

  /// Calls `fn(row)` for each build row whose hash may equal `h`, in
  /// build-row order, until `fn` returns false. Callers verify the
  /// key itself (MergeRows does).
  template <typename Fn>
  void ForEach(uint64_t h, const Fn& fn) const {
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    const Entry* e = entries_.data() + start_[h & mask_];
    const Entry* end = entries_.data() + start_[(h & mask_) + 1];
    for (; e != end; ++e) {
      if (e->tag == tag && !fn(e->row)) return;
    }
  }

 private:
  struct Entry {
    uint32_t tag;  // high hash bits; the low ones pick the bucket
    uint32_t row;
  };
  uint64_t mask_ = 0;
  std::vector<uint32_t> start_;
  std::vector<Entry> entries_;
};

/// Hash join, building on the smaller input. With threads > 1
/// (PartitionedHashJoin) the build rows' key hashes are computed in
/// parallel morsels, and the probe side streams through in morsels
/// whose lanes all probe the one shared, read-only index; per-morsel
/// outputs stitch in morsel order — the table the serial operator
/// materializes.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::string detail, size_t width, std::shared_ptr<Operator> left,
             std::shared_ptr<Operator> right,
             std::vector<std::pair<int, int>> keys, int threads)
      : Operator(threads > 1 ? "PartitionedHashJoin[" +
                                   std::to_string(threads) + "]"
                             : "HashJoin",
                 std::move(detail), width,
                 {std::move(left), std::move(right)}),
        keys_(std::move(keys)),
        threads_(threads) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& L = children_[0]->Output(ctx);
    const BindingTable& R = children_[1]->Output(ctx);
    const bool build_right = R.size() <= L.size();
    const BindingTable& B = build_right ? R : L;
    const BindingTable& P = build_right ? L : R;
    std::vector<int> bslots, pslots;
    for (const auto& [ls, rs] : keys_) {
      bslots.push_back(build_right ? rs : ls);
      pslots.push_back(build_right ? ls : rs);
    }
    std::vector<uint64_t> hashes(B.size());
    auto hash_rows = [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hashes[i] = HashSlots(B.Row(i), bslots);
    };
    if (threads_ == 1) {
      hash_rows(0, B.size());
      ProbeRange(ctx, JoinIndex(hashes), B, P, build_right, pslots, 0,
                 P.size(), result_, row_cap_);
      return;
    }
    exec::ThreadPool& pool = exec::ThreadPool::Shared();
    pool.ParallelFor(Morsels(B.size()), threads_, [&](size_t m) {
      ctx.CheckDeadline();
      ctx.MorselProbe();
      hash_rows(m * kMorselSize, std::min(B.size(), (m + 1) * kMorselSize));
    });
    const JoinIndex index(hashes);
    std::vector<BindingTable> parts(Morsels(P.size()));
    pool.ParallelFor(parts.size(), threads_, [&](size_t m) {
      ctx.CheckDeadline();
      ctx.MorselProbe();
      parts[m].Reset(width_);
      ProbeRange(ctx, index, B, P, build_right, pslots, m * kMorselSize,
                 std::min(P.size(), (m + 1) * kMorselSize), parts[m],
                 /*cap=*/0);
    });
    StitchParts(parts);
  }

 private:
  static size_t Morsels(size_t rows) {
    return (rows + kMorselSize - 1) / kMorselSize;
  }

  /// The probe kernel of both paths: rows [lo, hi) of `P` append their
  /// merged rows that pass the inline filters to `out`, charged in
  /// batches. The deadline and the morsel fault hook run every 1024
  /// candidates; a nonzero `cap` (LIMIT pushdown) ends the probe.
  void ProbeRange(ExecCtx& ctx, const JoinIndex& index, const BindingTable& B,
                  const BindingTable& P, bool build_right,
                  const std::vector<int>& pslots, size_t lo, size_t hi,
                  BindingTable& out, uint64_t cap) const {
    std::vector<TermId> row(width_, kNoTerm);
    uint64_t candidates = 0;
    size_t charged = out.size();
    auto settle = [&](size_t probes) {
      ctx.ChargeProbes(probes);
      ctx.ChargeCandidates(candidates);
      ctx.Charge(out.size() - charged);
    };
    for (size_t j = lo; j < hi; ++j) {
      if (((j - lo) & 0x3FF) == 0x3FF) ctx.CheckDeadline();
      const TermId* prow = P.Row(j);
      index.ForEach(HashSlots(prow, pslots), [&](uint32_t b) {
        const TermId* brow = B.Row(b);
        if (!MergeRows(build_right ? prow : brow, build_right ? brow : prow,
                       width_, keys_, row.data())) {
          return true;
        }
        if ((++candidates & 0x3FF) == 0) {
          ctx.CheckDeadline();
          ctx.MorselProbe();
        }
        if (!PassesInlineFilters(row.data())) return true;
        out.Append(row.data());
        if (out.size() - charged >= kLaneChargeRows) {
          ctx.Charge(out.size() - charged);  // incremental: cap holds
          charged = out.size();
        }
        if (cap != 0 && out.size() >= cap) {
          settle(j - lo + 1);
          throw LimitSatisfied{};
        }
        return true;
      });
    }
    settle(hi - lo);
  }

  std::vector<std::pair<int, int>> keys_;  // (left slot, right slot)
  int threads_;
};

/// First row >= `from` whose `slot` value reaches `key` (exponential
/// search over a key-sorted BindingTable).
size_t GallopRows(const BindingTable& t, size_t from, int slot, TermId key) {
  if (from >= t.size() || t.Row(from)[slot] >= key) return from;
  size_t bound = 1;
  while (from + bound < t.size() && t.Row(from + bound)[slot] < key) {
    bound <<= 1;
  }
  size_t lo = from + (bound >> 1);
  size_t hi = std::min(t.size(), from + bound);
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (t.Row(mid)[slot] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Sort-merge join: both inputs arrive sorted on the join key (the
/// planner tracked the scans' physical order to guarantee it), so the
/// operator zips them with galloping advances and emits the product
/// of each equal-key run — no hash table is ever built. Remaining
/// shared variables are verified by the generic row merge.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(std::string detail, size_t width, std::shared_ptr<Operator> left,
              std::shared_ptr<Operator> right,
              std::vector<std::pair<int, int>> keys, int lkey, int rkey)
      : Operator("MergeJoin", std::move(detail), width,
                 {std::move(left), std::move(right)}),
        keys_(std::move(keys)),
        lkey_(lkey),
        rkey_(rkey) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& L = children_[0]->Output(ctx);
    const BindingTable& R = children_[1]->Output(ctx);
    std::vector<TermId> row(width_, kNoTerm);
    size_t i = 0, j = 0;
    while (i < L.size() && j < R.size()) {
      ctx.Probe();
      TermId a = L.Row(i)[lkey_];
      TermId c = R.Row(j)[rkey_];
      if (a < c) {
        i = GallopRows(L, i, lkey_, c);
        continue;
      }
      if (c < a) {
        j = GallopRows(R, j, rkey_, a);
        continue;
      }
      size_t i2 = i + 1;
      while (i2 < L.size() && L.Row(i2)[lkey_] == a) ++i2;
      size_t j2 = j + 1;
      while (j2 < R.size() && R.Row(j2)[rkey_] == a) ++j2;
      for (size_t x = i; x < i2; ++x) {
        const TermId* lrow = L.Row(x);
        for (size_t y = j; y < j2; ++y) {
          if (MergeRows(lrow, R.Row(y), width_, keys_, row.data())) {
            Append(ctx, row.data());
          }
        }
      }
      i = i2;
      j = j2;
    }
  }

 private:
  std::vector<std::pair<int, int>> keys_;  // all shared (left, right) slots
  int lkey_, rkey_;                        // the leading sorted key
};

/// Order-aware join of a key-sorted input against the key-sorted scan
/// range of a pattern: both sides advance monotonically and the scan
/// side gallops across non-matching runs, so a selective input
/// touches only a logarithmic slice of the range — no hash table, no
/// per-row index probe, and the pattern's range is never materialized.
class MergeScanJoinOp : public Operator {
 public:
  MergeScanJoinOp(std::string detail, size_t width, const rdf::Store& store,
                  std::shared_ptr<Operator> input, const CPattern& pattern,
                  int key_slot, int key_pos)
      : Operator("MergeScanJoin", std::move(detail), width,
                 {std::move(input)}),
        store_(store),
        pattern_(pattern),
        key_slot_(key_slot),
        key_pos_(key_pos) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& in = children_[0]->Output(ctx);
    rdf::TriplePattern tp;
    if (!ConstTriplePattern(pattern_, &tp)) return;  // absent constant
    if (in.size() == 0) return;
    ctx.Probe();
    store_.Scan(tp, &cursor_, key_pos_);
    rdf::TripleBlock b = cursor_.Next();
    size_t bi = 0;
    std::vector<TermId> row(width_, kNoTerm);
    size_t r = 0;
    while (r < in.size() && !b.empty()) {
      TermId key = in.Row(r)[key_slot_];
      size_t r2 = r + 1;
      while (r2 < in.size() && in.Row(r2)[key_slot_] == key) ++r2;
      // Skip whole blocks strictly below the key, then gallop to the
      // start of the key's run inside the block.
      while (!b.empty() &&
             Component(b.data[b.size - 1], key_pos_) < key) {
        ctx.Probe();
        b = cursor_.Next();
        bi = 0;
      }
      if (b.empty()) break;
      bi = GallopBlock(b, bi, key_pos_, key);
      // Emit the run of equal-key triples (it may span blocks) against
      // every input row of the group.
      while (!b.empty()) {
        if (bi >= b.size) {
          b = cursor_.Next();
          bi = 0;
          continue;
        }
        const rdf::Triple& t = b.data[bi];
        if (Component(t, key_pos_) != key) break;
        TermId values[3] = {t.s, t.p, t.o};
        for (size_t x = r; x < r2; ++x) {
          const TermId* left = in.Row(x);
          std::copy(left, left + width_, row.begin());
          bool ok = true;
          for (int i = 0; i < 3 && ok; ++i) {
            int slot = pattern_.t[i].slot;
            if (slot < 0) continue;
            if (row[slot] == kNoTerm) {
              row[slot] = values[i];
            } else if (row[slot] != values[i]) {
              ok = false;  // other shared variable disagrees
            }
          }
          if (ok) Append(ctx, row.data());
        }
        ++bi;
      }
      r = r2;
    }
  }

 private:
  const rdf::Store& store_;
  CPattern pattern_;
  int key_slot_;  // input slot the rows are sorted on
  int key_pos_;   // pattern position holding that variable
  rdf::ScanCursor cursor_;
};

/// Collects the run of triples whose `pos` component equals `key`,
/// continuing across block boundaries; leaves (b, i) just past it.
void CollectRun(rdf::ScanCursor& cursor, rdf::TripleBlock& b, size_t& i,
                int pos, TermId key, std::vector<rdf::Triple>& out) {
  out.clear();
  while (!b.empty()) {
    if (i >= b.size) {
      b = cursor.Next();
      i = 0;
      continue;
    }
    if (Component(b.data[i], pos) != key) break;
    out.push_back(b.data[i++]);
  }
}

/// Galloping intersection of two key-sorted scan ranges — the
/// subject-star primitive: neither input is materialized. Both
/// cursors advance monotonically, each leaping over non-matching runs
/// by exponential search, and only the equal-key runs are expanded.
class ScanMergeJoinOp : public Operator {
 public:
  ScanMergeJoinOp(std::string detail, size_t width, const rdf::Store& store,
                  const CPattern& pa, int pa_pos, const CPattern& pb,
                  int pb_pos)
      : Operator("ScanMergeJoin", std::move(detail), width, {}),
        store_(store),
        pa_(pa),
        pb_(pb),
        pa_pos_(pa_pos),
        pb_pos_(pb_pos) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    rdf::TriplePattern ta, tb;
    if (!ConstTriplePattern(pa_, &ta) || !ConstTriplePattern(pb_, &tb)) {
      return;  // absent constant: no matches
    }
    ctx.Probe();
    store_.Scan(ta, &ca_, pa_pos_);
    store_.Scan(tb, &cb_, pb_pos_);
    rdf::TripleBlock ba = ca_.Next(), bb = cb_.Next();
    size_t ia = 0, ib = 0;
    std::vector<TermId> row(width_, kNoTerm);
    while (!ba.empty() && !bb.empty()) {
      if (ia >= ba.size) {
        ba = ca_.Next();
        ia = 0;
        continue;
      }
      if (ib >= bb.size) {
        bb = cb_.Next();
        ib = 0;
        continue;
      }
      TermId ka = Component(ba.data[ia], pa_pos_);
      TermId kb = Component(bb.data[ib], pb_pos_);
      if (ka != kb) {
        // Advance the lagging side: skip whole blocks below the other
        // side's key, then gallop inside the block.
        rdf::ScanCursor& c = ka < kb ? ca_ : cb_;
        rdf::TripleBlock& b = ka < kb ? ba : bb;
        size_t& i = ka < kb ? ia : ib;
        int pos = ka < kb ? pa_pos_ : pb_pos_;
        TermId key = ka < kb ? kb : ka;
        while (!b.empty() && Component(b.data[b.size - 1], pos) < key) {
          ctx.Probe();
          b = c.Next();
          i = 0;
        }
        if (b.empty()) break;
        i = GallopBlock(b, i, pos, key);
        continue;
      }
      CollectRun(ca_, ba, ia, pa_pos_, ka, run_a_);
      CollectRun(cb_, bb, ib, pb_pos_, ka, run_b_);
      ctx.Probe();
      for (const rdf::Triple& x : run_a_) {
        TermId va[3] = {x.s, x.p, x.o};
        int bound_a[3];
        int na = 0;
        bool ok_a = true;
        for (int i = 0; i < 3 && ok_a; ++i) {
          int slot = pa_.t[i].slot;
          if (slot < 0) continue;
          if (row[slot] == kNoTerm) {
            row[slot] = va[i];
            bound_a[na++] = slot;
          } else if (row[slot] != va[i]) {
            ok_a = false;  // repeated variable mismatch
          }
        }
        if (ok_a) {
          for (const rdf::Triple& y : run_b_) {
            TermId vb[3] = {y.s, y.p, y.o};
            int bound_b[3];
            int nb = 0;
            bool ok = true;
            for (int i = 0; i < 3 && ok; ++i) {
              int slot = pb_.t[i].slot;
              if (slot < 0) continue;
              if (row[slot] == kNoTerm) {
                row[slot] = vb[i];
                bound_b[nb++] = slot;
              } else if (row[slot] != vb[i]) {
                ok = false;  // other shared variable disagrees
              }
            }
            if (ok) Append(ctx, row.data());
            for (int i = nb - 1; i >= 0; --i) row[bound_b[i]] = kNoTerm;
          }
        }
        for (int i = na - 1; i >= 0; --i) row[bound_a[i]] = kNoTerm;
      }
    }
  }

 private:
  const rdf::Store& store_;
  CPattern pa_, pb_;
  int pa_pos_, pb_pos_;  // key position within each pattern
  rdf::ScanCursor ca_, cb_;
  std::vector<rdf::Triple> run_a_, run_b_;  // equal-key run buffers
};

/// SPARQL OPTIONAL as a hash left-outer join: the right side is
/// evaluated standalone, hashed on the join keys (shared certainly
/// bound variables plus the seeds the semantic rewrite extracts from
/// equality filters); residual filters — the optional's filters that
/// reference outer variables — are join conditions, evaluated on the
/// merged candidate row exactly like the backtracking engine does. A
/// correlated OPTIONAL reuses it with the left rows' RowId as the only
/// key: its right side already extends those numbered rows.
///
/// In anti mode (`OPTIONAL {…} FILTER (!bound(?v))`, see BuildGroup)
/// it emits only the left rows no right row matches under that same
/// test, and stops probing a left row at its first match.
class LeftJoinOp : public Operator {
 public:
  LeftJoinOp(std::string detail, size_t width, std::shared_ptr<Operator> left,
             std::shared_ptr<Operator> right,
             std::vector<std::pair<int, int>> keys,
             std::vector<const CExpr*> residual, const rdf::Dictionary& dict,
             bool anti)
      : Operator(anti ? "AntiJoin" : "LeftJoin", std::move(detail), width,
                 {std::move(left), std::move(right)}),
        keys_(std::move(keys)),
        residual_(std::move(residual)),
        eval_(dict),
        anti_(anti) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& L = children_[0]->Output(ctx);
    const BindingTable& R = children_[1]->Output(ctx);
    std::vector<int> lslots, rslots;
    for (const auto& [ls, rs] : keys_) {
      lslots.push_back(ls);
      rslots.push_back(rs);
    }
    std::vector<uint64_t> hashes(R.size());
    for (size_t i = 0; i < R.size(); ++i) {
      hashes[i] = HashSlots(R.Row(i), rslots);
    }
    const JoinIndex index(hashes);
    std::vector<TermId> row(width_, kNoTerm);
    for (size_t j = 0; j < L.size(); ++j) {
      const TermId* lrow = L.Row(j);
      ctx.Probe();
      bool matched = false;
      index.ForEach(HashSlots(lrow, lslots), [&](uint32_t i) {
        if (!MergeRows(lrow, R.Row(i), width_, keys_, row.data())) {
          return true;
        }
        for (const CExpr* f : residual_) {
          if (!eval_.EvalBool(*f, row.data())) return true;
        }
        matched = true;
        if (anti_) return false;  // one match settles the left row
        Append(ctx, row.data());
        return true;
      });
      if (!matched) Append(ctx, lrow);
    }
  }

 private:
  std::vector<std::pair<int, int>> keys_;
  std::vector<const CExpr*> residual_;
  FilterEval eval_;
  bool anti_;
};

class FilterOp : public Operator {
 public:
  FilterOp(std::string detail, size_t width, std::shared_ptr<Operator> input,
           std::vector<const CExpr*> filters, const rdf::Dictionary& dict)
      : Operator("Filter", std::move(detail), width, {std::move(input)}),
        filters_(std::move(filters)),
        eval_(dict) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& in = children_[0]->Output(ctx);
    for (size_t r = 0; r < in.size(); ++r) {
      const TermId* row = in.Row(r);
      bool pass = true;
      for (const CExpr* f : filters_) {
        if (!eval_.EvalBool(*f, row)) {
          pass = false;
          break;
        }
      }
      if (pass) Append(ctx, row);
    }
  }

 private:
  std::vector<const CExpr*> filters_;
  FilterEval eval_;
};

class UnionOp : public Operator {
 public:
  UnionOp(size_t width, std::vector<std::shared_ptr<Operator>> branches)
      : Operator("Union", "", width, std::move(branches)) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    for (const auto& branch : children_) {
      const BindingTable& in = branch->Output(ctx);
      for (size_t r = 0; r < in.size(); ++r) Append(ctx, in.Row(r));
    }
  }
};

/// Union with branch-parallel execution: every branch subtree
/// materializes on its own lane. Branches legitimately share
/// operators (they extend the same outer chain — the plan is a DAG),
/// which is safe because Operator::Output materializes once under the
/// operator's mutex; nested parallel operators inside a branch run
/// inline on that branch's lane. The branch tables concatenate in
/// branch order afterwards, exactly like the serial Union.
class ParallelUnionOp : public Operator {
 public:
  ParallelUnionOp(size_t width,
                  std::vector<std::shared_ptr<Operator>> branches,
                  int threads)
      : Operator("ParallelUnion[" + std::to_string(threads) + "]", "",
                 width, std::move(branches)),
        threads_(threads) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    exec::ThreadPool::Shared().ParallelFor(
        children_.size(), threads_,
        [&](size_t b) { children_[b]->Output(ctx); });
    for (const auto& branch : children_) {
      const BindingTable& in = branch->Output(ctx);  // hits the cache
      for (size_t r = 0; r < in.size(); ++r) Append(ctx, in.Row(r));
    }
  }

 private:
  int threads_;
};

/// Applies the group's constant bindings (slot := const, from the
/// equality rewrite) and copy-outs (dst := src for variables unified
/// away by the rewrite) to every row.
class BindOp : public Operator {
 public:
  BindOp(std::string detail, size_t width, std::shared_ptr<Operator> input,
         std::vector<std::pair<int, TermId>> const_binds,
         std::vector<std::pair<int, int>> copy_outs)
      : Operator("Bind", std::move(detail), width, {std::move(input)}),
        const_binds_(std::move(const_binds)),
        copy_outs_(std::move(copy_outs)) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& in = children_[0]->Output(ctx);
    std::vector<TermId> row(width_, kNoTerm);
    for (size_t r = 0; r < in.size(); ++r) {
      const TermId* src = in.Row(r);
      std::copy(src, src + width_, row.begin());
      for (auto [slot, id] : const_binds_) row[slot] = id;
      for (auto [dst, s] : copy_outs_) {
        if (row[dst] == kNoTerm && row[s] != kNoTerm) row[dst] = row[s];
      }
      Append(ctx, row.data());
    }
  }

 private:
  std::vector<std::pair<int, TermId>> const_binds_;
  std::vector<std::pair<int, int>> copy_outs_;
};

/// Numbers its input rows 1, 2, ... into a hidden `#rN` slot: the
/// per-left-row key a correlated OPTIONAL joins its right side back
/// on, so duplicate left rows keep their own extensions.
class RowIdOp : public Operator {
 public:
  RowIdOp(std::string detail, size_t width, std::shared_ptr<Operator> input,
          int slot)
      : Operator("RowId", std::move(detail), width, {std::move(input)}),
        slot_(slot) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& in = children_[0]->Output(ctx);
    std::vector<TermId> row(width_, kNoTerm);
    for (size_t r = 0; r < in.size(); ++r) {
      const TermId* src = in.Row(r);
      std::copy(src, src + width_, row.begin());
      row[slot_] = static_cast<TermId>(r + 1);
      Append(ctx, row.data());
    }
  }

 private:
  int slot_;
};

/// Iterative transitive closure over a constant predicate (`p+` /
/// `p*`): for every input row it enumerates the closure pairs
/// compatible with the row's bindings, via the shared PathEval —
/// semi-naive frontier expansion over zero-copy scans, the same
/// fixed relation every backtracking engine level computes, so
/// results cannot depend on evaluation order. The probe direction is
/// chosen per row from the actually-bound side (forward from a bound
/// subject, backward from a bound object, full source enumeration
/// when neither is bound). Reachability sets are memoized across
/// input rows, cost-gated on the predicate's edge count so a huge
/// closure cannot hold every frontier resident at once.
class TransitiveClosureOp : public Operator {
 public:
  TransitiveClosureOp(std::string detail, size_t width,
                      const rdf::Store& store,
                      std::shared_ptr<Operator> input, const CPath& path)
      : Operator("TransitiveClosure", std::move(detail), width,
                 {std::move(input)}),
        eval_(store),
        path_(path) {}

 protected:
  void Compute(ExecCtx& ctx) override {
    const BindingTable& in = children_[0]->Output(ctx);
    if (path_.pred == kMissing || path_.subj.id == kMissing ||
        path_.obj.id == kMissing) {
      return;  // a constant absent from the dictionary never matches
    }
    const bool same_slot =
        path_.subj.slot >= 0 && path_.subj.slot == path_.obj.slot;
    memoize_ = eval_.EdgeCount(path_.pred) <= kClosureMemoMaxEdges;
    std::vector<TermId> row(width_, kNoTerm);
    std::vector<TermId> local;
    std::vector<TermId> sources;
    bool sources_ready = false;
    for (size_t r = 0; r < in.size(); ++r) {
      const TermId* src = in.Row(r);
      std::copy(src, src + width_, row.begin());
      TermId sv = path_.subj.slot < 0 ? path_.subj.id : row[path_.subj.slot];
      TermId ov = path_.obj.slot < 0 ? path_.obj.id : row[path_.obj.slot];
      auto emit = [&](TermId x, TermId y) {
        if (same_slot && x != y) return;
        if (path_.subj.slot >= 0) row[path_.subj.slot] = x;
        if (path_.obj.slot >= 0) row[path_.obj.slot] = y;
        Append(ctx, row.data());
      };
      if (sv != kNoTerm) {
        for (TermId y : Reach(ctx, sv, /*forward=*/true, &local)) {
          if (ov != kNoTerm && y != ov) continue;
          emit(sv, y);
        }
      } else if (ov != kNoTerm) {
        for (TermId x : Reach(ctx, ov, /*forward=*/false, &local)) {
          emit(x, ov);
        }
      } else {
        if (!sources_ready) {
          eval_.Sources(path_.pred, path_.reflexive, &sources);
          sources_ready = true;
        }
        for (TermId x : sources) {
          for (TermId y : Reach(ctx, x, /*forward=*/true, &local)) {
            emit(x, y);
          }
        }
      }
    }
  }

 private:
  /// Closure probe, memoized per (node, direction) under the edge
  /// gate; returns a reference valid until the next call.
  const std::vector<TermId>& Reach(ExecCtx& ctx, TermId node, bool forward,
                                   std::vector<TermId>* scratch) {
    ctx.Probe();
    if (!memoize_) {
      if (forward) {
        eval_.Forward(node, path_.pred, path_.reflexive, scratch);
      } else {
        eval_.Backward(node, path_.pred, path_.reflexive, scratch);
      }
      return *scratch;
    }
    auto& memo = forward ? fwd_ : bwd_;
    auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    std::vector<TermId> out;
    if (forward) {
      eval_.Forward(node, path_.pred, path_.reflexive, &out);
    } else {
      eval_.Backward(node, path_.pred, path_.reflexive, &out);
    }
    return memo.emplace(node, std::move(out)).first->second;
  }

  /// Memoization gate: closures over predicates with more edges than
  /// this probe per row instead of caching reachability sets.
  static constexpr uint64_t kClosureMemoMaxEdges = 1u << 20;

  PathEval eval_;
  CPath path_;
  bool memoize_ = true;
  std::unordered_map<TermId, std::vector<TermId>> fwd_, bwd_;
};

/// Root marker carrying the projection / solution-modifier label; it
/// forwards its child's table without copying. The engine overrides
/// its actual cardinality with the post-modifier result count.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::string detail, size_t width, std::shared_ptr<Operator> input)
      : Operator("Project", std::move(detail), width, {std::move(input)}) {}

  void TakeResult(BindingTable* out) override {
    children_[0]->TakeResult(out);
  }

 protected:
  void Compute(ExecCtx& ctx) override { children_[0]->Output(ctx); }
  uint64_t CountRows() const override {
    return children_[0]->actual_rows();
  }
  bool releases_children() const override { return false; }
};

}  // namespace

}  // namespace internal

// ---------------------------------------------------------------------------
// Plan builder
// ---------------------------------------------------------------------------

namespace internal {
namespace {

using rdf::TermId;

/// Abbreviates a dictionary term for plan labels: IRIs shrink to the
/// segment after the last '/' or '#', literals render quoted.
std::string ShortTerm(const rdf::Dictionary& dict, TermId id) {
  if (id == kMissing) return "<absent>";
  if (id == kNoTerm || static_cast<size_t>(id) > dict.size()) return "?";
  const rdf::Term& t = dict.Lookup(id);
  switch (t.type) {
    case rdf::TermType::kIri: {
      size_t cut = t.lexical.find_last_of("/#");
      std::string tail = cut == std::string::npos
                             ? t.lexical
                             : t.lexical.substr(cut + 1);
      return tail.empty() ? "<" + t.lexical + ">" : tail;
    }
    case rdf::TermType::kBlank:
      return "_:" + t.lexical;
    case rdf::TermType::kLiteral: {
      std::string lex = t.lexical.size() > 24
                            ? t.lexical.substr(0, 21) + "..."
                            : t.lexical;
      return '"' + lex + '"';
    }
  }
  return "?";
}

class PlanBuilder {
 public:
  PlanBuilder(CompiledQuery& q, const rdf::Store& store,
              const rdf::Dictionary& dict, const rdf::Stats* stats,
              bool merge_joins, int threads, const PlanScript* replay,
              PlanScript* record, uint64_t root_cap,
              const QueryLimits& limits)
      : q_(q),
        store_(store),
        dict_(dict),
        stats_(stats),
        width_(q.width),
        merge_joins_(merge_joins),
        threads_(threads < 1 ? 1 : threads),
        replay_(replay),
        record_(record),
        root_cap_(root_cap),
        limits_(limits) {}

  /// Plans the query once. The correlation analysis runs first, so the
  /// hidden `#rN` row-id slots of the kept plan are known and the row
  /// width is fixed before any operator captures it.
  std::shared_ptr<Operator> Build(const AstQuery& ast) {
    row_id_base_ = q_.var_names.size();
    // Slots the solution modifiers read (SELECT * reads them all).
    std::set<std::string> read(ast.group_by.begin(), ast.group_by.end());
    for (const SelectItem& item : ast.select) {
      read.insert({item.var, item.source_var});
    }
    for (const OrderKey& key : ast.order_by) read.insert(key.var);
    for (size_t slot = 0; slot < q_.var_names.size(); ++slot) {
      if (ast.select_all || read.count(q_.var_names[slot])) {
        modifier_slots_.insert(static_cast<int>(slot));
      }
    }
    row_ids_ = Analyze(q_.root, {}, {}, false, {}).row_ids;
    for (int i = 0; i < row_ids_; ++i) {
      q_.var_names.push_back("#r" + std::to_string(i));
    }
    q_.width = width_ = q_.var_names.size();
    Chain root = BuildGroup(q_.root, Singleton(), nullptr, {});
    std::string label = ProjectLabel(ast);
    if (root_cap_ > 0) {
      root.op->set_row_cap(root_cap_);
      label += " limit-pushdown";
    }
    auto project = std::make_shared<ProjectOp>(std::move(label), width_,
                                               root.op);
    project->est_rows = root.est;
    return project;
  }

 private:
  struct Chain {
    std::shared_ptr<Operator> op;
    std::set<int> certain;  // slots bound in every row
    std::set<int> scope;    // slots bound in at least some rows
    double est = 1.0;
    bool is_singleton = false;
    /// Slots the materialized rows are sorted by (lexicographic,
    /// leading first); empty when no order is known.
    std::vector<int> sort;
    std::map<int, double> distinct;  // slot -> distinct-value estimate
  };

  struct Pending {
    const CExpr* expr;
    std::set<int> vars;
  };

  Chain Singleton() {
    Chain c;
    c.op = std::make_shared<SingletonOp>(width_);
    c.is_singleton = true;
    return c;
  }

  // --- labels --------------------------------------------------------------

  std::string VarName(int slot) const { return "?" + q_.var_names[slot]; }

  std::string TermLabel(const CTerm& t) const {
    return t.slot >= 0 ? VarName(t.slot) : ShortTerm(dict_, t.id);
  }

  std::string PatternLabel(const CPattern& p) const {
    return TermLabel(p.t[0]) + " " + TermLabel(p.t[1]) + " " +
           TermLabel(p.t[2]);
  }

  std::string ExprLabel(const CExpr& e) const {
    switch (e.op) {
      case Expr::kAnd:
      case Expr::kOr: {
        std::string sep = e.op == Expr::kAnd ? " && " : " || ";
        std::string out = "(";
        for (size_t i = 0; i < e.kids.size(); ++i) {
          if (i) out += sep;
          out += ExprLabel(e.kids[i]);
        }
        return out + ")";
      }
      case Expr::kNot:
        return "!" + ExprLabel(e.kids[0]);
      case Expr::kBound:
        return "bound(" + VarName(e.slot) + ")";
      case Expr::kVar:
        return VarName(e.slot);
      case Expr::kConst:
        return e.const_is_iri ? ShortTerm(dict_, e.const_id)
                              : '"' + e.const_lex + '"';
      default: {
        const char* sym = e.op == Expr::kEq   ? " = "
                          : e.op == Expr::kNe ? " != "
                          : e.op == Expr::kLt ? " < "
                          : e.op == Expr::kLe ? " <= "
                          : e.op == Expr::kGt ? " > "
                                              : " >= ";
        return ExprLabel(e.kids[0]) + sym + ExprLabel(e.kids[1]);
      }
    }
  }

  std::string KeysLabel(const std::vector<std::pair<int, int>>& keys) const {
    std::string out = "[";
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i) out += ", ";
      if (keys[i].first == keys[i].second) {
        out += VarName(keys[i].first);
      } else {
        out += VarName(keys[i].first) + "=" + VarName(keys[i].second);
      }
    }
    return out + "]";
  }

  std::string ProjectLabel(const AstQuery& ast) const {
    std::string out;
    if (ast.form == AstQuery::kAsk) {
      out = "ASK";
    } else if (ast.select_all) {
      out = "*";
    } else {
      for (size_t i = 0; i < ast.select.size(); ++i) {
        if (i) out += " ";
        out += "?" + ast.select[i].var;
      }
    }
    if (ast.distinct) out += " distinct";
    if (!ast.group_by.empty()) out += " group-by";
    if (!ast.order_by.empty()) out += " order-by";
    if (ast.has_limit) out += " limit=" + std::to_string(ast.limit);
    if (ast.offset > 0) out += " offset=" + std::to_string(ast.offset);
    return out;
  }

  // --- estimates -----------------------------------------------------------

  double EstCount(const CPattern& p) const {
    return static_cast<double>(EstimatePatternCount(store_, p));
  }

  /// An IndexScan, or its morsel-parallel variant when threads
  /// permit, the estimate clears the fan-out gate, and the store
  /// serves the pattern as one zero-copy range.
  std::shared_ptr<Operator> MakeScan(const CPattern& p, double est) const {
    rdf::TriplePattern tp;
    if (threads_ > 1 && est >= kParallelScanMinRows &&
        ConstTriplePattern(p, &tp) && store_.ScanIsDirect(tp)) {
      return std::make_shared<ParallelScanOp>(PatternLabel(p), width_,
                                              store_, p, threads_);
    }
    return std::make_shared<IndexScanOp>(PatternLabel(p), width_, store_, p);
  }

  /// Distinct-value estimates per variable of a pattern, from the
  /// per-predicate statistics (subject/object cardinalities); they
  /// drive the output estimate of component-component hash joins.
  std::map<int, double> PatternDistinct(const CPattern& p) const {
    std::map<int, double> out;
    double cnt = std::max(1.0, EstCount(p));
    const rdf::PredicateStat* ps = FindPredicateStat(p, stats_);
    if (p.t[0].slot >= 0) {
      double d = ps ? static_cast<double>(ps->distinct_subjects) : cnt / 8.0;
      out[p.t[0].slot] = std::max(1.0, std::min(d, cnt));
    }
    if (p.t[2].slot >= 0) {
      double d = ps ? static_cast<double>(ps->distinct_objects) : cnt / 8.0;
      double prev = out.count(p.t[2].slot) ? out[p.t[2].slot] : 0.0;
      out[p.t[2].slot] =
          std::max(prev, std::max(1.0, std::min(d, cnt)));
    }
    if (p.t[1].slot >= 0) {
      double d = stats_ != nullptr
                     ? static_cast<double>(stats_->predicate_stats.size())
                     : 64.0;
      out[p.t[1].slot] = std::max(1.0, std::min(d, cnt));
    }
    return out;
  }

  /// Expected matches per input row once the bound positions are
  /// substituted — the scan count scaled by the shared selectivity
  /// heuristic, so the planner and the backtracking reorderer rank
  /// patterns identically.
  double ProbeEst(const CPattern& p, const std::set<int>& bound) const {
    return ScaledProbeEstimate(EstCount(p), p, bound, stats_);
  }

  // --- interesting orders --------------------------------------------------

  /// Variable slots a scan of `p` emits its rows sorted by under the
  /// `lead` preference (-1 = store default), derived from the store's
  /// advertised physical order: pattern positions in permutation
  /// order, constants skipped (they are fixed across the scanned
  /// range, so the remaining positions stay sorted).
  std::vector<int> ScanSortSlots(const CPattern& p, int lead = -1) const {
    rdf::TriplePattern tp;
    if (!ConstTriplePattern(p, &tp)) return {};
    // Component positions of each ScanOrder permutation, sort-major
    // first (indexed by the ScanOrder enum value).
    static constexpr int kPerm[5][3] = {
        {-1, -1, -1},  // kNone
        {0, 1, 2},     // kSPO
        {1, 2, 0},     // kPOS
        {2, 0, 1},     // kOSP
        {1, 0, 2},     // kPSO
    };
    std::vector<int> out;
    for (int pos : kPerm[static_cast<int>(store_.ScanOrderFor(tp, lead))]) {
      if (pos < 0) break;
      int slot = p.t[pos].slot;
      if (slot < 0) continue;
      if (std::find(out.begin(), out.end(), slot) == out.end()) {
        out.push_back(slot);
      }
    }
    return out;
  }

  /// Physical leading sort position of a scan of `p` when asked to
  /// lead with `slot`: the first variable position in the achieved
  /// permutation — the component a merge join must gallop on. -1 when
  /// the store cannot serve the pattern sorted by `slot` first. (For
  /// a repeated variable the leading *position* can differ from the
  /// preference position: '?x <p> ?x' routes to POS, which is sorted
  /// by the object component, so galloping must use position 2 even
  /// though position 0 holds the same slot.)
  int AchievableLeadPos(const CPattern& p, int slot) const {
    rdf::TriplePattern tp;
    if (!ConstTriplePattern(p, &tp)) return -1;
    static constexpr int kPerm[5][3] = {
        {-1, -1, -1}, {0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {1, 0, 2},
    };
    for (int pref = 0; pref < 3; ++pref) {
      if (p.t[pref].slot != slot) continue;
      for (int pos : kPerm[static_cast<int>(store_.ScanOrderFor(tp, pref))]) {
        if (pos < 0) break;
        if (p.t[pos].slot < 0) continue;  // constant: fixed in range
        // First variable position = the stream's physical sort key.
        if (p.t[pos].slot == slot) return pos;
        break;
      }
    }
    return -1;
  }

  // --- filters -------------------------------------------------------------

  static std::set<int> PatternVars(const CPattern& p) {
    std::set<int> vars;
    for (const CTerm& t : p.t) {
      if (t.slot >= 0) vars.insert(t.slot);
    }
    return vars;
  }

  static bool Subset(const std::set<int>& a, const std::set<int>& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  }

  /// Applies every pending filter whose variables are all certainly
  /// bound (certain slots are immutable downstream, so evaluating
  /// early equals the backtracking engine's group-end evaluation).
  /// With `fuse` the filters attach inline to the freshly built chain
  /// head — rows never materialize; otherwise a Filter node wraps it.
  void ApplyEligible(Chain& st, std::vector<Pending>& pending,
                     bool fuse = false) {
    std::vector<const CExpr*> ready;
    std::string detail;
    for (auto it = pending.begin(); it != pending.end();) {
      if (Subset(it->vars, st.certain)) {
        if (!ready.empty()) detail += " && ";
        detail += ExprLabel(*it->expr);
        ready.push_back(it->expr);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (ready.empty()) return;
    st.est *= std::pow(0.5, static_cast<double>(ready.size()));
    if (fuse) {
      st.op->AttachFilters(std::move(ready), dict_, std::move(detail));
      st.op->est_rows = st.est;
      return;
    }
    auto op = std::make_shared<FilterOp>(detail, width_, st.op,
                                         std::move(ready), dict_);
    op->est_rows = st.est;
    st.op = std::move(op);
  }

  // --- correlation analysis ------------------------------------------------

  /// What planning a group from rows binding `certain`/`scope` yields,
  /// worked out from variable sets alone: the group's stages fix which
  /// slots its rows bind, whatever operators the search then picks.
  struct Shape {
    std::set<int> certain, scope;  // as the built Chain's
    /// Hidden variables a condition of the group needs but its rows may
    /// lack: an OPTIONAL whose right side escapes one its left rows
    /// carry is planned correlated; the rest escape further out.
    std::set<int> escaped;
    std::set<int> deferred;  // variables of the filters handed up
    int row_ids = 0;         // correlated OPTIONALs in the kept plan
  };

  /// How an OPTIONAL entered from rows binding `certain`/`scope` plans:
  /// standalone, or correlated when a seed, filter or nested OPTIONAL of
  /// the standalone right side needs a binding only those rows carry.
  struct OptionalShape {
    bool correlated = false;
    Shape right;            // the right side as planned
    std::set<int> escaped;  // what the left join escapes outward
  };

  OptionalShape AnalyzeOptional(const CGroup& opt,
                                const std::set<int>& certain,
                                const std::set<int>& scope,
                                const std::set<int>& hidden) {
    OptionalShape out;
    std::set<int> right_hidden = hidden;
    right_hidden.insert(scope.begin(), scope.end());
    out.right = Analyze(opt, {}, {}, true, right_hidden);
    out.escaped = out.right.escaped;
    for (auto [local, outer] : opt.seeds) {
      // No hash key can express a seed on a possibly-unbound outer.
      if (!scope.count(local) && !certain.count(outer)) {
        out.escaped.insert(outer);
      }
    }
    out.correlated = std::any_of(out.escaped.begin(), out.escaped.end(),
                                 [&](int v) { return scope.count(v) > 0; });
    if (out.correlated) {
      // Seeds fire on the left rows (see BuildGroup).
      std::set<int> c = certain, s = scope;
      out.escaped.clear();
      for (auto [local, outer] : opt.seeds) {
        if (c.count(outer)) {
          c.insert(local);
        } else if (hidden.count(outer)) {
          out.escaped.insert(outer);
        }
        if (s.count(outer)) s.insert(local);
      }
      out.right = Analyze(opt, c, s, true, hidden);
      out.escaped.insert(out.right.escaped.begin(), out.right.escaped.end());
    }
    // Residual conditions are decided on the merged row. One needing a
    // hidden binding the merged row may lack escapes, and so does a
    // right side that may bind a hidden variable the left rows lack (it
    // would ignore the hidden value).
    for (int v : out.right.deferred) {
      if (hidden.count(v) && !certain.count(v) && !out.right.certain.count(v)) {
        out.escaped.insert(v);
      }
    }
    for (int v : out.right.scope) {
      if (hidden.count(v) && !certain.count(v)) out.escaped.insert(v);
    }
    return out;
  }

  /// The Shape of `g` entered from rows binding `certain`/`scope`;
  /// `deferring` when its leftover filters can be handed up (an
  /// OPTIONAL right side), `hidden` as in BuildGroup. Memoized: a
  /// correlated OPTIONAL's right side is analyzed both standalone and
  /// on its left rows, and nested ones meet the same contexts again.
  Shape Analyze(const CGroup& g, const std::set<int>& certain,
                const std::set<int>& scope, bool deferring,
                const std::set<int>& hidden) {
    CheckDeadline();
    auto key = std::make_tuple(&g, certain, scope, deferring, hidden);
    auto it = shapes_.find(key);
    if (it != shapes_.end()) return it->second;
    Shape sh;
    sh.certain = certain;
    for (const CPattern& p : g.patterns) {
      const std::set<int> vars = PatternVars(p);
      sh.certain.insert(vars.begin(), vars.end());
    }
    for (auto [slot, id] : g.const_binds) {
      (void)id;
      sh.certain.insert(slot);
    }
    for (const CPath& p : g.paths) {
      if (p.subj.slot >= 0) sh.certain.insert(p.subj.slot);
      if (p.obj.slot >= 0) sh.certain.insert(p.obj.slot);
    }
    sh.scope = scope;
    sh.scope.insert(sh.certain.begin(), sh.certain.end());
    for (const auto& alternatives : g.unions) {
      std::optional<std::set<int>> both;
      std::set<int> any;
      for (const CGroup& alt : alternatives) {
        Shape b = Analyze(alt, sh.certain, sh.scope, false, hidden);
        if (both) {
          std::set<int> inter;
          std::set_intersection(both->begin(), both->end(), b.certain.begin(),
                                b.certain.end(),
                                std::inserter(inter, inter.begin()));
          both = std::move(inter);
        } else {
          both = std::move(b.certain);
        }
        any.insert(b.scope.begin(), b.scope.end());
        sh.escaped.insert(b.escaped.begin(), b.escaped.end());
        sh.row_ids += b.row_ids;
      }
      if (both) sh.certain = std::move(*both);
      sh.scope.insert(any.begin(), any.end());
    }
    for (const CGroup& opt : g.optionals) {
      OptionalShape o = AnalyzeOptional(opt, sh.certain, sh.scope, hidden);
      sh.escaped.insert(o.escaped.begin(), o.escaped.end());
      sh.row_ids += o.right.row_ids + (o.correlated ? 1 : 0);
      sh.scope.insert(o.right.scope.begin(), o.right.scope.end());
    }
    for (auto [dst, src] : g.copy_outs) {
      sh.scope.insert(dst);
      if (sh.certain.count(src)) sh.certain.insert(dst);
    }
    // The filters left at the group's end (see BuildGroup).
    for (const CExpr& f : g.filters) {
      std::set<int> vars;
      Compiler::CollectVars(f, vars);
      if (Subset(vars, sh.certain)) continue;
      bool needs_hidden = false;
      for (int v : vars) {
        if (hidden.count(v) && !sh.certain.count(v)) {
          needs_hidden = true;
          if (!deferring) sh.escaped.insert(v);
        }
      }
      if (deferring && (needs_hidden || !Subset(vars, sh.scope))) {
        sh.deferred.insert(vars.begin(), vars.end());
      }
    }
    shapes_.emplace(std::move(key), sh);
    return sh;
  }

  // --- group planning ------------------------------------------------------

  /// Plans one group: cost-ordered pattern joins, then union joins,
  /// then optional left joins, then copy-outs and residual filters —
  /// the same stage order the backtracking engine evaluates. `hidden`
  /// holds the variables the enclosing context may bind but the
  /// group's rows do not carry (everything left of each standalone
  /// OPTIONAL right side around it). Filters needing one of those are
  /// handed back through `deferred` and become left-join conditions;
  /// where that cannot work, the OPTIONAL plans correlated (Analyze).
  Chain BuildGroup(const CGroup& g, Chain base,
                   std::vector<const CExpr*>* deferred,
                   const std::set<int>& hidden) {
    Chain st = std::move(base);

    // Constant bindings: substituted into the patterns (so scans and
    // estimates use the constant) and applied to rows by a Bind.
    std::vector<CPattern> pats = g.patterns;
    for (auto [slot, id] : g.const_binds) {
      for (CPattern& p : pats) {
        for (CTerm& t : p.t) {
          if (t.slot == slot) {
            t.slot = -1;
            t.id = id;
          }
        }
      }
    }
    std::vector<Pending> pending;
    for (const CExpr& f : g.filters) {
      Pending p;
      p.expr = &f;
      Compiler::CollectVars(f, p.vars);
      pending.push_back(std::move(p));
    }
    ApplyEligible(st, pending);

    // Greedy operator ordering over the basic graph pattern: every
    // pattern starts as its own component (plus the non-singleton
    // base); repeatedly merge the cheapest connected pair. Unlike a
    // left-deep chain this yields bushy trees — q4's two author stars
    // build separately and hash-join on ?journal last, so the largest
    // intermediate materializes exactly once.
    struct Comp {
      std::shared_ptr<Operator> op;  // null while an unrealized pattern
      CPattern pattern{};
      bool is_pattern = false;
      std::set<int> certain, scope;
      double est = 0.0;
      std::map<int, double> distinct;  // var -> distinct-value estimate
      std::vector<int> sort;  // slots the output is sorted by
    };
    std::vector<Comp> comps;
    if (!st.is_singleton) {
      Comp c;
      c.op = st.op;
      c.certain = st.certain;
      c.scope = st.scope;
      c.est = st.est;
      c.sort = st.sort;
      for (int v : c.certain) c.distinct[v] = std::max(1.0, c.est / 8.0);
      comps.push_back(std::move(c));
    }
    for (const CPattern& p : pats) {
      Comp c;
      c.pattern = p;
      c.is_pattern = true;
      c.certain = PatternVars(p);
      c.scope = c.certain;
      c.est = EstCount(p);
      c.distinct = PatternDistinct(p);
      c.sort = ScanSortSlots(p);
      comps.push_back(std::move(c));
    }

    // Realizes a pattern component as a scan (morsel-parallel when
    // the fan-out gate clears), fusing eligible filters.
    auto realize = [&](Comp& c) {
      if (!c.is_pattern) return;
      std::shared_ptr<Operator> scan = MakeScan(c.pattern, c.est);
      scan->est_rows = c.est;
      c.op = std::move(scan);
      c.is_pattern = false;
      Chain tmp;
      tmp.op = c.op;
      tmp.certain = c.certain;
      tmp.scope = c.scope;
      tmp.est = c.est;
      ApplyEligible(tmp, pending, /*fuse=*/true);
      c.op = tmp.op;
      c.est = tmp.est;
    };

    enum Method { kINLJ, kHash, kMergeScan, kRangeMerge, kMerge };
    // One candidate merge of components (a, b), scored exactly as the
    // greedy search scores it. `valid` false marks combinations the
    // search never visits (self, out of range, symmetric duplicates,
    // a built side probing from the wrong direction) — replaying a
    // recorded script hits those only when the query stopped matching
    // its template.
    struct Cand {
      bool valid = false;
      Method method = kHash;
      double cost = 0.0;
      double out = 0.0;
      bool connected = false;
      int mv = -1, ma_lead = -1, mb_pos = -1;
    };
    auto evaluate = [&](size_t a, size_t b) -> Cand {
      Cand cand;
      if (a >= comps.size() || b >= comps.size() || a == b) return cand;
      const Comp& A = comps[a];
      const Comp& B = comps[b];
      if (a > b && !(A.is_pattern || B.is_pattern)) {
        return cand;  // built-built merges are symmetric; visit once
      }
      std::vector<int> shared;
      for (int v : B.certain) {
        if (A.certain.count(v)) shared.push_back(v);
      }
      bool connected = !shared.empty();
      Method method;
      double cost, out;
      int mv = -1, ma_lead = -1, mb_pos = -1;
      if (B.is_pattern) {
        // Probe, hash, or merge the pattern from A (realizing A
        // first if it is itself still a pattern).
        double realize_cost = A.is_pattern ? A.est : 0.0;
        double probe = ProbeEst(B.pattern, A.certain);
        out = std::max(1.0, A.est) * probe;
        double inlj =
            realize_cost + std::max(1.0, A.est) * (kProbeCost + probe);
        double hash = realize_cost + kBuildCost * B.est + A.est + out;
        if (connected && hash < inlj) {
          method = kHash;
          cost = hash;
        } else {
          method = kINLJ;
          cost = inlj;
        }
        if (merge_joins_ && connected) {
          // Interesting orders: find a shared variable both sides
          // can arrive sorted on — A as-is (its materialized sort)
          // or, while still a pattern, via an order-preferring
          // scan; B by re-routing its scan's leading component.
          for (int cand : shared) {
            int bp = AchievableLeadPos(B.pattern, cand);
            if (bp < 0) continue;
            if (!A.sort.empty() && A.sort.front() == cand) {
              mv = cand;
              mb_pos = bp;
              ma_lead = -1;
              break;
            }
            if (A.is_pattern) {
              int ap = AchievableLeadPos(A.pattern, cand);
              if (ap >= 0) {
                mv = cand;
                mb_pos = bp;
                ma_lead = ap;
                break;
              }
            }
          }
          if (mv >= 0) {
            if (A.is_pattern) {
              // Galloping intersection of the two sorted ranges:
              // neither side is materialized or hashed.
              double merge =
                  kMergeProbeCost * std::min(A.est, B.est) + out;
              if (merge < cost) {
                method = kRangeMerge;
                cost = merge;
              }
            } else {
              // Zig-zag merge of the sorted intermediate against
              // the sorted scan range: cheaper per input row than
              // an index probe (the gallop window only shrinks),
              // and no hash build.
              double merge = std::max(1.0, A.est) *
                                 (kMergeProbeCost + probe);
              if (merge < cost) {
                method = kMergeScan;
                cost = merge;
              }
            }
          }
        }
      } else if (A.is_pattern) {
        return cand;  // handled as (B, A) above
      } else {
        // Component-component join: independence assumption
        // scaled by the shared variables' distinct counts.
        double sel = 1.0;
        for (int v : shared) {
          double da = A.distinct.count(v) ? A.distinct.at(v) : 1.0;
          double db = B.distinct.count(v) ? B.distinct.at(v) : 1.0;
          sel /= std::max(1.0, std::max(da, db));
        }
        out = A.est * B.est * sel;
        method = kHash;
        cost = kBuildCost * std::min(A.est, B.est) +
               std::max(A.est, B.est) + out;
        if (merge_joins_ && !A.sort.empty() && !B.sort.empty() &&
            A.sort.front() == B.sort.front() &&
            std::find(shared.begin(), shared.end(), A.sort.front()) !=
                shared.end()) {
          // Both tables already sorted on the key: zip them.
          double merge = A.est + B.est + out;
          if (merge < cost) {
            method = kMerge;
            cost = merge;
            mv = A.sort.front();
          }
        }
      }
      cand.valid = true;
      cand.method = method;
      cand.cost = cost;
      cand.out = out;
      cand.connected = connected;
      cand.mv = mv;
      cand.ma_lead = ma_lead;
      cand.mb_pos = mb_pos;
      return cand;
    };

    while (comps.size() > 1) {
      int best_a = -1, best_b = -1;
      Cand best;
      bool from_replay = false;
      if (replay_ != nullptr) {
        if (replay_pos_ < replay_->merges.size()) {
          auto [ra, rb] = replay_->merges[replay_pos_];
          Cand cand = evaluate(ra, rb);
          if (cand.valid) {
            best = cand;
            best_a = ra;
            best_b = rb;
            ++replay_pos_;
            from_replay = true;
          }
        }
        // Script exhausted or entry impossible against the live
        // component list: the query stopped matching the recorded
        // template, so the rest of the build reverts to full search.
        if (!from_replay) replay_ = nullptr;
      }
      if (!from_replay) {
        for (size_t a = 0; a < comps.size(); ++a) {
          for (size_t b = 0; b < comps.size(); ++b) {
            CheckDeadline();
            Cand cand = evaluate(a, b);
            if (!cand.valid) continue;
            bool better;
            if (best_a < 0) {
              better = true;
            } else if (cand.connected != best.connected) {
              better = cand.connected;  // avoid cross products
            } else {
              better = cand.cost < best.cost ||
                       (cand.cost == best.cost && cand.out < best.out);
            }
            if (better) {
              best = cand;
              best_a = static_cast<int>(a);
              best_b = static_cast<int>(b);
            }
          }
        }
      }
      if (record_ != nullptr) {
        record_->merges.emplace_back(static_cast<uint16_t>(best_a),
                                     static_cast<uint16_t>(best_b));
      }
      Comp A = std::move(comps[best_a]);
      Comp B = std::move(comps[best_b]);
      comps.erase(comps.begin() + std::max(best_a, best_b));
      comps.erase(comps.begin() + std::min(best_a, best_b));
      Comp merged;
      merged.certain = A.certain;
      merged.certain.insert(B.certain.begin(), B.certain.end());
      merged.scope = merged.certain;
      merged.est = best.out;
      if (best.method == kRangeMerge) {
        // Both sides stay raw sorted ranges; nothing is realized.
        auto op = std::make_shared<ScanMergeJoinOp>(
            PatternLabel(A.pattern) + " && " + PatternLabel(B.pattern) +
                " merge [" + VarName(best.mv) + "]",
            width_, store_, A.pattern,
            best.ma_lead >= 0 ? best.ma_lead
                             : AchievableLeadPos(A.pattern, best.mv),
            B.pattern, best.mb_pos);
        op->est_rows = best.out;
        merged.op = std::move(op);
        merged.sort = {best.mv};  // emitted in ascending key runs
      } else if (best.method == kINLJ) {
        realize(A);
        auto op = std::make_shared<IndexNestedLoopJoinOp>(
            PatternLabel(B.pattern), width_, store_, A.op, B.pattern);
        op->est_rows = best.out;
        merged.op = std::move(op);
        merged.sort = A.sort;  // probes preserve the input's order
      } else if (best.method == kMergeScan) {
        realize(A);
        auto op = std::make_shared<MergeScanJoinOp>(
            PatternLabel(B.pattern) + " merge [" + VarName(best.mv) + "]",
            width_, store_, A.op, B.pattern, best.mv, best.mb_pos);
        op->est_rows = best.out;
        merged.op = std::move(op);
        merged.sort = {best.mv};  // emitted in ascending key runs
      } else if (best.method == kMerge) {
        realize(A);
        realize(B);
        std::vector<std::pair<int, int>> keys;
        for (int v : B.certain) {
          if (A.certain.count(v)) keys.emplace_back(v, v);
        }
        auto op = std::make_shared<MergeJoinOp>(KeysLabel(keys), width_,
                                                A.op, B.op, keys, best.mv,
                                                best.mv);
        op->est_rows = best.out;
        merged.op = std::move(op);
        merged.sort = {best.mv};
      } else {
        realize(A);
        realize(B);
        std::vector<std::pair<int, int>> keys;
        for (int v : B.certain) {
          if (A.certain.count(v)) keys.emplace_back(v, v);
        }
        // Parallel when an input or the estimated output is big
        // enough to pay thread fan-out.
        const bool parallel =
            threads_ > 1 && !keys.empty() &&
            std::max({A.est, B.est, best.out}) >= kParallelJoinMinRows;
        auto op = std::make_shared<HashJoinOp>(KeysLabel(keys), width_, A.op,
                                               B.op, keys,
                                               parallel ? threads_ : 1);
        op->est_rows = best.out;
        merged.op = std::move(op);
        // Build/probe sides are chosen at runtime; no order survives.
      }
      for (const auto& side : {A.distinct, B.distinct}) {
        for (const auto& [v, d] : side) {
          double prev = merged.distinct.count(v) ? merged.distinct[v] : 0.0;
          merged.distinct[v] = std::max(prev, d);
        }
      }
      {
        Chain tmp;
        tmp.op = merged.op;
        tmp.certain = merged.certain;
        tmp.scope = merged.scope;
        tmp.est = merged.est;
        ApplyEligible(tmp, pending, /*fuse=*/true);
        merged.op = tmp.op;
        merged.est = tmp.est;
      }
      comps.push_back(std::move(merged));
    }
    if (!comps.empty()) {
      realize(comps[0]);
      std::set<int> base_scope = st.scope;
      st.op = comps[0].op;
      st.certain = comps[0].certain;
      st.scope = comps[0].scope;
      st.scope.insert(base_scope.begin(), base_scope.end());
      st.est = comps[0].est;
      st.sort = comps[0].sort;
      st.distinct = comps[0].distinct;
      st.is_singleton = false;
    }

    // Constant bindings become visible on the rows themselves (the
    // patterns already carry the substituted constant).
    if (!g.const_binds.empty()) {
      std::string detail;
      for (auto [slot, id] : g.const_binds) {
        if (!detail.empty()) detail += ", ";
        detail += VarName(slot) + " := " + ShortTerm(dict_, id);
      }
      auto op = std::make_shared<BindOp>(detail, width_, st.op,
                                         g.const_binds,
                                         std::vector<std::pair<int, int>>{});
      op->est_rows = st.est;
      st.op = std::move(op);
      for (auto [slot, id] : g.const_binds) {
        (void)id;
        st.certain.insert(slot);
        st.scope.insert(slot);
      }
      ApplyEligible(st, pending);
    }

    // Closure paths (`p+` / `p*`) run after the basic graph pattern,
    // matching the backtracking engine's stage order. Both layers
    // evaluate membership through the shared PathEval, so the fixed
    // relation — and therefore the result grid — is identical at
    // every engine level. The cardinality estimate derives from the
    // predicate's edge count: a closure fans out at most to every
    // reachable node, approximated as sqrt(edges) per bound probe.
    if (!g.paths.empty()) {
      std::vector<CPath> paths = g.paths;
      for (auto [slot, id] : g.const_binds) {
        for (CPath& p : paths) {
          if (p.subj.slot == slot) {
            p.subj.slot = -1;
            p.subj.id = id;
          }
          if (p.obj.slot == slot) {
            p.obj.slot = -1;
            p.obj.id = id;
          }
        }
      }
      PathEval pe(store_);
      for (const CPath& p : paths) {
        double edges = p.pred == kMissing
                           ? 0.0
                           : static_cast<double>(pe.EdgeCount(p.pred));
        double fan = std::min(edges, std::sqrt(edges) + 1.0);
        bool subj_known = p.subj.slot < 0 || st.certain.count(p.subj.slot);
        bool obj_known = p.obj.slot < 0 || st.certain.count(p.obj.slot);
        double per_row =
            subj_known || obj_known ? fan : std::max(1.0, edges) * fan;
        std::string detail = TermLabel(p.subj) + " " +
                             ShortTerm(dict_, p.pred) +
                             (p.reflexive ? "*" : "+") + " " +
                             TermLabel(p.obj);
        auto op = std::make_shared<TransitiveClosureOp>(detail, width_,
                                                        store_, st.op, p);
        op->est_rows = std::max(1.0, st.est) * std::max(1.0, per_row);
        st.est = op->est_rows;
        st.op = std::move(op);
        if (p.subj.slot >= 0) {
          st.certain.insert(p.subj.slot);
          st.scope.insert(p.subj.slot);
        }
        if (p.obj.slot >= 0) {
          st.certain.insert(p.obj.slot);
          st.scope.insert(p.obj.slot);
        }
        st.is_singleton = false;
        st.sort.clear();  // closure pairs carry no useful order
        ApplyEligible(st, pending);
      }
    }

    // Unions: each alternative extends the shared outer chain (so its
    // patterns can probe outer bindings), then the branches concat.
    for (const auto& alternatives : g.unions) {
      std::vector<Chain> branches;
      for (const CGroup& alt : alternatives) {
        branches.push_back(BuildGroup(alt, st, nullptr, hidden));
      }
      std::vector<std::shared_ptr<Operator>> ops;
      std::set<int> certain = branches[0].certain;
      double est = 0.0;
      for (Chain& b : branches) {
        std::set<int> inter;
        std::set_intersection(certain.begin(), certain.end(),
                              b.certain.begin(), b.certain.end(),
                              std::inserter(inter, inter.begin()));
        certain = std::move(inter);
        st.scope.insert(b.scope.begin(), b.scope.end());
        est += b.est;
        ops.push_back(std::move(b.op));
      }
      std::shared_ptr<Operator> op;
      if (threads_ > 1 && ops.size() > 1 &&
          est >= kParallelUnionMinRows) {
        op = std::make_shared<ParallelUnionOp>(width_, std::move(ops),
                                               threads_);
      } else {
        op = std::make_shared<UnionOp>(width_, std::move(ops));
      }
      op->est_rows = est;
      st.op = std::move(op);
      st.certain = std::move(certain);
      st.est = est;
      st.is_singleton = false;
      st.sort.clear();  // concatenated branches lose any order
      ApplyEligible(st, pending);
    }

    // Optionals: hash left joins against the standalone right side, or,
    // when the right side needs a binding only the left rows carry
    // (correlated), against the right side planned on top of the
    // numbered left rows, joined back on the row id.
    for (const CGroup& opt : g.optionals) {
      std::vector<const CExpr*> residual;
      std::vector<std::pair<int, int>> keys;
      std::shared_ptr<Operator> left = st.op;
      Chain right;
      if (!AnalyzeOptional(opt, st.certain, st.scope, hidden).correlated) {
        std::set<int> right_hidden = hidden;
        right_hidden.insert(st.scope.begin(), st.scope.end());
        right = BuildGroup(opt, Singleton(), &residual, right_hidden);
        for (auto [local, outer] : opt.seeds) {
          // A seed whose local variable may already be bound on the
          // outer side falls back to the merge compatibility check (the
          // backtracking engine's seed fires only on unbound slots).
          if (st.scope.count(local)) continue;
          if (st.certain.count(outer)) keys.emplace_back(outer, local);
        }
        for (int s : st.certain) {
          if (right.certain.count(s)) keys.emplace_back(s, s);
        }
      } else {
        // The row id is the only key, so it stays out of the Chain's
        // sets: the right side's joins never see it.
        const int id = RowIdSlot();
        left = std::make_shared<RowIdOp>(VarName(id), width_, st.op, id);
        left->est_rows = st.est;
        Chain base = st;
        base.op = left;
        base.is_singleton = false;  // the numbered rows are the base
        if (!opt.seeds.empty()) {
          // Seeds fire on the left rows themselves, as the backtracking
          // engine's do: local := outer wherever local is unbound.
          std::string detail;
          for (auto [local, outer] : opt.seeds) {
            if (!detail.empty()) detail += ", ";
            detail += VarName(local) + " := " + VarName(outer);
            if (base.certain.count(outer)) base.certain.insert(local);
            if (base.scope.count(outer)) base.scope.insert(local);
          }
          auto bind = std::make_shared<BindOp>(
              detail, width_, base.op, std::vector<std::pair<int, TermId>>{},
              opt.seeds);
          bind->est_rows = base.est;
          base.op = std::move(bind);
        }
        right = BuildGroup(opt, std::move(base), &residual, hidden);
        keys = {{id, id}};
      }
      // Anti-join: a group-end `!bound(?v)` keeps exactly the left rows
      // without a match when the right side binds ?v in every row, the
      // left rows never do, and nothing else reads ?v. The scope still
      // takes the right side's slots, so later stages plan exactly as
      // Analyze predicted.
      auto anti = std::find_if(pending.begin(), pending.end(),
                               [&](const Pending& p) {
        const CExpr& e = *p.expr;
        if (e.op != Expr::kNot || e.kids[0].op != Expr::kBound) return false;
        const int v = e.kids[0].slot;
        return right.certain.count(v) && !st.scope.count(v) &&
               !modifier_slots_.count(v) && SlotUses(q_.root, v, &opt) == 1;
      });
      const bool is_anti = anti != pending.end();
      if (is_anti) {
        pending.erase(anti);
        st.est *= AntiShare(st, right, keys, residual.size());
      }
      std::string detail = KeysLabel(keys);
      for (const CExpr* f : residual) detail += " if " + ExprLabel(*f);
      auto op = std::make_shared<LeftJoinOp>(detail, width_, left, right.op,
                                             keys, residual, dict_, is_anti);
      op->est_rows = st.est;
      st.op = std::move(op);
      st.scope.insert(right.scope.begin(), right.scope.end());
    }

    // Copy-outs, then whatever filters remain (group-end semantics).
    if (!g.copy_outs.empty()) {
      std::string detail;
      for (auto [dst, src] : g.copy_outs) {
        if (!detail.empty()) detail += ", ";
        detail += VarName(dst) + " := " + VarName(src);
      }
      auto op = std::make_shared<BindOp>(
          detail, width_, st.op, std::vector<std::pair<int, TermId>>{},
          g.copy_outs);
      op->est_rows = st.est;
      st.op = std::move(op);
      for (auto [dst, src] : g.copy_outs) {
        st.scope.insert(dst);
        if (st.certain.count(src)) st.certain.insert(dst);
      }
      ApplyEligible(st, pending);
    }
    std::vector<const CExpr*> end_filters;
    std::string end_detail;
    for (const Pending& p : pending) {
      bool escapes = false;
      // Union branches cannot hand conditions up (they would lose their
      // branch association); one needing a hidden binding makes the
      // enclosing OPTIONAL correlated (Analyze), so it sees it here.
      if (deferred != nullptr) {
        // Defer when the filter references outer bindings the merged
        // row would see but a standalone right row cannot.
        if (!Subset(p.vars, st.scope)) {
          escapes = true;
        } else {
          for (int v : p.vars) {
            if (hidden.count(v) && !st.certain.count(v)) {
              escapes = true;
              break;
            }
          }
        }
      }
      if (escapes) {
        deferred->push_back(p.expr);
      } else {
        if (!end_filters.empty()) end_detail += " && ";
        end_detail += ExprLabel(*p.expr);
        end_filters.push_back(p.expr);
      }
    }
    if (!end_filters.empty()) {
      st.est *= std::pow(0.5, static_cast<double>(end_filters.size()));
      auto op = std::make_shared<FilterOp>(end_detail, width_, st.op,
                                           std::move(end_filters), dict_);
      op->est_rows = st.est;
      st.op = std::move(op);
    }
    return st;
  }

  /// Places in `g` that mention `slot` — pattern and path positions,
  /// filters, constant bindings, seeds, copy-outs — outside `skip`.
  static int SlotUses(const CGroup& g, int slot, const CGroup* skip) {
    if (&g == skip) return 0;
    int uses = 0;
    for (const CPattern& p : g.patterns) {
      for (const CTerm& t : p.t) uses += t.slot == slot;
    }
    for (const CPath& p : g.paths) {
      uses += (p.subj.slot == slot) + (p.obj.slot == slot);
    }
    for (const CExpr& f : g.filters) {
      std::set<int> vars;
      Compiler::CollectVars(f, vars);
      uses += static_cast<int>(vars.count(slot));
    }
    for (const auto& bind : g.const_binds) uses += bind.first == slot;
    for (const auto& pairs : {g.seeds, g.copy_outs}) {
      for (auto [a, b] : pairs) uses += (a == slot) + (b == slot);
    }
    for (const auto& alternatives : g.unions) {
      for (const CGroup& alt : alternatives) uses += SlotUses(alt, slot, skip);
    }
    for (const CGroup& opt : g.optionals) uses += SlotUses(opt, slot, skip);
    return uses;
  }

  /// Estimated share of left rows an anti-join keeps: those whose key
  /// no right row matches. With statistics, a key whose right side has
  /// d_r distinct values against the left's d_l covers
  /// min(1, d_r / d_l) of the left keys, and each residual condition
  /// halves the match chance like any filter; otherwise (or on a
  /// row-id key) it halves, like the filter the anti-join replaces.
  double AntiShare(const Chain& left, const Chain& right,
                   const std::vector<std::pair<int, int>>& keys,
                   size_t residuals) const {
    if (stats_ == nullptr || keys.empty()) return 0.5;
    double cover = 1.0;
    for (auto [ls, rs] : keys) {
      auto l = left.distinct.find(ls);
      auto r = right.distinct.find(rs);
      if (l == left.distinct.end() || r == right.distinct.end()) return 0.5;
      cover = std::min(cover, r->second / std::max(1.0, l->second));
    }
    return 1.0 - cover * std::pow(0.5, static_cast<double>(residuals));
  }

  /// Planning CPU counts against the query deadline: every call is a
  /// tick, and one tick in 32 reads the clock.
  void CheckDeadline() {
    if (limits_.has_deadline && (++deadline_ticks_ & 31) == 0 &&
        std::chrono::steady_clock::now() > limits_.deadline) {
      throw QueryTimeout();
    }
  }

  /// The next hidden `#rN` row-id slot, in build order; Build appended
  /// exactly as many as Analyze counted for the kept plan.
  int RowIdSlot() {
    if (next_row_id_ >= row_ids_) {
      throw std::logic_error("planner: row-id slots miscounted");
    }
    return static_cast<int>(row_id_base_) + next_row_id_++;
  }

  CompiledQuery& q_;
  const rdf::Store& store_;
  const rdf::Dictionary& dict_;
  const rdf::Stats* stats_;
  size_t width_;
  bool merge_joins_ = true;
  int threads_ = 1;
  /// Record/replay hooks: replay_ walks merges in recorded order
  /// (cleared the moment an entry stops matching the live component
  /// list — the rest of the build reverts to full search); record_
  /// accumulates the pairs this build chose. Groups are visited in
  /// deterministic recursion order, so one flat cursor serves the
  /// whole query.
  const PlanScript* replay_ = nullptr;
  PlanScript* record_ = nullptr;
  size_t replay_pos_ = 0;
  uint64_t root_cap_ = 0;  // LIMIT pushdown cap for the root's child
  QueryLimits limits_;
  uint32_t deadline_ticks_ = 0;
  /// Analyze's memo, keyed by group and entry context.
  std::map<std::tuple<const CGroup*, std::set<int>, std::set<int>, bool,
                      std::set<int>>,
           Shape>
      shapes_;
  std::set<int> modifier_slots_;  // read by projection / ORDER / GROUP
  size_t row_id_base_ = 0;  // slot of `#r0`
  int row_ids_ = 0;         // `#rN` slots the kept plan holds
  int next_row_id_ = 0;
};

}  // namespace
}  // namespace internal

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

Plan::Plan() = default;
Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

void Plan::Execute(BindingTable* out, const QueryLimits& limits,
                   ExecStats* stats) {
  ExecStats local;
  internal::ExecCtx ctx{limits, stats != nullptr ? *stats : local};
  try {
    root_->Output(ctx);
  } catch (...) {
    ctx.Flush();  // partial counters still reach the caller
    throw;
  }
  root_->TakeResult(out);
  root_->Release();
  ctx.Flush();
}

void Plan::SetRootActual(uint64_t rows) { root_->set_actual_rows(rows); }

namespace {

void Walk(const internal::Operator* op, int depth,
          std::set<const internal::Operator*>& seen,
          std::vector<PlanNodeInfo>& out) {
  PlanNodeInfo info;
  info.depth = depth;
  info.op = op->op_name();
  info.detail = op->detail();
  info.est_rows = op->est_rows;
  info.actual_rows = op->actual_rows();
  info.executed = op->executed();
  bool shared = !seen.insert(op).second;
  if (shared) {
    info.detail = info.detail.empty() ? "(shared input)"
                                      : info.detail + " (shared input)";
  }
  out.push_back(std::move(info));
  if (shared) return;  // render a DAG-shared subtree once
  for (const auto& child : op->children()) {
    Walk(child.get(), depth + 1, seen, out);
  }
}

}  // namespace

std::vector<PlanNodeInfo> Plan::Nodes() const {
  std::vector<PlanNodeInfo> out;
  if (root_ != nullptr) {
    std::set<const internal::Operator*> seen;
    Walk(root_.get(), 0, seen, out);
  }
  return out;
}

std::string Plan::Explain() const {
  std::string out;
  for (const PlanNodeInfo& n : Nodes()) {
    std::string line(static_cast<size_t>(n.depth) * 2, ' ');
    line += n.op;
    if (!n.detail.empty()) line += " " + n.detail;
    if (line.size() < 58) line.resize(58, ' ');
    line += "  est=";
    double est = std::min(n.est_rows, 1e18);
    line += FormatCount(static_cast<uint64_t>(std::llround(est)));
    line += "  rows=";
    line += n.executed ? FormatCount(n.actual_rows) : std::string("-");
    out += line;
    out += '\n';
  }
  return out;
}

Plan BuildPlan(internal::CompiledQuery& q, const AstQuery& ast,
               const rdf::Store& store, const rdf::Dictionary& dict,
               const rdf::Stats* stats, bool merge_joins, int threads,
               const PlanScript* replay, PlanScript* record,
               uint64_t root_cap, const QueryLimits& limits) {
  if (record != nullptr) {
    record->valid = false;
    record->merges.clear();
  }
  internal::PlanBuilder builder(q, store, dict, stats, merge_joins, threads,
                                replay, record, root_cap, limits);
  Plan plan;
  plan.root_ = builder.Build(ast);
  return plan;
}

}  // namespace sp2b::sparql
