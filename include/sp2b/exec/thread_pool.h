// A small thread pool shared by every parallel operator and (in
// tests) instantiable standalone.
//
// Structure: one FIFO task queue under the pool mutex. Tasks here are
// coarse batch runners (one per participating lane, each draining a
// shared atomic morsel dispenser), so which worker claims which lane
// does not matter and a single queue is all the scheduling they need;
// the one mutex costs nothing measurable and keeps the pool trivially
// ThreadSanitizer clean.
//
// ParallelFor is the only scheduling primitive the engine uses: it
// runs fn(0..n-1) with bounded parallelism, the calling thread
// participates (a pool of W workers sustains W+1 lanes), the first
// exception any lane throws is rethrown on the caller after every
// started invocation finished, and nested calls from inside a worker
// degrade to inline serial execution. Two properties together make
// nesting deadlock-free: a worker never re-enters the pool, and a
// caller revokes its still-unclaimed lane tasks before waiting — so
// it only ever waits on lanes that are actually running, never on a
// queued task no worker is free to start (workers may be blocked on a
// mutex the caller itself holds, e.g. a parallel operator nested
// inside a parallel union branch demanding a DAG-shared input).
#ifndef SP2B_EXEC_THREAD_POOL_H_
#define SP2B_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sp2b::exec {

class ThreadPool {
 public:
  /// Starts with zero workers; grows on demand (EnsureWorkers or the
  /// first ParallelFor asking for parallelism).
  ThreadPool() = default;
  explicit ThreadPool(int workers) { EnsureWorkers(workers); }
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool all parallel query operators share. Sized
  /// lazily to the largest parallelism ever requested, so concurrent
  /// queries contend for one bounded worker set instead of
  /// oversubscribing the machine.
  static ThreadPool& Shared();

  /// Grows the pool to at least `n` workers; never shrinks.
  void EnsureWorkers(int n);

  int workers() const;

  /// Invokes fn(i) for every i in [0, n) with at most `parallelism`
  /// concurrent invocations, counting the calling thread as one lane
  /// (the pool is grown to parallelism - 1 workers on demand).
  /// Indices are handed out dynamically through an atomic dispenser,
  /// so uneven per-index cost balances automatically. Blocks until
  /// every started invocation finished; if any invocation throws, the
  /// first exception is rethrown here and unclaimed indices are
  /// skipped. Runs inline (serial, in index order) when n <= 1,
  /// parallelism <= 1, or when called from inside a pool worker —
  /// nested parallelism flattens instead of deadlocking.
  void ParallelFor(size_t n, int parallelism,
                   const std::function<void(size_t)>& fn);

 private:
  struct Batch;
  /// A queued lane: tagged with its batch so an exiting caller can
  /// revoke the lanes no worker ever claimed.
  struct Task {
    const Batch* batch = nullptr;
    std::function<void()> run;
  };

  void Submit(Task task);
  void WorkerLoop();
  /// Removes every still-queued task of `batch` from the queue and
  /// returns how many were revoked. The caller subtracts them from
  /// the batch's active count, so its rendezvous only waits on lanes
  /// a worker actually started.
  size_t CancelQueued(const Batch* batch);
  static void RunBatch(Batch& batch, const std::function<void(size_t)>& fn);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;  // queued (not yet claimed) lanes, FIFO
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

}  // namespace sp2b::exec

#endif  // SP2B_EXEC_THREAD_POOL_H_
