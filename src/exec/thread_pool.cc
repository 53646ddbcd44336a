#include "sp2b/exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace sp2b::exec {

namespace {

/// Set for the lifetime of a pool worker thread: nested ParallelFor
/// calls detect it and run inline instead of blocking on the pool.
thread_local bool t_in_worker = false;

}  // namespace

/// One ParallelFor invocation: the atomic dispenser lanes pull
/// indices from, plus the caller's rendezvous with the extra lanes it
/// submitted to the pool.
struct ThreadPool::Batch {
  std::atomic<size_t> next{0};     // index dispenser
  std::atomic<bool> failed{false};  // stop claiming after an exception
  size_t total = 0;
  std::mutex mu;
  std::condition_variable cv;
  size_t active = 0;  // submitted lanes still running
  std::exception_ptr error;
};

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::EnsureWorkers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::Submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

size_t ThreadPool::CancelQueued(const Batch* batch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kept = std::remove_if(
      queue_.begin(), queue_.end(),
      [batch](const Task& t) { return t.batch == batch; });
  size_t revoked = static_cast<size_t>(queue_.end() - kept);
  queue_.erase(kept, queue_.end());
  return revoked;
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;  // callers always drain their batches first
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task.run();
    lock.lock();
  }
}

void ThreadPool::RunBatch(Batch& batch,
                          const std::function<void(size_t)>& fn) {
  for (;;) {
    if (batch.failed.load(std::memory_order_relaxed)) return;
    size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.total) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.mu);
      if (!batch.error) batch.error = std::current_exception();
      batch.failed.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::ParallelFor(size_t n, int parallelism,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || parallelism <= 1 || t_in_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  size_t lanes = std::min(n, static_cast<size_t>(parallelism));
  EnsureWorkers(static_cast<int>(lanes) - 1);

  // The batch is shared with the submitted lane tasks; fn is captured
  // by reference, which the rendezvous below keeps alive.
  auto batch = std::make_shared<Batch>();
  batch->total = n;
  batch->active = lanes - 1;
  for (size_t lane = 1; lane < lanes; ++lane) {
    Submit({batch.get(), [batch, &fn] {
              RunBatch(*batch, fn);
              std::lock_guard<std::mutex> lock(batch->mu);
              --batch->active;
              batch->cv.notify_all();
            }});
  }
  RunBatch(*batch, fn);  // the caller is lane 0
  // Revoke the lanes no worker picked up: the dispenser is already
  // drained (the caller's loop above saw it through), and waiting on
  // a queued-but-unstarted task can deadlock — every worker may be
  // blocked on a mutex this caller holds across the ParallelFor (a
  // DAG-shared operator input). After revocation the rendezvous only
  // waits on lanes that are genuinely running.
  size_t revoked = CancelQueued(batch.get());
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->active -= revoked;
  batch->cv.wait(lock, [&] { return batch->active == 0; });
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace sp2b::exec
