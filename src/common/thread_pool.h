// A minimal fixed-size thread pool with a parallel-for helper.
//
// Used by the tensor library (GEMMs, SpMM, convolutions), the GCNL node and
// the graph and time-series builders (adjacencies, pseudo-observations, DTW
// neighbour search) to split one operation's independent rows or items
// across threads.

#ifndef STSM_COMMON_THREAD_POOL_H_
#define STSM_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace stsm {

// Fixed-size worker pool. Tasks are arbitrary std::function<void()>; the pool
// provides no futures — use ParallelFor for fork-join workloads.
class ThreadPool {
 public:
  // Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Runs `chunk_fn(chunk_begin, chunk_end)` over [begin, end) split into at
  // most num_threads() contiguous chunks, one queued task each, and blocks
  // until all complete. There is no grain size: a range of one item, a pool
  // of one thread, or a call made from inside one of this pool's own tasks
  // (a nested ParallelFor) runs inline on the caller; any other range goes
  // through the queue however little work it holds.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& chunk_fn);

  // Returns the process-wide pool, sized from the hardware concurrency (or
  // the STSM_NUM_THREADS environment variable when set).
  static ThreadPool& Global();

  // The worker count Global() would be created with: STSM_NUM_THREADS when
  // set, else the hardware concurrency, clamped to [1, 16]. Re-reads the
  // environment on every call (Global() samples it only once).
  static int ConfiguredThreadCount();

 private:
  void Enqueue(std::function<void()> task) STSM_EXCLUDES(mutex_);
  void WorkerLoop() STSM_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::function<void()>> tasks_ STSM_GUARDED_BY(mutex_);
  bool stop_ STSM_GUARDED_BY(mutex_) = false;
};

// Convenience wrapper over ThreadPool::Global().ParallelFor that hands each
// worker a [chunk_begin, chunk_end) range.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& chunk_fn);

}  // namespace stsm

#endif  // STSM_COMMON_THREAD_POOL_H_
