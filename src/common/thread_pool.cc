#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"

namespace stsm {
namespace {

// The pool whose worker loop runs on this thread; null off the workers.
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  STSM_CHECK_GE(num_threads, 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.Wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t)>& chunk_fn) {
  const int64_t total = end - begin;
  if (total <= 0) return;
  const int threads = num_threads();
  // Small ranges are cheaper inline than through the queue. A call from
  // one of this pool's own workers runs inline too: queueing its chunks and
  // blocking would park the worker, and once every worker is parked no one
  // is left to run the queued chunks.
  if (total == 1 || threads == 1 || current_worker_pool == this) {
    chunk_fn(begin, end);
    return;
  }
  // Size the chunks for `threads` workers, then count only the non-empty
  // ones: 5 items on 4 threads are 3 chunks of at most 2, not a fourth
  // chunk that starts past the end.
  const int64_t workers = std::min<int64_t>(threads, total);
  const int64_t chunk_size = (total + workers - 1) / workers;
  const int num_chunks =
      static_cast<int>((total + chunk_size - 1) / chunk_size);

  // `remaining` is guarded by done_mutex, NOT an atomic: the waiter owns
  // the stack frame these live in, so it must not be able to observe zero
  // (and destroy the mutex/condvar) until the last worker has finished its
  // notify-under-lock. An atomic decrement outside the lock reopens that
  // destruction race against a spurious wakeup.
  int remaining = num_chunks;
  Mutex done_mutex;
  CondVar done_cv;

  for (int c = 0; c < num_chunks; ++c) {
    const int64_t chunk_begin = begin + c * chunk_size;
    const int64_t chunk_end = std::min(end, chunk_begin + chunk_size);
    Enqueue([&, chunk_begin, chunk_end] {
      chunk_fn(chunk_begin, chunk_end);
      MutexLock lock(done_mutex);
      if (--remaining == 0) done_cv.NotifyOne();
    });
  }
  MutexLock lock(done_mutex);
  while (remaining != 0) done_cv.Wait(done_mutex);
}

int ThreadPool::ConfiguredThreadCount() {
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (const char* env = std::getenv("STSM_NUM_THREADS")) {
    threads = std::atoi(env);
  }
  return std::max(1, std::min(threads, 16));
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(ConfiguredThreadCount());
  return *pool;
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& chunk_fn) {
  ThreadPool::Global().ParallelFor(begin, end, chunk_fn);
}

}  // namespace stsm
