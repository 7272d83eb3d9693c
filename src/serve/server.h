// ForecastServer: the concurrent request path of stsm::serve.
//
//   Submit() ── validate ── cache lookup ──> bounded queue ──> workers
//                  │             │                               │
//               kError        kOk (hit)          micro-batch drain, one
//              (immediate)   (immediate)         batched no-grad forward
//                                                       │
//                                  deadline missed / unhealthy model:
//                                  historical-average fallback, kDegraded
//
// Backpressure: when the queue is full, Submit answers kRejected at once
// instead of queueing unbounded latency. Each worker pops the oldest
// request plus up to batch_max-1 later requests for the SAME model (their
// windows stack into one [B, T, N, 1] forward; per-request time features
// may differ, so start steps need not match). Requests whose deadline has
// passed by pickup time — or whose model failed to load — are answered by
// the per-node mean of their own observation window, tagged kDegraded.

#ifndef STSM_SERVE_SERVER_H_
#define STSM_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "serve/cache.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "serve/types.h"

namespace stsm {
namespace serve {

// Validated at ForecastServer construction: num_workers, queue_capacity and
// batch_max must be >= 1 and cache_capacity >= 0, or construction aborts
// with a diagnostic instead of hanging (zero workers) or exhibiting UB.
struct ServerConfig {
  int num_workers = 2;
  int queue_capacity = 64;
  // Upper bound on requests fused into one batched forward.
  int batch_max = 8;
  // LRU entries; 0 disables the forecast cache.
  int cache_capacity = 128;
  // Applied to requests that arrive without a deadline; zero = unlimited.
  std::chrono::milliseconds default_deadline{0};
};

// Point-in-time counters (monotonic since construction): the serve layer's
// one record of request events; prof carries timings only.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t ok = 0;          // Model-served responses (excludes cache hits).
  uint64_t cache_hits = 0;
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t errors = 0;
  uint64_t batches = 0;     // Batched forwards executed.
  // batch_size_counts[b] = number of batches of size b (index 0 unused).
  std::vector<uint64_t> batch_size_counts;
  CacheStats cache;
};

class ForecastServer {
 public:
  // `registry` must outlive the server.
  ForecastServer(const ModelRegistry* registry, const ServerConfig& config);
  ~ForecastServer();

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  // Invoked exactly once per accepted request, either inline from the
  // submitting thread (validation error, cache hit, queue-full rejection)
  // or from a worker thread. Must not block: the network event loop's
  // completions ride on it.
  using ResponseCallback = std::function<void(ForecastResponse)>;

  // Callback entry point used by the network ingress: `done` fires when the
  // response is ready, on whichever thread produced it.
  void SubmitAsync(ForecastRequest request, ResponseCallback done);

  // Asynchronous entry point. The future is always fulfilled — with
  // kError/kRejected immediately, with a cache hit immediately, or by a
  // worker thread otherwise.
  std::future<ForecastResponse> Submit(ForecastRequest request);

  // Blocking convenience wrapper.
  ForecastResponse SubmitAndWait(ForecastRequest request);

  // Drains the queue, then stops the workers. Idempotent and safe to call
  // from any thread (concurrent calls are serialised; the losers return
  // after the workers have been joined); also run by the destructor.
  // Accepted requests are answered before workers exit.
  void Stop() STSM_EXCLUDES(stop_mutex_);

  ServerStats stats() const;
  const ServerConfig& config() const { return config_; }

 private:
  struct Pending {
    ForecastRequest request;
    Clock::time_point enqueue_time;
    ResponseCallback done;
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending>* batch);
  // Fulfills one pending request, stamping latency and recording stats.
  void Respond(Pending* pending, ForecastResponse response);
  // Historical-average fallback: per-region mean of the request's own raw
  // window, repeated across the horizon.
  static ForecastResponse Fallback(const ForecastRequest& request,
                                   int num_nodes, int horizon,
                                   const std::string& reason);

  const ModelRegistry* registry_;
  const ServerConfig config_;
  ForecastCache cache_;
  BoundedQueue<Pending> queue_;
  // Shutdown state: workers_ is populated once in the constructor and
  // consumed exactly once by the first Stop(); the mutex makes concurrent
  // Stop() calls (explicit + destructor) join each thread only once.
  Mutex stop_mutex_;
  std::vector<std::thread> workers_ STSM_GUARDED_BY(stop_mutex_);
  bool stopped_ STSM_GUARDED_BY(stop_mutex_) = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> batches_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> batch_size_counts_;
};

}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_SERVER_H_
