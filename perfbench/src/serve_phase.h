// Serving side of a workload: the server stack (two models behind a 2-shard
// ShardedRegistry and the epoll Listener on loopback), the closed- and
// open-loop load generators, the served-output checks, and the direct
// ServedModel::Predict probe.

#ifndef STBENCH_SERVE_PHASE_H_
#define STBENCH_SERVE_PHASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/splits.h"
#include "report.h"
#include "serve/net/listener.h"
#include "serve/registry.h"
#include "serve/sharding.h"
#include "workload.h"

namespace stbench {

constexpr int kNumModels = 2;  // 0: "stsm" (TCN), 1: "stsm-trans".
// Metric-name tags of the two models.
constexpr const char* kModelTags[kNumModels] = {"tcn", "trans"};

// The key that joins a client request with the SubmitFn wrapper's record
// of it. The request's wire id is not passed to a SubmitFn, but its model
// and start step are; requests with equal keys are told apart by time.
inline int SpanKey(int model, int start_step) {
  return start_step * kNumModels + model;
}

// Submit and completion times seen by the benchmark's own SubmitFn wrapper.
class SubmitSpans {
 public:
  struct Record {
    int key;  // SpanKey of the request.
    Clock::time_point submit;
    Clock::time_point done;
  };
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Add(const Record& record);
  std::vector<Record> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Record> records_;
};

class ServeStack {
 public:
  // Writes both checkpoints under `dir` (deterministic init weights:
  // serving cost does not depend on their values), builds both specs,
  // loads them into the registry and starts the listener. The destructor
  // removes the checkpoints.
  ServeStack(const stsm::SpatioTemporalDataset& dataset,
             const stsm::SpaceSplit& split, const Workload& workload,
             const std::string& dir);
  ~ServeStack();

  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  // Stops the listener, then drains and stops the shards. Idempotent.
  void Stop();

  uint16_t port() const { return listener_->port(); }
  const stsm::serve::ModelSpec& spec(int model) const { return specs_[model]; }
  // A separately loaded copy of each served model, for output checks.
  const stsm::serve::ServedModel& direct(int model) const {
    return *direct_[model];
  }
  SubmitSpans& spans() { return *spans_; }
  stsm::serve::ServerStats TotalStats() const;
  stsm::serve::net::ListenerStats listener_stats() const {
    return listener_->stats();
  }

 private:
  stsm::serve::ModelSpec specs_[kNumModels];
  std::shared_ptr<stsm::serve::ServedModel> direct_[kNumModels];
  std::shared_ptr<SubmitSpans> spans_;
  std::unique_ptr<stsm::serve::ShardedRegistry> sharded_;
  // Declared after sharded_: destroyed first, since its SubmitFn calls in.
  std::unique_ptr<stsm::serve::net::Listener> listener_;
};

// Per-request spans of a traced phase, matched from the client's send/read
// times and the SubmitFn wrapper's records.
struct RequestSpans {
  double ingress_ms;  // client send -> submit
  double server_ms;   // submit -> done callback
  double egress_ms;   // done callback -> response read
  int batch_size;
  int model;
};

struct PhaseResult {
  std::string label;
  double rate = 0.0;  // Open loop: arrivals per second; 0 for closed loop.
  double seconds = 0.0;
  int connections = 1;
  int64_t sent = 0;
  int64_t ok = 0;  // Model-served, excluding cache hits.
  int64_t cache_hits = 0;
  int64_t degraded = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t missing = 0;
  int64_t transport_errors = 0;
  int64_t checked = 0;     // Sampled forecasts compared with Predict.
  int64_t mismatches = 0;  // ...that differed beyond the tolerance.
  int64_t good = 0;        // OK responses within the latency limit.
  std::vector<double> latency_ms;   // OK responses, ascending.
  // The model-served ones (cache hits excluded) split by model, each
  // ascending: what the gated medians read. A cache hit answers in under a
  // millisecond, and how many there are depends on the seed's draws of hot
  // windows, so counting them moved the median from run to run.
  std::vector<double> model_latency_ms[kNumModels];
  std::vector<double> lateness_ms;  // Open loop: send - due, ascending.
  std::vector<RequestSpans> spans;  // Traced runs only.
  int64_t unmatched_spans = 0;

  int64_t failures() const {
    return errors + missing + transport_errors + mismatches;
  }
};

// Adds `part`'s counts and samples (kept ascending) to `into`.
void AppendPhase(const PhaseResult& part, PhaseResult* into);

// Every request, in both loops, asks for an answer within the workload's
// latency limit: its deadline_ms is the limit, so the server degrades a
// request it picks up after that (an answer that late would not count as
// good anyway) instead of spending model time on it.

// One connection, one request in flight, alternating models, for `seconds`.
// Windows follow one seeded permutation from *next_window on, which is
// advanced past the windows used, so windows never repeat across calls
// (no cache hits).
PhaseResult RunClosedLoop(ServeStack* stack,
                          const stsm::SpatioTemporalDataset& dataset,
                          const std::vector<int>& regions, uint64_t seed,
                          double seconds, double latency_limit_ms,
                          size_t* next_window, Trace* trace);

// Poisson arrivals at `rate` split over `connections` seeded streams, for
// `seconds` of schedule. Half the requests go to each model; kHotShare of
// them re-ask one of kHotWindows windows so the cache sees hits and inserts.
// `good` counts OK responses within `latency_limit_ms` of their due time.
PhaseResult RunOpenLoop(ServeStack* stack,
                        const stsm::SpatioTemporalDataset& dataset,
                        const std::vector<int>& regions,
                        const std::string& label, int phase_index,
                        double rate, double seconds, int connections,
                        double latency_limit_ms, uint64_t seed, Trace* trace);

// Median ms of a direct ServedModel::Predict per model, batch {1, 8} and
// dtype {f32, bf16}; adds core.predict_ms.* metrics. Fills
// predict_f32_ms[model][0 for b1, 1 for b8] for the queue-wait estimate.
void ProbePredict(const ServeStack& stack,
                  const stsm::SpatioTemporalDataset& dataset, Trace* trace,
                  Report* report, double predict_f32_ms[kNumModels][2]);

}  // namespace stbench

#endif  // STBENCH_SERVE_PHASE_H_
