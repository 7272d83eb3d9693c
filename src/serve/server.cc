#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "tensor/ops.h"
#include "timeseries/time_features.h"

namespace stsm {
namespace serve {
namespace {

ForecastResponse ErrorResponse(std::string message) {
  ForecastResponse response;
  response.status = Status::kError;
  response.message = std::move(message);
  return response;
}

CacheKey KeyFor(const ForecastRequest& request) {
  CacheKey key;
  key.model = request.model;
  key.window_hash = HashWindow(request.window);
  key.start_step = request.start_step;
  key.regions = request.regions;
  return key;
}

}  // namespace

namespace {
// Construction-time validation: a zero-worker server hangs every queued
// request, a zero-capacity queue rejects everything, and a zero batch_max
// indexes batch_size_counts_ out of range — all are configuration bugs
// better reported up front than debugged under load.
const ServerConfig& ValidatedConfig(const ServerConfig& config) {
  STSM_CHECK_GE(config.num_workers, 1)
      << "— ServerConfig.num_workers must be positive (a zero-worker server "
         "never answers queued requests)";
  STSM_CHECK_GE(config.queue_capacity, 1)
      << "— ServerConfig.queue_capacity must be positive (a zero-capacity "
         "queue rejects every request)";
  STSM_CHECK_GE(config.batch_max, 1)
      << "— ServerConfig.batch_max must be positive";
  STSM_CHECK_GE(config.cache_capacity, 0)
      << "— ServerConfig.cache_capacity must be >= 0 (0 disables the cache)";
  return config;
}
}  // namespace

ForecastServer::ForecastServer(const ModelRegistry* registry,
                               const ServerConfig& config)
    : registry_(registry),
      config_(ValidatedConfig(config)),
      cache_(static_cast<size_t>(config.cache_capacity)),
      queue_(static_cast<size_t>(config.queue_capacity)),
      batch_size_counts_(
          new std::atomic<uint64_t>[config.batch_max + 1]()) {
  workers_.reserve(config.num_workers);
  for (int w = 0; w < config.num_workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ForecastServer::~ForecastServer() { Stop(); }

void ForecastServer::Stop() {
  MutexLock lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  queue_.Close();  // Workers drain remaining items, then exit.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void ForecastServer::SubmitAsync(ForecastRequest request,
                                 ResponseCallback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point now = Clock::now();

  // Validation against the registered model's shapes.
  const std::shared_ptr<const ServedModel> model =
      registry_->Find(request.model);
  if (model == nullptr) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    done(ErrorResponse("unknown model: " + request.model));
    return;
  }
  const ModelSpec& spec = model->spec();
  const size_t expected_window =
      static_cast<size_t>(spec.config.input_length) * spec.num_nodes;
  if (request.window.size() != expected_window || request.regions.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    done(ErrorResponse("bad request shape"));
    return;
  }
  for (int region : request.regions) {
    if (region < 0 || region >= spec.num_nodes) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      done(ErrorResponse("region id out of range"));
      return;
    }
  }
  // Refused before the cache lookup (DESIGN.md, "Non-finite values"): a NaN
  // in the receptive field would come back as a kOk forecast holding NaN,
  // and the cache would keep that answer.
  if (!std::all_of(request.window.begin(), request.window.end(),
                   [](float value) { return std::isfinite(value); })) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    done(ErrorResponse("non-finite window value"));
    return;
  }

  if (request.deadline == Clock::time_point::max() &&
      config_.default_deadline.count() > 0) {
    request.deadline = now + config_.default_deadline;
  }

  // Fast path: identical query answered from the cache.
  if (model->healthy()) {
    ForecastResponse cached;
    if (cache_.Lookup(KeyFor(request), &cached.forecast)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cached.status = Status::kOk;
      cached.cache_hit = true;
      cached.horizon = spec.config.horizon;
      cached.latency = Clock::now() - now;
      if (prof::Enabled()) {
        prof::RecordTimerNs(
            "serve.latency",
            static_cast<uint64_t>(cached.latency.count()));
      }
      done(std::move(cached));
      return;
    }
  }

  Pending pending;
  pending.enqueue_time = now;
  pending.request = std::move(request);
  pending.done = std::move(done);
  // TryPush consumes the Pending even on failure, so keep a handle on the
  // callback to answer the rejection from.
  ResponseCallback on_reject = pending.done;
  if (!queue_.TryPush(std::move(pending))) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    ForecastResponse rejected;
    rejected.status = Status::kRejected;
    rejected.message = "queue full";
    rejected.latency = Clock::now() - now;
    on_reject(std::move(rejected));
  }
}

std::future<ForecastResponse> ForecastServer::Submit(ForecastRequest request) {
  auto promise = std::make_shared<std::promise<ForecastResponse>>();
  std::future<ForecastResponse> future = promise->get_future();
  SubmitAsync(std::move(request), [promise](ForecastResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

ForecastResponse ForecastServer::SubmitAndWait(ForecastRequest request) {
  return Submit(std::move(request)).get();
}

void ForecastServer::WorkerLoop() {
  std::vector<Pending> batch;
  const auto compatible = [](const Pending& first, const Pending& other) {
    return first.request.model == other.request.model;
  };
  while (queue_.PopBatch(&batch, static_cast<size_t>(config_.batch_max),
                         compatible)) {
    ProcessBatch(&batch);
  }
}

void ForecastServer::ProcessBatch(std::vector<Pending>* batch) {
  const std::shared_ptr<const ServedModel> model =
      registry_->Find((*batch)[0].request.model);
  // The model was present at Submit time; Find can only fail here if the
  // registry entry was replaced and removed concurrently — treat like a
  // load failure and degrade.
  if (model == nullptr || !model->healthy()) {
    for (Pending& pending : *batch) {
      const int n = model ? model->spec().num_nodes : 0;
      const int horizon = model ? model->spec().config.horizon : 1;
      Respond(&pending,
              Fallback(pending.request, n, horizon, "model unavailable"));
    }
    return;
  }
  const ModelSpec& spec = model->spec();
  const int t = spec.config.input_length;
  const int n = spec.num_nodes;
  const int horizon = spec.config.horizon;

  // Split the batch into live requests and deadline misses.
  const Clock::time_point now = Clock::now();
  std::vector<Pending*> live;
  live.reserve(batch->size());
  for (Pending& pending : *batch) {
    if (now > pending.request.deadline) {
      Respond(&pending,
              Fallback(pending.request, n, horizon, "deadline missed"));
    } else {
      live.push_back(&pending);
    }
  }
  if (live.empty()) return;

  const int b = static_cast<int>(live.size());
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_size_counts_[std::min(b, config_.batch_max)].fetch_add(
      1, std::memory_order_relaxed);

  // Stack the windows into [B, T, N, 1] (normalised) and the per-request
  // time features into [B, T, 3].
  Tensor inputs = Tensor::Zeros(Shape({b, t, n, 1}));
  Tensor time_features = Tensor::Zeros(Shape({b, t, 3}));
  float* x = inputs.data();
  float* tf = time_features.data();
  for (int i = 0; i < b; ++i) {
    const ForecastRequest& request = live[i]->request;
    const int64_t base = static_cast<int64_t>(i) * t * n;
    for (size_t v = 0; v < request.window.size(); ++v) {
      x[base + static_cast<int64_t>(v)] =
          spec.normalizer.Transform(request.window[v]);
    }
    const Tensor features = TimeOfDayFeatures(
        TimeOfDayIds(request.start_step, t, spec.steps_per_day),
        spec.steps_per_day);
    std::copy(features.data(), features.data() + static_cast<int64_t>(t) * 3,
              tf + static_cast<int64_t>(i) * t * 3);
  }

  Tensor predictions;
  {
    STSM_PROF_SCOPE("serve.batch_forward");
    predictions = model->Predict(inputs, time_features);
  }
  const float* p = predictions.data();
  const int64_t horizon_out = predictions.shape()[1];

  for (int i = 0; i < b; ++i) {
    const ForecastRequest& request = live[i]->request;
    ForecastResponse response;
    response.status = Status::kOk;
    response.horizon = static_cast<int>(horizon_out);
    response.batch_size = b;
    response.forecast.resize(static_cast<size_t>(horizon_out) *
                             request.regions.size());
    for (int64_t h = 0; h < horizon_out; ++h) {
      for (size_t r = 0; r < request.regions.size(); ++r) {
        const int64_t index =
            ((static_cast<int64_t>(i) * horizon_out + h) * n +
             request.regions[r]);
        response.forecast[static_cast<size_t>(h) * request.regions.size() +
                          r] = spec.normalizer.Inverse(p[index]);
      }
    }
    cache_.Insert(KeyFor(request), response.forecast);
    Respond(live[i], std::move(response));
  }
}

void ForecastServer::Respond(Pending* pending, ForecastResponse response) {
  response.latency = Clock::now() - pending->enqueue_time;
  if (prof::Enabled()) {
    prof::RecordTimerNs("serve.latency",
                        static_cast<uint64_t>(response.latency.count()));
  }
  switch (response.status) {
    case Status::kOk:
      ok_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::kDegraded:
      degraded_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  pending->done(std::move(response));
}

ForecastResponse ForecastServer::Fallback(const ForecastRequest& request,
                                          int num_nodes, int horizon,
                                          const std::string& reason) {
  ForecastResponse response;
  response.status = Status::kDegraded;
  response.message = reason;
  response.horizon = horizon;
  const size_t regions = request.regions.size();
  response.forecast.assign(static_cast<size_t>(horizon) * regions, 0.0f);
  if (num_nodes <= 0) return response;
  const int steps = static_cast<int>(request.window.size()) / num_nodes;
  for (size_t r = 0; r < regions; ++r) {
    double sum = 0.0;
    for (int step = 0; step < steps; ++step) {
      sum += request.window[static_cast<size_t>(step) * num_nodes +
                            request.regions[r]];
    }
    const float mean = steps > 0 ? static_cast<float>(sum / steps) : 0.0f;
    for (int h = 0; h < horizon; ++h) {
      response.forecast[static_cast<size_t>(h) * regions + r] = mean;
    }
  }
  return response;
}

ServerStats ForecastServer::stats() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.degraded = degraded_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batch_size_counts.resize(config_.batch_max + 1, 0);
  for (int i = 0; i <= config_.batch_max; ++i) {
    stats.batch_size_counts[i] =
        batch_size_counts_[i].load(std::memory_order_relaxed);
  }
  stats.cache = cache_.stats();
  return stats;
}

}  // namespace serve
}  // namespace stsm
