#include "serve_phase.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"
#include "core/st_model.h"
#include "nn/serialize.h"
#include "serve/net/client.h"
#include "serve/net/wire.h"
#include "tensor/ops.h"
#include "timeseries/time_features.h"

namespace stbench {

namespace serve = stsm::serve;
namespace net = stsm::serve::net;

namespace {

// Serving models use one fixed init seed: the request streams, not the
// weights, are what a workload seed varies.
constexpr uint64_t kServeModelSeed = 1;
constexpr double kHotShare = 0.2;
constexpr int kHotWindows = 16;
// Every kCheckEvery-th request's forecast is compared with Predict.
constexpr int kCheckEvery = 25;
// Served vs direct forecast, raw units: |a - b| <= tol * (1 + |b|).
constexpr double kForecastTolerance = 1e-4;

const char* ModelName(int model) { return model == 0 ? "stsm" : "stsm-trans"; }

std::vector<float> WindowAt(const stsm::SeriesMatrix& series, int start,
                            int t) {
  std::vector<float> window(static_cast<size_t>(t) * series.num_nodes);
  std::copy(series.values.begin() + static_cast<size_t>(start) *
                                        series.num_nodes,
            series.values.begin() + static_cast<size_t>(start + t) *
                                        series.num_nodes,
            window.begin());
  return window;
}

net::RequestFrame MakeFrame(uint64_t id, int model, int start,
                            double latency_limit_ms,
                            const stsm::SpatioTemporalDataset& dataset,
                            const std::vector<int>& regions, int t) {
  net::RequestFrame frame;
  frame.id = id;
  frame.deadline_ms = static_cast<uint32_t>(latency_limit_ms);
  frame.request.model = ModelName(model);
  frame.request.window = WindowAt(dataset.series, start, t);
  frame.request.regions = regions;
  frame.request.start_step = start;
  return frame;
}

// What the server computes for one request, via a direct Predict at b=1.
std::vector<float> DirectForecast(const serve::ServedModel& model,
                                  const stsm::SpatioTemporalDataset& dataset,
                                  const std::vector<int>& regions, int start) {
  const serve::ModelSpec& spec = model.spec();
  const int t = spec.config.input_length;
  const int n = spec.num_nodes;
  stsm::Tensor inputs = stsm::Tensor::Zeros(stsm::Shape({1, t, n, 1}));
  const std::vector<float> window = WindowAt(dataset.series, start, t);
  for (size_t v = 0; v < window.size(); ++v) {
    inputs.data()[v] = spec.normalizer.Transform(window[v]);
  }
  const stsm::Tensor features = stsm::Unsqueeze(
      stsm::TimeOfDayFeatures(
          stsm::TimeOfDayIds(start, t, spec.steps_per_day),
          spec.steps_per_day),
      0);
  const stsm::Tensor predictions = model.Predict(inputs, features);
  const int64_t horizon = predictions.shape()[1];
  std::vector<float> forecast(static_cast<size_t>(horizon) * regions.size());
  for (int64_t h = 0; h < horizon; ++h) {
    for (size_t r = 0; r < regions.size(); ++r) {
      forecast[static_cast<size_t>(h) * regions.size() + r] =
          spec.normalizer.Inverse(predictions.data()[h * n + regions[r]]);
    }
  }
  return forecast;
}

bool SameForecast(const std::vector<float>& served,
                  const std::vector<float>& direct) {
  if (served.size() != direct.size()) return false;
  for (size_t i = 0; i < served.size(); ++i) {
    if (!(std::fabs(served[i] - direct[i]) <=
          kForecastTolerance * (1.0 + std::fabs(direct[i])))) {
      return false;
    }
  }
  return true;
}

void CountStatus(const serve::ForecastResponse& response, PhaseResult* out) {
  switch (response.status) {
    case serve::Status::kOk:
      if (response.cache_hit) {
        ++out->cache_hits;
      } else {
        ++out->ok;
      }
      break;
    case serve::Status::kDegraded:
      ++out->degraded;
      break;
    case serve::Status::kRejected:
      ++out->rejected;
      break;
    case serve::Status::kError:
      ++out->errors;
      break;
  }
}

// One client-side request record, for span matching.
struct ClientRecord {
  uint64_t id;
  int model;
  int start;
  int lane;  // Trace tid.
  Clock::time_point send;
  Clock::time_point read;
  int batch_size;
};

// Joins client records with the wrapper's submit/done records by SpanKey:
// the first unused record of the same key submitted at or after the send.
void MatchSpans(std::vector<SubmitSpans::Record> records,
                std::vector<ClientRecord> client, Trace* trace,
                PhaseResult* out) {
  std::sort(client.begin(), client.end(),
            [](const auto& a, const auto& b) { return a.send < b.send; });
  std::unordered_map<int, std::vector<SubmitSpans::Record>> by_key;
  for (const SubmitSpans::Record& r : records) by_key[r.key].push_back(r);
  for (auto& [key, list] : by_key) {
    std::sort(list.begin(), list.end(),
              [](const auto& a, const auto& b) { return a.submit < b.submit; });
  }
  std::unordered_map<int, size_t> next;  // Per key: first unused record.
  for (const ClientRecord& c : client) {
    const int key = SpanKey(c.model, c.start);
    auto it = by_key.find(key);
    bool matched = false;
    if (it != by_key.end()) {
      std::vector<SubmitSpans::Record>& list = it->second;
      for (size_t i = next[key]; i < list.size(); ++i) {
        if (list[i].submit >= c.send && list[i].done <= c.read) {
          const SubmitSpans::Record& r = list[i];
          out->spans.push_back({MsBetween(c.send, r.submit),
                                MsBetween(r.submit, r.done),
                                MsBetween(r.done, c.read), c.batch_size,
                                c.model});
          if (trace != nullptr) {
            trace->Span("request", "client", c.send, c.read, c.lane, c.id);
            trace->Span("net.ingress", "net", c.send, r.submit, c.lane, c.id);
            trace->Span("serve.server", "serve", r.submit, r.done, c.lane,
                        c.id);
            trace->Span("net.egress", "net", r.done, c.read, c.lane, c.id);
          }
          next[key] = i + 1;
          matched = true;
          break;
        }
      }
    }
    if (!matched) ++out->unmatched_spans;
  }
}

}  // namespace

void AppendPhase(const PhaseResult& part, PhaseResult* into) {
  into->label = part.label;
  into->rate = part.rate;
  into->connections = part.connections;
  into->seconds += part.seconds;
  into->sent += part.sent;
  into->ok += part.ok;
  into->cache_hits += part.cache_hits;
  into->degraded += part.degraded;
  into->rejected += part.rejected;
  into->errors += part.errors;
  into->missing += part.missing;
  into->transport_errors += part.transport_errors;
  into->checked += part.checked;
  into->mismatches += part.mismatches;
  into->good += part.good;
  into->unmatched_spans += part.unmatched_spans;
  const auto merge = [](const std::vector<double>& from,
                        std::vector<double>* to) {
    to->insert(to->end(), from.begin(), from.end());
    std::sort(to->begin(), to->end());
  };
  merge(part.latency_ms, &into->latency_ms);
  for (int m = 0; m < kNumModels; ++m) {
    merge(part.model_latency_ms[m], &into->model_latency_ms[m]);
  }
  merge(part.lateness_ms, &into->lateness_ms);
  into->spans.insert(into->spans.end(), part.spans.begin(), part.spans.end());
}

void SubmitSpans::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<SubmitSpans::Record> SubmitSpans::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Record> out;
  out.swap(records_);
  return out;
}

ServeStack::ServeStack(const stsm::SpatioTemporalDataset& dataset,
                       const stsm::SpaceSplit& split, const Workload& workload,
                       const std::string& dir)
    : spans_(std::make_shared<SubmitSpans>()) {
  stsm::StsmConfig configs[kNumModels] = {
      TrainConfig(workload, kServeModelSeed),
      TrainConfig(workload, kServeModelSeed)};
  configs[1].temporal_module = stsm::TemporalModule::kTransformer;
  for (int m = 0; m < kNumModels; ++m) {
    const std::string path = dir + "/stbench_" + std::to_string(getpid()) +
                             "_" + ModelName(m) + ".bin";
    stsm::Rng init_rng(kServeModelSeed + 13 + 2 * m);
    const stsm::StModel model(configs[m], &init_rng);
    STSM_CHECK(stsm::SaveModule(model, path)) << "cannot write " << path;
    specs_[m] =
        serve::BuildModelSpec(ModelName(m), dataset, split, configs[m], path);
    direct_[m] = serve::ServedModel::Load(specs_[m]);
    STSM_CHECK(direct_[m]->healthy()) << "checkpoint load failed: " << path;
  }

  serve::ShardedConfig sharded_config;
  sharded_config.num_shards = 2;
  sharded_config.server.num_workers = 2;
  sharded_config.server.queue_capacity = 32;
  sharded_config.server.batch_max = 8;
  sharded_config.server.cache_capacity = 128;
  sharded_ = std::make_unique<serve::ShardedRegistry>(sharded_config);
  for (int m = 0; m < kNumModels; ++m) {
    STSM_CHECK(sharded_->Load(specs_[m]).healthy) << "registry load failed";
  }

  serve::ShardedRegistry* sharded = sharded_.get();
  std::shared_ptr<SubmitSpans> spans = spans_;
  listener_ = std::make_unique<net::Listener>(
      [sharded, spans](serve::ForecastRequest request,
                       std::function<void(serve::ForecastResponse)> done) {
        if (!spans->enabled()) {
          sharded->SubmitAsync(std::move(request), std::move(done));
          return;
        }
        const Clock::time_point submit = Clock::now();
        const int key = SpanKey(request.model == ModelName(0) ? 0 : 1,
                                request.start_step);
        sharded->SubmitAsync(
            std::move(request),
            [spans, key, submit, done = std::move(done)](
                serve::ForecastResponse response) {
              spans->Add({key, submit, Clock::now()});
              done(std::move(response));
            });
      },
      net::ListenerConfig{});
  std::string error;
  STSM_CHECK(listener_->Start(&error)) << "listener start failed: " << error;
}

ServeStack::~ServeStack() {
  Stop();
  for (const serve::ModelSpec& spec : specs_) {
    std::remove(spec.checkpoint_path.c_str());
  }
}

void ServeStack::Stop() {
  if (listener_ != nullptr) listener_->Stop();
  if (sharded_ != nullptr) sharded_->Stop();
}

serve::ServerStats ServeStack::TotalStats() const {
  serve::ServerStats total;
  for (int shard = 0; shard < sharded_->num_shards(); ++shard) {
    const serve::ServerStats s = sharded_->shard_stats(shard);
    total.submitted += s.submitted;
    total.ok += s.ok;
    total.cache_hits += s.cache_hits;
    total.degraded += s.degraded;
    total.rejected += s.rejected;
    total.errors += s.errors;
    total.batches += s.batches;
    if (total.batch_size_counts.size() < s.batch_size_counts.size()) {
      total.batch_size_counts.resize(s.batch_size_counts.size(), 0);
    }
    for (size_t i = 0; i < s.batch_size_counts.size(); ++i) {
      total.batch_size_counts[i] += s.batch_size_counts[i];
    }
  }
  return total;
}

PhaseResult RunClosedLoop(ServeStack* stack,
                          const stsm::SpatioTemporalDataset& dataset,
                          const std::vector<int>& regions, uint64_t seed,
                          double seconds, double latency_limit_ms,
                          size_t* next_window, Trace* trace) {
  PhaseResult out;
  out.label = "single";
  out.seconds = seconds;
  const int t = stack->spec(0).config.input_length;
  const int max_start = dataset.num_steps() - t - 1;
  // Even window starts belong to the closed loop and odd ones to the open
  // loop, so neither asks for a window the other put in the cache. Each
  // start is asked once per model; the model is part of the cache key.
  stsm::Rng rng(seed * 7919 + 17);
  const std::vector<int> order = rng.Permutation((max_start + 1) / 2);
  const auto start_of = [&order](size_t i) {
    return 2 * order[i / kNumModels];
  };

  net::NetClient client;
  std::string error;
  STSM_CHECK(client.Connect("127.0.0.1", stack->port(), &error))
      << "connect failed: " << error;
  std::vector<ClientRecord> records;
  std::vector<std::pair<size_t, std::vector<float>>> samples;
  const Clock::time_point end =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 1e6));
  size_t i = *next_window;
  for (; i < order.size() * kNumModels && Clock::now() < end; ++i) {
    const int model = static_cast<int>(i % kNumModels);
    const net::RequestFrame frame =
        MakeFrame(i + 1, model, start_of(i), latency_limit_ms, dataset,
                  regions, t);
    const Clock::time_point send = Clock::now();
    ++out.sent;
    net::ResponseFrame response;
    if (!client.SendRequest(frame, &error) ||
        !client.ReadResponse(&response, &error)) {
      ++out.transport_errors;
      break;
    }
    const Clock::time_point read = Clock::now();
    if (response.id != frame.id) {
      ++out.missing;
      continue;
    }
    CountStatus(response.response, &out);
    if (response.response.status == serve::Status::kOk) {
      out.latency_ms.push_back(MsBetween(send, read));
      if (!response.response.cache_hit) {
        out.model_latency_ms[model].push_back(out.latency_ms.back());
      }
      if (i % kCheckEvery == 0) {
        samples.emplace_back(i, std::move(response.response.forecast));
      }
    }
    records.push_back({frame.id, model, start_of(i), 1, send, read,
                       response.response.batch_size});
  }
  *next_window = i;
  client.Close();
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  for (std::vector<double>& v : out.model_latency_ms) {
    std::sort(v.begin(), v.end());
  }
  for (const auto& [i, forecast] : samples) {
    const int model = static_cast<int>(i % kNumModels);
    ++out.checked;
    if (!SameForecast(forecast, DirectForecast(stack->direct(model), dataset,
                                               regions, start_of(i)))) {
      ++out.mismatches;
    }
  }
  if (stack->spans().enabled()) {
    MatchSpans(stack->spans().Take(), records, trace, &out);
  }
  return out;
}

namespace {

struct Planned {
  double due_s;
  int model;
  int start;
};

// One open-loop connection. The sender writes sent_at/lateness, the reader
// writes the per-request response fields; both are pre-sized, so the two
// threads never touch the same element, and the main thread reads them only
// after joining both.
struct Lane {
  net::NetClient client;
  std::vector<Planned> plan;
  std::vector<Clock::time_point> sent_at;
  std::vector<double> lateness_ms;
  std::vector<Clock::time_point> read_at;
  std::vector<uint8_t> received;
  std::vector<uint8_t> status;
  std::vector<uint8_t> cache_hit;
  std::vector<int> batch_size;
  std::vector<std::vector<float>> forecasts;  // Sampled requests only.
  int64_t sent = 0;
  bool send_error = false;
  bool read_error = false;
};

}  // namespace

PhaseResult RunOpenLoop(ServeStack* stack,
                        const stsm::SpatioTemporalDataset& dataset,
                        const std::vector<int>& regions,
                        const std::string& label, int phase_index,
                        double rate, double seconds, int connections,
                        double latency_limit_ms, uint64_t seed, Trace* trace) {
  PhaseResult out;
  out.label = label;
  out.rate = rate;
  out.seconds = seconds;
  out.connections = connections;
  const int t = stack->spec(0).config.input_length;
  const int max_start = dataset.num_steps() - t - 1;

  // Odd starts only: the even ones belong to the closed loop.
  const auto odd_start = [max_start](stsm::Rng* rng) {
    return 2 * rng->UniformInt(max_start / 2) + 1;
  };
  stsm::Rng hot_rng(seed * 31 + 5);
  std::vector<int> hot(kHotWindows);
  for (int& start : hot) start = odd_start(&hot_rng);

  const uint64_t id_base = static_cast<uint64_t>(phase_index) << 32;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int c = 0; c < connections; ++c) {
    auto lane = std::make_unique<Lane>();
    stsm::Rng rng(seed * 7919 + static_cast<uint64_t>(phase_index) * 131 + c);
    const double lane_rate = rate / connections;
    double due = -std::log(1.0 - rng.Uniform()) / lane_rate;
    for (int k = 0; due < seconds; ++k) {
      const int model = (k + c) % kNumModels;
      const int start = rng.Uniform() < kHotShare
                            ? hot[rng.UniformInt(kHotWindows)]
                            : odd_start(&rng);
      lane->plan.push_back({due, model, start});
      due += -std::log(1.0 - rng.Uniform()) / lane_rate;
    }
    const size_t n = lane->plan.size();
    lane->sent_at.resize(n);
    lane->lateness_ms.resize(n, 0.0);
    lane->read_at.resize(n);
    lane->received.assign(n, 0);
    lane->status.assign(n, 0);
    lane->cache_hit.assign(n, 0);
    lane->batch_size.assign(n, 0);
    lane->forecasts.resize(n);
    std::string error;
    STSM_CHECK(lane->client.Connect("127.0.0.1", stack->port(), &error))
        << "connect failed: " << error;
    lanes.push_back(std::move(lane));
  }
  const auto id_of = [&](int c, size_t k) {
    return id_base + k * connections + c + 1;
  };

  const Clock::time_point phase_start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    Lane* lane = lanes[c].get();
    threads.emplace_back([&, lane, c] {
      for (size_t k = 0; k < lane->plan.size(); ++k) {
        const Planned& p = lane->plan[k];
        const Clock::time_point due =
            phase_start + std::chrono::nanoseconds(
                              static_cast<int64_t>(p.due_s * 1e9));
        std::this_thread::sleep_until(due);
        const net::RequestFrame frame =
            MakeFrame(id_of(c, k), p.model, p.start, latency_limit_ms,
                      dataset, regions, t);
        const Clock::time_point now = Clock::now();
        lane->sent_at[k] = now;
        lane->lateness_ms[k] = MsBetween(due, now);
        std::string error;
        if (!lane->client.SendRequest(frame, &error)) {
          lane->send_error = true;
          break;
        }
        ++lane->sent;
      }
      lane->client.ShutdownWrite();
    });
    threads.emplace_back([&, lane, c] {
      // Drains responses until the server's graceful close after the
      // sender's half-close.
      while (true) {
        net::ResponseFrame frame;
        std::string error;
        if (!lane->client.ReadResponse(&frame, &error)) break;
        const Clock::time_point now = Clock::now();
        const uint64_t local = frame.id - id_base - 1;
        const size_t k = static_cast<size_t>(local / connections);
        if (frame.id <= id_base || static_cast<int>(local % connections) != c ||
            k >= lane->plan.size() || lane->received[k]) {
          lane->read_error = true;
          continue;
        }
        lane->received[k] = 1;
        lane->read_at[k] = now;
        lane->status[k] = static_cast<uint8_t>(frame.response.status);
        lane->cache_hit[k] = frame.response.cache_hit ? 1 : 0;
        lane->batch_size[k] = frame.response.batch_size;
        if (k % kCheckEvery == 0) {
          lane->forecasts[k] = std::move(frame.response.forecast);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<ClientRecord> records;
  for (int c = 0; c < connections; ++c) {
    Lane& lane = *lanes[c];
    out.sent += lane.sent;
    if (lane.send_error || lane.read_error) ++out.transport_errors;
    for (size_t k = 0; k < static_cast<size_t>(lane.sent); ++k) {
      out.lateness_ms.push_back(lane.lateness_ms[k]);
      if (!lane.received[k]) {
        ++out.missing;
        continue;
      }
      serve::ForecastResponse response;
      response.status = static_cast<serve::Status>(lane.status[k]);
      response.cache_hit = lane.cache_hit[k] != 0;
      CountStatus(response, &out);
      if (response.status != serve::Status::kOk) continue;
      const Clock::time_point due =
          phase_start + std::chrono::nanoseconds(
                            static_cast<int64_t>(lane.plan[k].due_s * 1e9));
      const double latency = MsBetween(due, lane.read_at[k]);
      out.latency_ms.push_back(latency);
      if (!response.cache_hit) {
        out.model_latency_ms[lane.plan[k].model].push_back(latency);
      }
      if (latency <= latency_limit_ms) ++out.good;
      if (k % kCheckEvery == 0) {
        ++out.checked;
        if (!SameForecast(lane.forecasts[k],
                          DirectForecast(stack->direct(lane.plan[k].model),
                                         dataset, regions,
                                         lane.plan[k].start))) {
          ++out.mismatches;
        }
      }
      records.push_back({id_of(c, k), lane.plan[k].model, lane.plan[k].start,
                         1 + c, lane.sent_at[k], lane.read_at[k],
                         lane.batch_size[k]});
    }
  }
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  for (std::vector<double>& v : out.model_latency_ms) {
    std::sort(v.begin(), v.end());
  }
  std::sort(out.lateness_ms.begin(), out.lateness_ms.end());
  if (stack->spans().enabled()) {
    MatchSpans(stack->spans().Take(), records, trace, &out);
  }
  return out;
}

void ProbePredict(const ServeStack& stack,
                  const stsm::SpatioTemporalDataset& dataset, Trace* trace,
                  Report* report, double predict_f32_ms[kNumModels][2]) {
  std::printf("direct ServedModel::Predict (median ms per call):\n");
  const int batches[2] = {1, 8};
  for (int m = 0; m < kNumModels; ++m) {
    for (stsm::DType dtype : {stsm::DType::kF32, stsm::DType::kBf16}) {
      serve::ModelSpec spec = stack.spec(m);
      if (dtype != stsm::DType::kF32) {
        // BuildModelSpec's reduced-precision route: cast adjacencies; the
        // load then rounds the weights.
        spec.config.serve_dtype = dtype;
        spec.adj_spatial = spec.adj_spatial.Cast(dtype);
        spec.adj_temporal = spec.adj_temporal.Cast(dtype);
      }
      const std::shared_ptr<serve::ServedModel> model =
          serve::ServedModel::Load(spec);
      STSM_CHECK(model->healthy()) << "probe model load failed";
      const int t = spec.config.input_length;
      const int n = spec.num_nodes;
      for (int bi = 0; bi < 2; ++bi) {
        const int b = batches[bi];
        stsm::Tensor inputs = stsm::Tensor::Zeros(stsm::Shape({b, t, n, 1}));
        stsm::Tensor features = stsm::Tensor::Zeros(stsm::Shape({b, t, 3}));
        for (int i = 0; i < b; ++i) {
          const int start = (i * 97) % (dataset.num_steps() - t - 1);
          const std::vector<float> window = WindowAt(dataset.series, start, t);
          for (size_t v = 0; v < window.size(); ++v) {
            inputs.data()[static_cast<size_t>(i) * window.size() + v] =
                spec.normalizer.Transform(window[v]);
          }
          const stsm::Tensor f = stsm::TimeOfDayFeatures(
              stsm::TimeOfDayIds(start, t, spec.steps_per_day),
              spec.steps_per_day);
          std::copy(f.data(), f.data() + t * 3,
                    features.data() + static_cast<size_t>(i) * t * 3);
        }
        const std::string name = std::string("core.predict_ms.") +
                                 kModelTags[m] + ".b" + std::to_string(b) +
                                 "." + stsm::DTypeName(dtype);
        const double ms = TimeCalls(name, trace, [&] {
          model->Predict(inputs, features);
        });
        report->Add(name, ms, "ms");
        if (dtype == stsm::DType::kF32) predict_f32_ms[m][bi] = ms;
      }
    }
  }
}

}  // namespace stbench
