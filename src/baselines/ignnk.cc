#include "baselines/ignnk.h"

#include <chrono>
#include <set>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "data/windows.h"
#include "nn/gcn.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "tensor/ops.h"

namespace stsm {
namespace {

// Time-window-as-features GNN: [B, N, T] -> GCN stack -> [B, N, T'].
class IgnnkModel : public Module {
 public:
  IgnnkModel(int input_length, int horizon, int hidden, int layers, Rng* rng) {
    STSM_CHECK_GE(layers, 2);
    layers_.reserve(layers);
    layers_.emplace_back(input_length, hidden, rng);
    for (int l = 1; l < layers - 1; ++l) {
      layers_.emplace_back(hidden, hidden, rng);
    }
    layers_.emplace_back(hidden, horizon, rng);
  }

  // x: [B, N, T] (masked nodes zeroed); adj: [N, N] normalised.
  Tensor Forward(const Tensor& adj, const Tensor& x) const {
    Tensor h = x;
    for (size_t l = 0; l < layers_.size(); ++l) {
      h = layers_[l].Forward(adj, h);
      if (l + 1 < layers_.size()) h = Relu(h);
    }
    return h;  // [B, N, T'].
  }

  std::vector<Tensor> Parameters() const override {
    std::vector<Tensor> params;
    for (const GcnLayer& layer : layers_) {
      const auto p = layer.Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
    return params;
  }

 private:
  std::vector<GcnLayer> layers_;
};

// Converts a WindowBatch input [B, T, N, 1] to [B, N, T].
Tensor ToNodeFeatures(const Tensor& inputs) {
  const int64_t batch = inputs.shape()[0];
  const int64_t time = inputs.shape()[1];
  const int64_t nodes = inputs.shape()[2];
  return Transpose(Reshape(inputs, Shape({batch, time, nodes})), 1, 2);
}

}  // namespace

ExperimentResult RunIgnnk(const SpatioTemporalDataset& dataset,
                          const SpaceSplit& split,
                          const BaselineConfig& config) {
  const BaselineContext context = BuildBaselineContext(dataset, split, config);
  Rng rng(config.seed);
  Rng init_rng(config.seed + 13);

  IgnnkModel model(config.input_length, config.horizon, config.hidden_dim,
                   config.ignnk_layers, &init_rng);
  std::vector<Tensor> parameters = model.Parameters();
  Adam optimizer(parameters, config.learning_rate);

  const WindowSpec spec{config.input_length, config.horizon};
  const int num_observed = static_cast<int>(context.observed.size());

  ExperimentResult result;
  const auto train_start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    STSM_PROF_SCOPE("ignnk.train.epoch");
    double epoch_loss = 0.0;
    for (int batch_index = 0; batch_index < config.batches_per_epoch;
         ++batch_index) {
      const std::vector<int> starts =
          SampleWindowStarts(0, context.time_split.train_steps, spec,
                             config.batch_size, &rng);
      const WindowBatch batch = MakeWindowBatch(
          context.train_observed, starts, spec, dataset.steps_per_day);

      // Random scattered mask (IGNNK's original training augmentation).
      const int mask_count = std::max(
          1, static_cast<int>(num_observed * config.ignnk_mask_ratio));
      const std::vector<int> masked =
          rng.SampleWithoutReplacement(num_observed, mask_count);

      // Clone (not Detach): the mask zeroing below mutates in place and must
      // not write through to the batch's underlying storage. Clone also
      // compacts strided views, so the flat row arithmetic below is valid.
      Tensor inputs = ToNodeFeatures(batch.inputs).Clone();  // [B, N, T].
      float* data = inputs.data();
      const int64_t b_count = inputs.shape()[0];
      const int64_t t_len = inputs.shape()[2];
      for (int64_t b = 0; b < b_count; ++b) {
        for (int node : masked) {
          float* row = data + (b * num_observed + node) * t_len;
          std::fill(row, row + t_len, 0.0f);
        }
      }

      const Tensor predictions =
          model.Forward(context.a_s_norm_train, inputs);       // [B, N, T'].
      const Tensor targets = ToNodeFeatures(batch.targets);    // [B, N, T'].
      Tensor loss = MseLoss(predictions, targets);

      optimizer.ZeroGrad();
      loss.Backward();
      ClipGradNorm(parameters, config.grad_clip);
      optimizer.Step();
      epoch_loss += loss.item();
    }
    result.train_losses.push_back(epoch_loss / config.batches_per_epoch);
  }
  result.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    train_start)
          .count();

  // ---- Evaluation: full graph, unobserved region zeroed ----
  const auto test_start = std::chrono::steady_clock::now();
  {
    NoGradGuard no_grad;
    SeriesMatrix test_input = context.normalized_full;
    for (int t = 0; t < test_input.num_steps; ++t) {
      for (int node : context.unobserved) test_input.set(t, node, 0.0f);
    }
    std::vector<int> starts = CapWindowStarts(
        ValidWindowStarts(context.time_split.train_steps,
                          context.time_split.total_steps, spec,
                          config.eval_stride),
        config.max_eval_windows);
    STSM_CHECK(!starts.empty());

    MetricsAccumulator accumulator;
    const int chunk = std::max(1, config.batch_size);
    for (size_t begin = 0; begin < starts.size(); begin += chunk) {
      const std::vector<int> chunk_starts(
          starts.begin() + begin,
          starts.begin() + std::min(starts.size(), begin + chunk));
      const WindowBatch batch = MakeWindowBatch(test_input, chunk_starts, spec,
                                                dataset.steps_per_day);
      const Tensor predictions =
          model.Forward(context.a_s_norm_full, ToNodeFeatures(batch.inputs));
      for (size_t b = 0; b < chunk_starts.size(); ++b) {
        for (int t = 0; t < config.horizon; ++t) {
          const int absolute_t = chunk_starts[b] + config.input_length + t;
          for (int node : context.unobserved) {
            const float predicted = context.normalizer.Inverse(
                predictions.at({static_cast<int64_t>(b), node, t}));
            accumulator.Add(predicted, dataset.series.at(absolute_t, node));
          }
        }
      }
    }
    result.metrics = accumulator.Compute();
  }
  result.test_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    test_start)
          .count();
  return result;
}

ZooNetwork MakeIgnnkNetwork(const BaselineConfig& config, int num_nodes) {
  Rng init_rng(config.seed + 13);  // Matches RunIgnnk's init stream.
  auto model = std::make_shared<IgnnkModel>(
      config.input_length, config.horizon, config.hidden_dim,
      config.ignnk_layers, &init_rng);
  const int input_length = config.input_length;
  ZooNetwork network;
  network.module = model;
  network.probe = [model, num_nodes, input_length](uint64_t seed) {
    Rng probe_rng(seed);
    const Tensor x = Tensor::Normal(
        Shape({1, num_nodes, input_length}), 0.0f, 1.0f, &probe_rng);
    // Identity adjacency is already row-normalised.
    return model->Forward(Tensor::Eye(num_nodes), x);
  };
  return network;
}

}  // namespace stsm
