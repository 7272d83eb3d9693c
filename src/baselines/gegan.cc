#include "baselines/gegan.h"

#include <chrono>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "data/windows.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "timeseries/pseudo_observations.h"

namespace stsm {
namespace {

constexpr int kNoiseDim = 4;
constexpr int kEmbeddingSteps = 200;
constexpr int kEmbeddingPairsPerStep = 64;

// Three-layer MLP.
class Mlp : public Module {
 public:
  Mlp(int64_t in, int64_t hidden, int64_t out, Rng* rng)
      : l1_(in, hidden, rng), l2_(hidden, hidden, rng), l3_(hidden, out, rng) {}

  Tensor Forward(const Tensor& x) const {
    return l3_.Forward(LeakyRelu(l2_.Forward(LeakyRelu(l1_.Forward(x)))));
  }

  std::vector<Tensor> Parameters() const override {
    return ConcatParameters(
        {l1_.Parameters(), l2_.Parameters(), l3_.Parameters()});
  }

 private:
  Linear l1_, l2_, l3_;
};

// Trains LINE-style first-order embeddings from the binary adjacency:
// sigmoid(e_i . e_j) -> 1 for edges, -> 0 for random non-edges.
Tensor TrainEmbeddings(const Tensor& adjacency, int embedding_dim, Rng* rng) {
  const int n = static_cast<int>(adjacency.shape()[0]);
  Rng init_rng(rng->NextU64());
  Tensor embeddings = Tensor::Normal(Shape({n, embedding_dim}), 0.0f, 0.1f,
                                     &init_rng, /*requires_grad=*/true);
  std::vector<Tensor> params = {embeddings};
  Adam optimizer(params, 0.05f);

  // Edge list (excluding self-loops).
  std::vector<std::pair<int, int>> edges;
  const float* a = adjacency.data();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && a[static_cast<int64_t>(i) * n + j] != 0.0f) {
        edges.emplace_back(i, j);
      }
    }
  }
  STSM_CHECK(!edges.empty()) << "adjacency has no edges";

  for (int step = 0; step < kEmbeddingSteps; ++step) {
    std::vector<int> lhs, rhs;
    std::vector<float> labels;
    for (int p = 0; p < kEmbeddingPairsPerStep; ++p) {
      const auto& [i, j] = edges[rng->UniformInt(static_cast<int>(edges.size()))];
      lhs.push_back(i);
      rhs.push_back(j);
      labels.push_back(1.0f);
      lhs.push_back(rng->UniformInt(n));
      rhs.push_back(rng->UniformInt(n));
      labels.push_back(0.0f);
    }
    const Tensor e_lhs = IndexSelect(embeddings, 0, lhs);
    const Tensor e_rhs = IndexSelect(embeddings, 0, rhs);
    const Tensor logits = Sum(Mul(e_lhs, e_rhs), 1);
    const Tensor probs = Sigmoid(logits);
    const Tensor targets = Tensor::FromVector(
        Shape({static_cast<int64_t>(labels.size())}), labels);
    Tensor loss = BinaryCrossEntropy(probs, targets);
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
  }
  // Zero-copy detach: training is over, so sharing the trained embedding
  // buffer with the returned handle is safe (no further in-place updates).
  return embeddings.Detach();
}

// Gathers rows of a [steps x nodes] matrix into a [count, T] tensor of
// node windows starting at `start`.
void FillWindow(const SeriesMatrix& series, int start, int length, int node,
                float* out) {
  for (int t = 0; t < length; ++t) {
    out[t] = series.at(start + t, node);
  }
}

}  // namespace

ExperimentResult RunGeGan(const SpatioTemporalDataset& dataset,
                          const SpaceSplit& split,
                          const BaselineConfig& config) {
  const BaselineContext context = BuildBaselineContext(dataset, split, config);
  Rng rng(config.seed);
  Rng init_rng(config.seed + 13);

  ExperimentResult result;
  const auto train_start = std::chrono::steady_clock::now();

  // Transductive embeddings over the FULL graph (structure is known for the
  // unobserved region even though its data is not).
  const Tensor embeddings =
      TrainEmbeddings(context.a_s_kernel, config.gegan_embedding_dim, &rng);
  const int embedding_dim = config.gegan_embedding_dim;

  // Conditioning series for the generator: observed nodes keep their own
  // history; unobserved nodes get the inverse-distance aggregate of the
  // observed ones (the only history available for them at test time).
  SeriesMatrix aggregated = context.normalized_full;
  FillPseudoObservations(&aggregated, context.dist_euclid,
                         context.unobserved, context.observed);

  const int gen_in = embedding_dim + config.input_length + kNoiseDim;
  Mlp generator(gen_in, 2 * config.hidden_dim, config.horizon, &init_rng);
  Mlp discriminator(embedding_dim + config.horizon, 2 * config.hidden_dim, 1,
                    &init_rng);
  std::vector<Tensor> g_params = generator.Parameters();
  std::vector<Tensor> d_params = discriminator.Parameters();
  Adam g_optimizer(g_params, config.learning_rate * 0.5f);
  Adam d_optimizer(d_params, config.learning_rate * 0.5f);

  const WindowSpec spec{config.input_length, config.horizon};
  const int num_observed = static_cast<int>(context.observed.size());
  const int total_epochs = config.epochs * config.gegan_epochs_multiplier;
  const int pairs_per_batch = config.batch_size * 4;

  auto build_batch = [&](std::vector<int>* node_ids, Tensor* condition,
                         Tensor* real_future) {
    std::vector<int> starts = SampleWindowStarts(
        0, context.time_split.train_steps, spec, pairs_per_batch, &rng);
    node_ids->clear();
    const int count = static_cast<int>(starts.size());
    *condition = Tensor::Zeros(Shape({count, config.input_length}));
    *real_future = Tensor::Zeros(Shape({count, config.horizon}));
    for (int p = 0; p < count; ++p) {
      const int node = context.observed[rng.UniformInt(num_observed)];
      node_ids->push_back(node);
      FillWindow(aggregated, starts[p], config.input_length, node,
                 condition->data() + p * config.input_length);
      FillWindow(context.normalized_full, starts[p] + config.input_length,
                 config.horizon, node,
                 real_future->data() + p * config.horizon);
    }
  };

  auto generate = [&](const std::vector<int>& node_ids,
                      const Tensor& condition) {
    const int count = static_cast<int>(node_ids.size());
    const Tensor node_embeddings = IndexSelect(embeddings, 0, node_ids);
    Rng noise_rng(rng.NextU64());
    const Tensor noise = Tensor::Normal(Shape({count, kNoiseDim}), 0.0f, 1.0f,
                                        &noise_rng);
    return generator.Forward(Concat({node_embeddings, condition, noise}, 1));
  };

  for (int epoch = 0; epoch < total_epochs; ++epoch) {
    STSM_PROF_SCOPE("gegan.train.epoch");
    double epoch_loss = 0.0;
    for (int batch = 0; batch < config.batches_per_epoch; ++batch) {
      std::vector<int> node_ids;
      Tensor condition, real_future;
      build_batch(&node_ids, &condition, &real_future);
      const Tensor node_embeddings = IndexSelect(embeddings, 0, node_ids);
      const int count = static_cast<int>(node_ids.size());

      // ---- Discriminator step ----
      const Tensor fake_detached = generate(node_ids, condition).Detach();
      const Tensor d_real = Sigmoid(
          discriminator.Forward(Concat({node_embeddings, real_future}, 1)));
      const Tensor d_fake = Sigmoid(
          discriminator.Forward(Concat({node_embeddings, fake_detached}, 1)));
      const Tensor ones = Tensor::Ones(Shape({count, 1}));
      const Tensor zeros = Tensor::Zeros(Shape({count, 1}));
      Tensor d_loss = Add(BinaryCrossEntropy(d_real, ones),
                          BinaryCrossEntropy(d_fake, zeros));
      d_optimizer.ZeroGrad();
      d_loss.Backward();
      ClipGradNorm(d_params, config.grad_clip);
      d_optimizer.Step();

      // ---- Generator step ----
      const Tensor fake = generate(node_ids, condition);
      const Tensor d_on_fake = Sigmoid(
          discriminator.Forward(Concat({node_embeddings, fake}, 1)));
      Tensor g_loss =
          Add(BinaryCrossEntropy(d_on_fake, ones),
              Mul(MseLoss(fake, real_future), config.gegan_mse_weight));
      g_optimizer.ZeroGrad();
      g_loss.Backward();
      ClipGradNorm(g_params, config.grad_clip);
      g_optimizer.Step();

      epoch_loss += g_loss.item();
    }
    result.train_losses.push_back(epoch_loss / config.batches_per_epoch);
  }
  result.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    train_start)
          .count();

  // ---- Evaluation ----
  const auto test_start = std::chrono::steady_clock::now();
  {
    NoGradGuard no_grad;
    std::vector<int> starts = CapWindowStarts(
        ValidWindowStarts(context.time_split.train_steps,
                          context.time_split.total_steps, spec,
                          config.eval_stride),
        config.max_eval_windows);
    STSM_CHECK(!starts.empty());

    MetricsAccumulator accumulator;
    const int num_unobserved = static_cast<int>(context.unobserved.size());
    for (int start : starts) {
      Tensor condition =
          Tensor::Zeros(Shape({num_unobserved, config.input_length}));
      for (int u = 0; u < num_unobserved; ++u) {
        FillWindow(aggregated, start, config.input_length,
                   context.unobserved[u],
                   condition.data() + u * config.input_length);
      }
      const Tensor fake = generate(context.unobserved, condition);
      for (int u = 0; u < num_unobserved; ++u) {
        for (int t = 0; t < config.horizon; ++t) {
          const float predicted = context.normalizer.Inverse(
              fake.at({u, t}));
          accumulator.Add(predicted,
                          dataset.series.at(start + config.input_length + t,
                                            context.unobserved[u]));
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

namespace {

// Generator + discriminator as one checkpointable module. Parameter order
// (generator first) matches the g_params/d_params concatenation a serving
// or test caller would save.
class GeGanNetwork : public Module {
 public:
  GeGanNetwork(const BaselineConfig& config, Rng* rng)
      : generator_(config.gegan_embedding_dim + config.input_length +
                       kNoiseDim,
                   2 * config.hidden_dim, config.horizon, rng),
        discriminator_(config.gegan_embedding_dim + config.horizon,
                       2 * config.hidden_dim, 1, rng) {}

  Tensor Generate(const Tensor& z) const { return generator_.Forward(z); }

  std::vector<Tensor> Parameters() const override {
    return ConcatParameters(
        {generator_.Parameters(), discriminator_.Parameters()});
  }
  std::vector<Module*> Children() override {
    return {&generator_, &discriminator_};
  }

 private:
  Mlp generator_;
  Mlp discriminator_;
};

}  // namespace

ZooNetwork MakeGeGanNetwork(const BaselineConfig& config) {
  Rng init_rng(config.seed + 13);  // Matches RunGeGan's init stream.
  auto model = std::make_shared<GeGanNetwork>(config, &init_rng);
  const int64_t gen_in =
      config.gegan_embedding_dim + config.input_length + kNoiseDim;
  ZooNetwork network;
  network.module = model;
  network.probe = [model, gen_in](uint64_t seed) {
    Rng probe_rng(seed);
    const Tensor z =
        Tensor::Normal(Shape({2, gen_in}), 0.0f, 1.0f, &probe_rng);
    return model->Generate(z);
  };
  return network;
}

}  // namespace stsm
