#include "baselines/increase.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "data/windows.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "timeseries/dtw.h"
#include "timeseries/pseudo_observations.h"

namespace stsm {
namespace {

// Aggregation plan of one target: neighbour columns and softmax weights for
// both relations (spatial, temporal-pattern).
struct TargetPlan {
  std::vector<int> spatial_neighbors;   // Column indices into the source set.
  std::vector<float> spatial_weights;
  std::vector<int> pattern_neighbors;
  std::vector<float> pattern_weights;
};

// Softmax of negative distances: closer -> larger weight.
std::vector<float> SoftmaxOfNegative(const std::vector<double>& distances) {
  double scale = 0.0;
  for (double d : distances) scale += d;
  scale = std::max(scale / distances.size(), 1e-9);
  double denom = 0.0;
  std::vector<double> exps(distances.size());
  for (size_t i = 0; i < distances.size(); ++i) {
    exps[i] = std::exp(-distances[i] / scale);
    denom += exps[i];
  }
  std::vector<float> weights(distances.size());
  for (size_t i = 0; i < distances.size(); ++i) {
    weights[i] = static_cast<float>(exps[i] / denom);
  }
  return weights;
}

// k nearest entries of `distance_row` over `candidates`, excluding
// `self_index` (pass -1 to keep all candidates).
std::vector<int> NearestK(const std::vector<double>& distance_row,
                          const std::vector<int>& candidates, int self_index,
                          int k) {
  std::vector<std::pair<double, int>> order;
  order.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (static_cast<int>(c) == self_index) continue;
    order.emplace_back(distance_row[candidates[c]], static_cast<int>(c));
  }
  const int keep = std::min<int>(k, static_cast<int>(order.size()));
  std::partial_sort(order.begin(), order.begin() + keep, order.end());
  std::vector<int> result(keep);
  for (int i = 0; i < keep; ++i) result[i] = order[i].second;
  return result;
}

// Builds aggregation plans for a set of targets.
//
// `sources_global` are the observed columns available for aggregation,
// `targets_global` the nodes to plan for. `self_of_target[t]` gives the
// source-set position of target t (or -1 when the target is not a source,
// i.e. an unobserved node). `series` columns follow `sources_global` order
// for the DTW profiles; `target_profiles` supplies each target's own
// profile (pseudo-filled for unobserved targets).
std::vector<TargetPlan> BuildPlans(
    const std::vector<double>& distances, int num_nodes,
    const std::vector<int>& sources_global,
    const std::vector<int>& targets_global,
    const std::vector<int>& self_of_target,
    const std::vector<std::vector<float>>& source_profiles,
    const std::vector<std::vector<float>>& target_profiles, int k,
    int dtw_band) {
  // One profile pool for the pattern search: the sources, then the targets.
  const int num_sources = static_cast<int>(source_profiles.size());
  std::vector<std::vector<float>> profiles = source_profiles;
  profiles.insert(profiles.end(), target_profiles.begin(),
                  target_profiles.end());
  const DtwNeighbourSearch search(profiles, dtw_band);

  std::vector<TargetPlan> plans(targets_global.size());
  for (size_t t = 0; t < targets_global.size(); ++t) {
    TargetPlan& plan = plans[t];
    const int target = targets_global[t];
    // Spatial relation.
    const double* row = distances.data() + static_cast<size_t>(target) * num_nodes;
    std::vector<double> row_copy(row, row + num_nodes);
    plan.spatial_neighbors =
        NearestK(row_copy, sources_global, self_of_target[t], k);
    std::vector<double> spatial_d(plan.spatial_neighbors.size());
    for (size_t i = 0; i < plan.spatial_neighbors.size(); ++i) {
      spatial_d[i] = row_copy[sources_global[plan.spatial_neighbors[i]]];
    }
    plan.spatial_weights = SoftmaxOfNegative(spatial_d);

    // Temporal-pattern relation: the k nearest sources by DTW between
    // daily profiles, DtwDistance(target, source).
    std::vector<int> candidates;
    for (int c = 0; c < num_sources; ++c) {
      if (c != self_of_target[t]) candidates.push_back(c);
    }
    std::vector<double> pattern_d;
    for (const DtwNeighbour& neighbour :
         search.Nearest(num_sources + static_cast<int>(t), candidates, k,
                        DtwArgumentOrder::kQueryFirst)) {
      plan.pattern_neighbors.push_back(neighbour.index);
      pattern_d.push_back(neighbour.distance);
    }
    plan.pattern_weights = SoftmaxOfNegative(pattern_d);
  }
  return plans;
}

// Fills the [num_pairs, T, 2] sequence tensor for (window, target) pairs.
// `source_series` is the [steps x num_sources] matrix aggregations read.
Tensor BuildSequences(const SeriesMatrix& source_series,
                      const std::vector<TargetPlan>& plans,
                      const std::vector<int>& target_ids,
                      const std::vector<int>& window_starts, int input_length) {
  const int pairs =
      static_cast<int>(target_ids.size() * window_starts.size());
  Tensor sequences = Tensor::Zeros(Shape({pairs, input_length, 2}));
  float* out = sequences.data();
  int pair = 0;
  for (int start : window_starts) {
    for (int target : target_ids) {
      const TargetPlan& plan = plans[target];
      for (int t = 0; t < input_length; ++t) {
        const float* row = source_series.values.data() +
                           static_cast<size_t>(start + t) *
                               source_series.num_nodes;
        float spatial = 0.0f, pattern = 0.0f;
        for (size_t i = 0; i < plan.spatial_neighbors.size(); ++i) {
          spatial += plan.spatial_weights[i] * row[plan.spatial_neighbors[i]];
        }
        for (size_t i = 0; i < plan.pattern_neighbors.size(); ++i) {
          pattern += plan.pattern_weights[i] * row[plan.pattern_neighbors[i]];
        }
        out[(pair * input_length + t) * 2 + 0] = spatial;
        out[(pair * input_length + t) * 2 + 1] = pattern;
      }
      ++pair;
    }
  }
  return sequences;
}

}  // namespace

ExperimentResult RunIncrease(const SpatioTemporalDataset& dataset,
                             const SpaceSplit& split,
                             const BaselineConfig& config) {
  const BaselineContext context = BuildBaselineContext(dataset, split, config);
  Rng rng(config.seed);
  Rng init_rng(config.seed + 13);

  Gru encoder(2, config.hidden_dim, &init_rng);
  Linear decoder(config.hidden_dim, config.horizon, &init_rng);
  std::vector<Tensor> parameters =
      ConcatParameters({encoder.Parameters(), decoder.Parameters()});
  Adam optimizer(parameters, config.learning_rate);

  const WindowSpec spec{config.input_length, config.horizon};
  const int num_observed = static_cast<int>(context.observed.size());
  const int dtw_band = 8;

  // Daily profiles of the observed training columns.
  std::vector<int> observed_columns(num_observed);
  std::iota(observed_columns.begin(), observed_columns.end(), 0);
  const std::vector<std::vector<float>> observed_profiles = DailyProfiles(
      context.train_observed, observed_columns, dataset.steps_per_day);

  // Training plans: every observed node is a target; its own column is
  // excluded from aggregation.
  std::vector<int> self_index(num_observed);
  for (int i = 0; i < num_observed; ++i) self_index[i] = i;
  const std::vector<TargetPlan> train_plans = BuildPlans(
      context.dist_euclid, dataset.num_nodes(), context.observed,
      context.observed, self_index, observed_profiles, observed_profiles,
      config.increase_neighbors, dtw_band);

  ExperimentResult result;
  const auto train_start = std::chrono::steady_clock::now();
  const int nodes_per_batch = std::min(num_observed, 16);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    STSM_PROF_SCOPE("increase.train.epoch");
    double epoch_loss = 0.0;
    for (int batch_index = 0; batch_index < config.batches_per_epoch;
         ++batch_index) {
      const std::vector<int> starts =
          SampleWindowStarts(0, context.time_split.train_steps, spec,
                             config.batch_size, &rng);
      const std::vector<int> node_sample =
          rng.SampleWithoutReplacement(num_observed, nodes_per_batch);

      const Tensor sequences =
          BuildSequences(context.train_observed, train_plans, node_sample,
                         starts, config.input_length);
      const Tensor hidden = encoder.ForwardFinal(sequences);
      const Tensor predictions = decoder.Forward(hidden);  // [pairs, T'].

      // Matching targets.
      Tensor targets = Tensor::Zeros(predictions.shape());
      float* target_data = targets.data();
      int pair = 0;
      for (int start : starts) {
        for (int node : node_sample) {
          for (int t = 0; t < config.horizon; ++t) {
            target_data[pair * config.horizon + t] = context.train_observed.at(
                start + config.input_length + t, node);
          }
          ++pair;
        }
      }
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

  // ---- Evaluation ----
  const auto test_start = std::chrono::steady_clock::now();
  {
    NoGradGuard no_grad;
    // Observed columns over all steps (aggregation sources at test time).
    SeriesMatrix observed_series(context.normalized_full.num_steps,
                                 num_observed);
    for (int t = 0; t < observed_series.num_steps; ++t) {
      for (int c = 0; c < num_observed; ++c) {
        observed_series.set(t, c,
                            context.normalized_full.at(t, context.observed[c]));
      }
    }
    // Target profiles come from pseudo-observations (no real data exists).
    SeriesMatrix pseudo_full = context.normalized_full;
    FillPseudoObservations(&pseudo_full, context.dist_euclid,
                           context.unobserved, context.observed);
    const std::vector<std::vector<float>> target_profiles = DailyProfiles(
        pseudo_full, context.unobserved, dataset.steps_per_day);
    const std::vector<int> no_self(context.unobserved.size(), -1);
    const std::vector<TargetPlan> test_plans = BuildPlans(
        context.dist_euclid, dataset.num_nodes(), context.observed,
        context.unobserved, no_self, observed_profiles, target_profiles,
        config.increase_neighbors, dtw_band);

    std::vector<int> starts = CapWindowStarts(
        ValidWindowStarts(context.time_split.train_steps,
                          context.time_split.total_steps, spec,
                          config.eval_stride),
        config.max_eval_windows);
    STSM_CHECK(!starts.empty());

    std::vector<int> all_targets(context.unobserved.size());
    for (size_t u = 0; u < all_targets.size(); ++u) {
      all_targets[u] = static_cast<int>(u);
    }

    MetricsAccumulator accumulator;
    for (int start : starts) {
      const Tensor sequences =
          BuildSequences(observed_series, test_plans, all_targets, {start},
                         config.input_length);
      const Tensor predictions =
          decoder.Forward(encoder.ForwardFinal(sequences));
      for (size_t u = 0; u < context.unobserved.size(); ++u) {
        for (int t = 0; t < config.horizon; ++t) {
          const float predicted = context.normalizer.Inverse(
              predictions.at({static_cast<int64_t>(u), t}));
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

// GRU encoder + linear decoder as one checkpointable module, mirroring the
// encoder/decoder pair RunIncrease trains (same parameter order).
class IncreaseNetwork : public Module {
 public:
  IncreaseNetwork(const BaselineConfig& config, Rng* rng)
      : encoder_(2, config.hidden_dim, rng),
        decoder_(config.hidden_dim, config.horizon, rng) {}

  // sequences: [pairs, T, 2] -> [pairs, T'].
  Tensor Predict(const Tensor& sequences) const {
    return decoder_.Forward(encoder_.ForwardFinal(sequences));
  }

  std::vector<Tensor> Parameters() const override {
    return ConcatParameters({encoder_.Parameters(), decoder_.Parameters()});
  }
  std::vector<Module*> Children() override { return {&encoder_, &decoder_}; }

 private:
  Gru encoder_;
  Linear decoder_;
};

}  // namespace

ZooNetwork MakeIncreaseNetwork(const BaselineConfig& config) {
  Rng init_rng(config.seed + 13);  // Matches RunIncrease's init stream.
  auto model = std::make_shared<IncreaseNetwork>(config, &init_rng);
  const int input_length = config.input_length;
  ZooNetwork network;
  network.module = model;
  network.probe = [model, input_length](uint64_t seed) {
    Rng probe_rng(seed);
    const Tensor sequences =
        Tensor::Normal(Shape({2, input_length, 2}), 0.0f, 1.0f, &probe_rng);
    return model->Predict(sequences);
  };
  return network;
}

}  // namespace stsm
