#include "core/stsm.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/check.h"
#include "common/prof.h"
#include "core/experiment_context.h"
#include "data/windows.h"
#include "graph/adjacency.h"
#include "masking/masking.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "tensor/storage.h"
#include "timeseries/pseudo_observations.h"

namespace stsm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Extracts the square distance sub-matrix at `indices`.
std::vector<double> SubDistances(const std::vector<double>& distances,
                                 int num_nodes,
                                 const std::vector<int>& indices) {
  const size_t k = indices.size();
  std::vector<double> sub(k * k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      sub[i * k + j] =
          distances[static_cast<size_t>(indices[i]) * num_nodes + indices[j]];
    }
  }
  return sub;
}

// Eval mode for a scope (Module::SetTraining): dropout is the identity and
// draws no masks, so validation and evaluation neither perturb their own
// forwards nor shift the mask stream of later training epochs.
class EvalModeScope {
 public:
  explicit EvalModeScope(Module* module)
      : module_(module), was_training_(module->is_training()) {
    module_->SetTraining(false);
  }
  ~EvalModeScope() { module_->SetTraining(was_training_); }
  EvalModeScope(const EvalModeScope&) = delete;
  EvalModeScope& operator=(const EvalModeScope&) = delete;

 private:
  Module* module_;
  bool was_training_;
};

}  // namespace

struct StsmRunner::State {
  State(const SpatioTemporalDataset& dataset, const SpaceSplit& split,
        const StsmConfig& config)
      : rng(config.seed),
        context(dataset, split, config.distance_mode, config.seed) {}

  Rng rng;
  ExperimentContext context;
  // Observed columns over the training period (model inputs/targets).
  SeriesMatrix train_observed;
  std::vector<double> dist_pseudo_train;  // Observed x observed.

  Adjacency a_s_norm_train;  // Eq. 2 adjacency, normalised, observed graph.
  MaskingContext mask_context;

  std::unique_ptr<StModel> model;
  std::unique_ptr<ProjectionHead> projection;
  std::unique_ptr<Adam> optimizer;
  std::vector<Tensor> parameters;
  WindowSpec window_spec;
};

StsmRunner::StsmRunner(const SpatioTemporalDataset& dataset,
                       const SpaceSplit& split, const StsmConfig& config)
    : dataset_(dataset),
      split_(split),
      config_(config),
      state_(std::make_unique<State>(dataset, split, config)) {
  State& s = *state_;
  const ExperimentContext& c = s.context;
  STSM_CHECK_GE(static_cast<int>(c.observed.size()), 4);
  STSM_CHECK_GE(c.time_split.train_steps,
                config.input_length + config.horizon + 1);
  s.train_observed = c.TrainObserved();
  s.dist_pseudo_train =
      SubDistances(c.pseudo_distances(), c.num_nodes(), c.observed);

  // Spatial adjacency (Eq. 2), normalised over the observed sub-graph. The
  // sub-graph adjacency for masking (Eq. 2 with epsilon_sg) stays in CSR
  // since only its neighbour structure is read.
  s.a_s_norm_train = NormalizeSpatial(
      SubAdjacency(
          c.SpatialKernel(config.epsilon_s, config.binary_spatial_kernel),
          c.observed),
      config.sparse_adjacency);
  MaskingConfig mask_config;
  mask_config.mask_ratio = config.mask_ratio;
  mask_config.top_k = config.top_k;
  // Multi-region splits (the paper's future-work extension) score masking
  // candidates against their nearest unobserved region.
  s.mask_context = BuildMaskingContext(
      Adjacency(c.SpatialKernel(config.epsilon_sg, /*binary=*/true)),
      dataset.coords, dataset.metadata, c.observed, split.TestRegions(),
      mask_config);

  // Model, projection head, optimiser.
  Rng init_rng(config.seed + 13);
  s.model = std::make_unique<StModel>(config, &init_rng);
  s.projection =
      std::make_unique<ProjectionHead>(config.hidden_dim, &init_rng);
  s.parameters = s.model->Parameters();
  if (config.contrastive) {
    const auto proj_params = s.projection->Parameters();
    s.parameters.insert(s.parameters.end(), proj_params.begin(),
                        proj_params.end());
  }
  s.optimizer = std::make_unique<Adam>(s.parameters, config.learning_rate);

  s.window_spec = WindowSpec{config.input_length, config.horizon};
}

StsmRunner::~StsmRunner() = default;

void StsmRunner::Train(ExperimentResult* result) {
  State& s = *state_;
  const ExperimentContext& c = s.context;
  const int num_observed = static_cast<int>(c.observed.size());
  const TemporalAdjacencyOptions dtw_options =
      TemporalOptions(config_, dataset_.steps_per_day);

  // Global id -> local (observed-graph) index.
  std::vector<int> global_to_local(dataset_.num_nodes(), -1);
  for (int i = 0; i < num_observed; ++i) global_to_local[c.observed[i]] = i;

  // Validation-selection state: the validation locations masked exactly
  // like the test-time unobserved region, and the best weights seen.
  std::vector<int> validation_local, validation_sources;
  SeriesMatrix validation_view;
  Adjacency a_dtw_validation;
  std::vector<std::vector<float>> best_weights;
  double best_validation_loss = 1e300;
  if (config_.validation_selection) {
    std::set<int> validation_set;
    for (int g : split_.validation) {
      validation_local.push_back(global_to_local[g]);
      validation_set.insert(global_to_local[g]);
    }
    for (int i = 0; i < num_observed; ++i) {
      if (!validation_set.count(i)) validation_sources.push_back(i);
    }
    STSM_CHECK(!validation_local.empty());
    STSM_CHECK(!validation_sources.empty());
    validation_view = s.train_observed;
    FillPseudoObservations(&validation_view, s.dist_pseudo_train,
                           validation_local, validation_sources,
                           config_.pseudo_neighbors);
    a_dtw_validation =
        TemporalAdjacency(validation_view, validation_sources,
                          validation_local, dtw_options,
                          config_.sparse_adjacency);
  }

  // Prediction MSE on the validation locations when they are masked.
  auto validation_loss = [&]() {
    NoGradGuard no_grad;
    const EvalModeScope eval_mode(s.model.get());
    Rng eval_rng(config_.seed + 101);  // Fixed windows across epochs.
    const std::vector<int> starts = SampleWindowStarts(
        0, c.time_split.train_steps, s.window_spec,
        std::max(1, config_.validation_windows), &eval_rng);
    const WindowBatch masked_batch = MakeWindowBatch(
        validation_view, starts, s.window_spec, dataset_.steps_per_day);
    const WindowBatch clean_batch = MakeWindowBatch(
        s.train_observed, starts, s.window_spec, dataset_.steps_per_day);
    const StModel::Output out =
        s.model->Forward(masked_batch.inputs, masked_batch.input_time,
                         s.a_s_norm_train, a_dtw_validation);
    const Tensor predicted =
        IndexSelect(out.predictions, 2, validation_local);
    const Tensor truth = IndexSelect(clean_batch.targets, 2, validation_local);
    return static_cast<double>(MseLoss(predicted, truth).item());
  };

  double similarity_sum = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    STSM_PROF_SCOPE("train.epoch");
    STSM_PROF_COUNT("train.epochs", 1);
    // Draw the epoch's mask (Section 3.3 / 4.1).
    const std::vector<int> masked_global =
        config_.selective_masking ? DrawSelectiveMask(s.mask_context, &s.rng)
                                  : DrawRandomMask(s.mask_context, &s.rng);
    similarity_sum += MeanMaskSimilarity(s.mask_context, masked_global);

    std::vector<int> masked_local;
    masked_local.reserve(masked_global.size());
    std::set<int> masked_set;
    for (int g : masked_global) {
      masked_local.push_back(global_to_local[g]);
      masked_set.insert(global_to_local[g]);
    }
    std::vector<int> source_local;
    for (int i = 0; i < num_observed; ++i) {
      if (!masked_set.count(i)) source_local.push_back(i);
    }
    STSM_CHECK(!source_local.empty());

    // Masked view G_o^m: masked columns replaced by pseudo-observations.
    SeriesMatrix masked_view = s.train_observed;
    FillPseudoObservations(&masked_view, s.dist_pseudo_train, masked_local,
                           source_local, config_.pseudo_neighbors);

    // Temporal-similarity adjacency, rebuilt every epoch because the mask
    // changes (Section 3.4.1).
    Adjacency a_dtw_train;
    {
      STSM_PROF_SCOPE("train.temporal_adj");
      a_dtw_train = TemporalAdjacency(masked_view, source_local, masked_local,
                                      dtw_options, config_.sparse_adjacency);
    }

    double epoch_loss = 0.0;
    for (int batch = 0; batch < config_.batches_per_epoch; ++batch) {
      STSM_PROF_SCOPE("train.batch");
      const std::vector<int> starts =
          SampleWindowStarts(0, c.time_split.train_steps, s.window_spec,
                             config_.batch_size, &s.rng);
      const WindowBatch masked_batch = MakeWindowBatch(
          masked_view, starts, s.window_spec, dataset_.steps_per_day);
      const WindowBatch clean_batch = MakeWindowBatch(
          s.train_observed, starts, s.window_spec, dataset_.steps_per_day);

      const StModel::Output masked_out =
          s.model->Forward(masked_batch.inputs, masked_batch.input_time,
                           s.a_s_norm_train, a_dtw_train);
      // Eq. 14: prediction loss over all observed locations.
      Tensor loss = MseLoss(masked_out.predictions, clean_batch.targets);

      if (config_.contrastive && static_cast<int>(starts.size()) >= 2) {
        // Original view G_o shares weights and adjacency (Section 4.2).
        const StModel::Output clean_out =
            s.model->Forward(clean_batch.inputs, clean_batch.input_time,
                             s.a_s_norm_train, a_dtw_train);
        const Tensor z_original =
            s.projection->Forward(clean_out.final_features);
        const Tensor z_masked =
            s.projection->Forward(masked_out.final_features);
        const Tensor contrastive =
            InfoNceLoss(z_original, z_masked, config_.tau);
        loss = Add(loss, Mul(contrastive, config_.lambda));  // Eq. 18.
      }

      s.optimizer->ZeroGrad();
      loss.Backward();
      ClipGradNorm(s.parameters, config_.grad_clip);
      s.optimizer->Step();
      epoch_loss += loss.item();
    }
    result->train_losses.push_back(epoch_loss / config_.batches_per_epoch);
    // Per-epoch allocator deltas land in the profile as pool.* counters.
    RecordPoolProfCounters();

    if (config_.validation_selection) {
      const double loss = validation_loss();
      if (loss < best_validation_loss) {
        best_validation_loss = loss;
        best_weights.clear();
        for (const Tensor& p : s.parameters) {
          best_weights.emplace_back(p.data(), p.data() + p.numel());
        }
      }
    }
  }
  if (config_.validation_selection && !best_weights.empty()) {
    for (size_t i = 0; i < s.parameters.size(); ++i) {
      std::copy(best_weights[i].begin(), best_weights[i].end(),
                s.parameters[i].data());
    }
  }
  result->mean_mask_similarity = similarity_sum / config_.epochs;
}

void StsmRunner::Evaluate(ExperimentResult* result) {
  STSM_PROF_SCOPE("evaluate");
  State& s = *state_;
  const ExperimentContext& c = s.context;
  NoGradGuard no_grad;
  const EvalModeScope eval_mode(s.model.get());

  // Section 3.5: the test period with the unobserved region pseudo-filled,
  // and the full graph's adjacencies; the graph the registry serves.
  const TestTimeGraph graph = BuildTestTimeGraph(
      c, TestGraphOptionsFor(config_, dataset_.steps_per_day));

  std::vector<int> starts = CapWindowStarts(
      ValidWindowStarts(c.time_split.train_steps, c.time_split.total_steps,
                        s.window_spec, config_.eval_stride),
      config_.max_eval_windows);
  STSM_CHECK(!starts.empty()) << "test period too short for a window";

  MetricsAccumulator accumulator;
  std::vector<MetricsAccumulator> per_horizon(config_.horizon);
  const int chunk = std::max(1, config_.batch_size);
  for (size_t begin = 0; begin < starts.size(); begin += chunk) {
    const std::vector<int> chunk_starts(
        starts.begin() + begin,
        starts.begin() + std::min(starts.size(), begin + chunk));
    const WindowBatch batch =
        MakeWindowBatch(graph.series, chunk_starts, s.window_spec,
                        dataset_.steps_per_day, c.time_split.train_steps);
    const StModel::Output out = s.model->Forward(
        batch.inputs, batch.input_time, graph.spatial, graph.temporal);

    // Collect predictions for the unobserved region, in raw units.
    const Tensor preds = out.predictions;  // [B, T', N, 1].
    for (size_t b = 0; b < chunk_starts.size(); ++b) {
      for (int t = 0; t < config_.horizon; ++t) {
        const int absolute_t = chunk_starts[b] + config_.input_length + t;
        for (int node : c.unobserved) {
          const float predicted = c.normalizer.Inverse(
              preds.at({static_cast<int64_t>(b), t, node, 0}));
          accumulator.Add(predicted, dataset_.series.at(absolute_t, node));
          per_horizon[t].Add(predicted, dataset_.series.at(absolute_t, node));
        }
      }
    }
  }
  result->metrics = accumulator.Compute();
  result->horizon_rmse.resize(config_.horizon);
  for (int t = 0; t < config_.horizon; ++t) {
    result->horizon_rmse[t] = per_horizon[t].Compute().rmse;
  }
}

ExperimentResult StsmRunner::Run() {
  ExperimentResult result;
  const auto train_start = std::chrono::steady_clock::now();
  Train(&result);
  result.train_seconds = SecondsSince(train_start);
  const auto test_start = std::chrono::steady_clock::now();
  Evaluate(&result);
  result.test_seconds = SecondsSince(test_start);
  return result;
}

ExperimentResult RunStsmVariant(const SpatioTemporalDataset& dataset,
                                const SpaceSplit& split, StsmVariant variant,
                                const StsmConfig& base_config) {
  const StsmConfig config = ApplyVariant(base_config, variant);
  StsmRunner runner(dataset, split, config);
  return runner.Run();
}

}  // namespace stsm
