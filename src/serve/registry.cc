#include "serve/registry.h"

#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "core/experiment_context.h"
#include "nn/precision.h"
#include "nn/serialize.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "timeseries/pseudo_observations.h"

namespace stsm {
namespace serve {

ModelSpec BuildModelSpec(const std::string& name,
                         const SpatioTemporalDataset& dataset,
                         const SpaceSplit& split, const StsmConfig& config,
                         const std::string& checkpoint_path) {
  STSM_PROF_SCOPE("serve.build_spec");
  ExperimentContext context(dataset, split, config.distance_mode, config.seed);

  ModelSpec spec;
  spec.name = name;
  spec.config = config;
  spec.num_nodes = context.num_nodes();
  spec.steps_per_day = dataset.steps_per_day;
  spec.checkpoint_path = checkpoint_path;
  spec.normalizer = context.normalizer;
  spec.adj_spatial = NormalizeSpatial(
      context.SpatialKernel(config.epsilon_s, config.binary_spatial_kernel),
      config.sparse_adjacency);

  // Temporal adjacency over the full graph: unobserved columns are filled
  // with pseudo-observations first (they have no real history), as on the
  // offline test path. It reads the whole series, not only the test period
  // (DESIGN.md, "Model registry and precomputed state").
  SeriesMatrix filled = std::move(context.normalized_full);
  FillPseudoObservations(&filled, context.pseudo_distances(),
                         context.unobserved, context.observed,
                         config.pseudo_neighbors);
  spec.adj_temporal = TemporalAdjacency(filled, context.observed,
                                        context.unobserved, config,
                                        dataset.steps_per_day);

  // Reduced-precision serving stores the adjacency values at the serving
  // dtype too (DESIGN.md §13); the GEMM/SpMM kernels widen per element, so
  // propagation math still accumulates in fp32.
  if (config.serve_dtype != DType::kF32) {
    spec.adj_spatial = spec.adj_spatial.Cast(config.serve_dtype);
    spec.adj_temporal = spec.adj_temporal.Cast(config.serve_dtype);
  }
  return spec;
}

ServedModel::ServedModel(ModelSpec spec) : spec_(std::move(spec)) {}

std::shared_ptr<ServedModel> ServedModel::Load(const ModelSpec& spec) {
  STSM_PROF_SCOPE("serve.model_load");
  auto served = std::shared_ptr<ServedModel>(new ServedModel(spec));
  Rng init_rng(spec.config.seed + 13);  // Same init stream as training.
  auto model = std::make_unique<StModel>(spec.config, &init_rng);
  if (LoadModule(model.get(), spec.checkpoint_path)) {
    model->SetTraining(false);  // Inference mode: dropout becomes identity.
    if (spec.config.serve_dtype != DType::kF32) {
      // Round the restored fp32 weights to the serving dtype and freeze the
      // module; from here on a training step is a checked error.
      CastModuleForServing(model.get(), spec.config.serve_dtype);
    }
    served->weight_bytes_ = ModuleWeightBytes(*model);
    served->model_ = std::move(model);
  }
  return served;
}

Tensor ServedModel::Predict(const Tensor& inputs,
                            const Tensor& time_features) const {
  STSM_CHECK(healthy()) << "Predict on unhealthy model " << spec_.name;
  NoGradGuard no_grad;  // No autograd graph, no grad-buffer allocations.
  // The model's prediction head ends in zero-copy view ops (transpose /
  // unsqueeze), so compact here: the serving layer reads predictions.data()
  // as a flat row-major buffer.
  return Contiguous(
      model_
          ->Forward(inputs, time_features, spec_.adj_spatial,
                    spec_.adj_temporal)
          .predictions);
}

LoadResult ModelRegistry::Load(const ModelSpec& spec) {
  // Checkpoint restore happens outside the lock: a hot-swap must not stall
  // concurrent Find calls behind model construction.
  std::shared_ptr<const ServedModel> served = ServedModel::Load(spec);
  LoadResult result;
  result.healthy = served->healthy();
  std::shared_ptr<const ServedModel> replaced;  // Torn down after unlock.
  {
    MutexLock lock(mutex_);
    std::shared_ptr<const ServedModel>& slot = models_[spec.name];
    if (slot != nullptr) {
      result.previous = slot->healthy() ? EntryHealth::kHealthy
                                        : EntryHealth::kUnhealthy;
    }
    replaced = std::move(slot);
    slot = std::move(served);
  }
  return result;
}

bool ModelRegistry::Unload(const std::string& name) {
  std::shared_ptr<const ServedModel> dropped;  // Torn down after unlock.
  {
    MutexLock lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end()) return false;
    dropped = std::move(it->second);
    models_.erase(it);
  }
  return true;
}

std::shared_ptr<const ServedModel> ModelRegistry::Find(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::Names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

}  // namespace serve
}  // namespace stsm
