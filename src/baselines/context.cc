#include "baselines/context.h"

#include "common/check.h"
#include "graph/adjacency.h"

namespace stsm {

BaselineContext BuildBaselineContext(const SpatioTemporalDataset& dataset,
                                     const SpaceSplit& split,
                                     const BaselineConfig& config) {
  BaselineContext context(dataset, split, DistanceMode::kEuclidean,
                          config.seed);
  STSM_CHECK_GE(static_cast<int>(context.observed.size()), 4);
  STSM_CHECK_GE(context.time_split.train_steps,
                config.input_length + config.horizon + 1);
  context.train_observed = context.TrainObserved();

  const SparseCsr kernel = context.SpatialKernel(config.epsilon_s);
  context.a_s_kernel = kernel.ToDense();
  context.a_s_norm_full = NormalizeSpatial(kernel, /*sparse=*/false).dense();
  context.a_s_norm_train =
      NormalizeSpatial(SubAdjacency(kernel, context.observed),
                       /*sparse=*/false)
          .dense();
  return context;
}

}  // namespace stsm
