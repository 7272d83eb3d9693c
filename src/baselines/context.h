// Shared setup for the adapted baseline models (Section 5.1.2/5.1.3). The
// observed/unobserved bookkeeping, the normaliser, the normalised series
// and the distances are an ExperimentContext in the Euclidean mode — the
// one construction StsmRunner uses — so comparisons are fair. On top, the
// baselines hold the observed training slice and the dense Eq. 2 kernel
// with its Eq. 6 normalisations, all from the context's kernel.

#ifndef STSM_BASELINES_CONTEXT_H_
#define STSM_BASELINES_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "core/experiment_context.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "tensor/tensor.h"

namespace stsm {

// Scale and shared hyper-parameters for baseline training. Mirrors the
// scale knobs of StsmConfig so all models train under the same budget.
struct BaselineConfig {
  int input_length = 12;
  int horizon = 12;
  int hidden_dim = 16;
  int epochs = 6;
  int batches_per_epoch = 10;
  int batch_size = 8;
  float learning_rate = 0.01f;
  float grad_clip = 5.0f;
  double epsilon_s = 0.05;
  uint64_t seed = 1;
  int eval_stride = 6;
  int max_eval_windows = 48;

  // IGNNK: random scatter-mask ratio during training and GCN depth.
  double ignnk_mask_ratio = 0.5;
  int ignnk_layers = 3;

  // INCREASE: nearest observed neighbours aggregated per target.
  int increase_neighbors = 5;

  // GE-GAN: embedding dimensionality, reconstruction weight in the
  // generator loss, and the extra epochs GANs need to converge (the paper's
  // Table 5 shows GE-GAN training ~15x longer).
  int gegan_embedding_dim = 16;
  float gegan_mse_weight = 0.1f;
  int gegan_epochs_multiplier = 3;
};

// Precomputed data shared by all baseline runners.
struct BaselineContext : ExperimentContext {
  using ExperimentContext::ExperimentContext;

  SeriesMatrix train_observed;  // Observed columns, training period.
  Tensor a_s_kernel;            // Eq. 2 adjacency over the full graph.
  Tensor a_s_norm_full;         // Symmetric-normalised.
  Tensor a_s_norm_train;        // Observed sub-graph, normalised.
};

BaselineContext BuildBaselineContext(const SpatioTemporalDataset& dataset,
                                     const SpaceSplit& split,
                                     const BaselineConfig& config);

}  // namespace stsm

#endif  // STSM_BASELINES_CONTEXT_H_
