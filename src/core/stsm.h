// StsmRunner: end-to-end training and evaluation of STSM on one dataset
// split, implementing Sections 3.5 and 4 of the paper:
//
//   1. Fit a z-score normaliser on the observed training data.
//   2. Build the spatial adjacency A_s and the sub-graph adjacency A_sg
//      (Eq. 2) under the configured distance function.
//   3. Each epoch: draw a (selective or random) sub-graph mask, fill the
//      masked columns with pseudo-observations (Eq. 3), rebuild the
//      temporal-similarity adjacency A_dtw^train, and optimise the
//      prediction loss (Eq. 14) plus, optionally, the contrastive loss
//      (Eq. 17-18) between the masked and the original graph view.
//   4. At test time, fill the unobserved region with pseudo-observations
//      over the test period, build A_dtw over the full graph from them
//      (BuildTestTimeGraph, the graph the serving registry serves), and
//      forecast the unobserved locations (Section 3.5), reporting
//      RMSE/MAE/MAPE/R2 in raw units.

#ifndef STSM_CORE_STSM_H_
#define STSM_CORE_STSM_H_

#include <memory>

#include "core/config.h"
#include "core/experiment.h"
#include "core/st_model.h"
#include "data/dataset.h"
#include "data/splits.h"

namespace stsm {

class StsmRunner {
 public:
  // `dataset` and `split` must outlive the runner.
  StsmRunner(const SpatioTemporalDataset& dataset, const SpaceSplit& split,
             const StsmConfig& config);
  ~StsmRunner();

  StsmRunner(const StsmRunner&) = delete;
  StsmRunner& operator=(const StsmRunner&) = delete;

  // Trains the model and evaluates on the unobserved region.
  ExperimentResult Run();

  const StsmConfig& config() const { return config_; }

 private:
  struct State;  // Heavy precomputed state (adjacency, normaliser, ...).

  void Train(ExperimentResult* result);
  void Evaluate(ExperimentResult* result);

  const SpatioTemporalDataset& dataset_;
  const SpaceSplit& split_;
  StsmConfig config_;
  std::unique_ptr<State> state_;
};

// Convenience wrapper: configure from variant + dataset name and run.
ExperimentResult RunStsmVariant(const SpatioTemporalDataset& dataset,
                                const SpaceSplit& split, StsmVariant variant,
                                const StsmConfig& base_config);

}  // namespace stsm

#endif  // STSM_CORE_STSM_H_
