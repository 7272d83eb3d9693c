// ExperimentContext: the preprocessing every model of one experiment shares
// (Sections 3.5 and 5.1) — the observed/unobserved split, the time split,
// the z-score normaliser fitted on observed training data, the normalised
// series, the distances under the Table 11 distance mode and the Eq. 2
// kernel over them. StsmRunner, the baselines and the serving registry
// each build one, so every model and the server start from the same
// inputs.
//
// Construction builds nothing that only one phase needs: the training slice
// and the kernels are built on request.
//
// BuildTestTimeGraph is the one construction of the Section 3.5 test-time
// inputs: StsmRunner::Evaluate forecasts from it and the serving registry
// serves its adjacencies, so the served forecast is the evaluated one.

#ifndef STSM_CORE_EXPERIMENT_CONTEXT_H_
#define STSM_CORE_EXPERIMENT_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/splits.h"
#include "tensor/sparse.h"
#include "timeseries/temporal_adjacency.h"

namespace stsm {

// Share of the time steps in the training period; the rest is the test
// period (ExperimentContext::time_split).
inline constexpr double kTrainTimeFraction = 0.7;

struct ExperimentContext {
  // Road modes build the road distances from the stream Rng(seed + 7).
  ExperimentContext(const SpatioTemporalDataset& dataset,
                    const SpaceSplit& split, DistanceMode distance_mode,
                    uint64_t seed);

  DistanceMode distance_mode;
  std::vector<int> observed;    // Global ids, sorted.
  std::vector<int> unobserved;  // Global ids, sorted.
  TimeSplit time_split;         // 70% training, 30% test.
  Normalizer normalizer;        // Observed columns, training period.
  // Normalised series over the full graph (real values everywhere; the
  // unobserved columns are only ever ground truth, never model input).
  SeriesMatrix normalized_full;
  std::vector<double> dist_euclid;  // Row-major N x N.
  std::vector<double> dist_road;    // Empty in the Euclidean mode.

  int num_nodes() const { return normalized_full.num_nodes; }

  // The distances Eq. 2 reads (road in both road modes) and those the
  // pseudo-observations of Eq. 3 read (road only in kRoadAll).
  const std::vector<double>& adjacency_distances() const;
  const std::vector<double>& pseudo_distances() const;

  // Observed columns over the training period (model inputs and targets).
  SeriesMatrix TrainObserved() const;

  // Eq. 2 over adjacency_distances(), in CSR; ToDense() is the dense matrix.
  SparseCsr SpatialKernel(double epsilon, bool binary = false) const;
};

// Eq. 6 of an Eq. 2 kernel — its unit diagonal already supplies the
// self-loops — as CSR when `sparse`, else dense (bitwise the dense
// normalisation of the dense kernel). Pass SubAdjacency(kernel, observed)
// for the observed sub-graph.
Adjacency NormalizeSpatial(const SparseCsr& kernel, bool sparse);

// The config's q_kk/q_ku/dtw_band for a series of `steps_per_day` slots.
TemporalAdjacencyOptions TemporalOptions(const StsmConfig& config,
                                         int steps_per_day);

// The graph hyper-parameters of the test-time graph: every config field
// BuildTestTimeGraph reads. The serving registry keys its shared graphs on
// this value, so the build cannot read a field the key leaves out.
struct TestGraphOptions {
  double epsilon_s = 0.0;
  bool binary_spatial_kernel = false;
  bool sparse_adjacency = false;  // CSR adjacencies when true, else dense.
  int pseudo_neighbors = 0;
  TemporalAdjacencyOptions dtw;  // q_kk, q_ku, dtw_band, steps_per_day.

  bool operator==(const TestGraphOptions&) const = default;
};

// The config's test-time graph options for a series of `steps_per_day`
// slots.
TestGraphOptions TestGraphOptionsFor(const StsmConfig& config,
                                     int steps_per_day);

// The test-time inputs of Section 3.5. Row 0 of `series` is the absolute
// step context.time_split.train_steps; evaluation windows keep absolute
// starts (MakeWindowBatch's first_step) for their time-of-day features.
struct TestTimeGraph {
  // The normalised test period, the unobserved columns replaced by
  // pseudo-observations (Eq. 3) from the observed ones. The fill is per
  // time step, so it equals the whole-series fill sliced to the period.
  SeriesMatrix series;
  Adjacency spatial;   // Eq. 2 under epsilon_s, normalised by Eq. 6.
  Adjacency temporal;  // A_dtw over `series`, row-normalised.
};

TestTimeGraph BuildTestTimeGraph(const ExperimentContext& context,
                                 const TestGraphOptions& options);

// The temporal-similarity adjacency A_dtw (Section 3.4.1) from `sources` to
// `targets` over `series` under `options`, row-normalised with self-loops.
// It is built dense (K x U blocks embedded in N x N); `sparse`
// (config.sparse_adjacency) converts it to CSR once, so every propagation
// step runs through SpMM.
Adjacency TemporalAdjacency(const SeriesMatrix& series,
                            const std::vector<int>& sources,
                            const std::vector<int>& targets,
                            const TemporalAdjacencyOptions& options,
                            bool sparse);

}  // namespace stsm

#endif  // STSM_CORE_EXPERIMENT_CONTEXT_H_
