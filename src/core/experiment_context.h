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
