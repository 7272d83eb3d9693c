#include "core/experiment_context.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "graph/road.h"
#include "timeseries/pseudo_observations.h"

namespace stsm {

ExperimentContext::ExperimentContext(const SpatioTemporalDataset& dataset,
                                     const SpaceSplit& split,
                                     DistanceMode distance_mode, uint64_t seed)
    : distance_mode(distance_mode),
      observed(split.Observed()),
      unobserved(split.test),
      time_split(SplitTime(dataset.num_steps(), kTrainTimeFraction)),
      normalized_full(dataset.series),
      dist_euclid(PairwiseDistances(dataset.coords)) {
  STSM_CHECK(!observed.empty());
  STSM_CHECK(!unobserved.empty());
  normalizer.Fit(dataset.series, observed, time_split.train_steps);
  normalizer.TransformInPlace(&normalized_full);
  if (distance_mode != DistanceMode::kEuclidean) {
    Rng road_rng(seed + 7);
    dist_road = RoadNetworkDistances(dataset.coords, /*k_nearest=*/3,
                                     /*detour_factor=*/1.3,
                                     /*detour_jitter=*/0.1, &road_rng);
  }
}

const std::vector<double>& ExperimentContext::adjacency_distances() const {
  return distance_mode == DistanceMode::kEuclidean ? dist_euclid : dist_road;
}

const std::vector<double>& ExperimentContext::pseudo_distances() const {
  return distance_mode == DistanceMode::kRoadAll ? dist_road : dist_euclid;
}

SeriesMatrix ExperimentContext::TrainObserved() const {
  SeriesMatrix train(time_split.train_steps,
                     static_cast<int>(observed.size()));
  for (int t = 0; t < time_split.train_steps; ++t) {
    for (size_t c = 0; c < observed.size(); ++c) {
      train.set(t, static_cast<int>(c), normalized_full.at(t, observed[c]));
    }
  }
  return train;
}

SparseCsr ExperimentContext::SpatialKernel(double epsilon, bool binary) const {
  return GaussianThresholdAdjacencyCsr(adjacency_distances(), num_nodes(),
                                       epsilon, /*sigma_override=*/0.0,
                                       binary);
}

Adjacency NormalizeSpatial(const SparseCsr& kernel, bool sparse) {
  SparseCsr normalized = NormalizeSymmetric(kernel, /*add_self_loops=*/false);
  if (sparse) return Adjacency(std::move(normalized));
  return Adjacency(normalized.ToDense());
}

TemporalAdjacencyOptions TemporalOptions(const StsmConfig& config,
                                         int steps_per_day) {
  TemporalAdjacencyOptions options;
  options.q_kk = config.q_kk;
  options.q_ku = config.q_ku;
  options.steps_per_day = steps_per_day;
  options.dtw_band = config.dtw_band;
  return options;
}

Adjacency TemporalAdjacency(const SeriesMatrix& series,
                            const std::vector<int>& sources,
                            const std::vector<int>& targets,
                            const TemporalAdjacencyOptions& options,
                            bool sparse) {
  Tensor dtw = NormalizeRow(
      TemporalSimilarityAdjacency(series, sources, targets, options),
      /*add_self_loops=*/true);
  if (sparse) return Adjacency(SparseCsr::FromDense(dtw));
  return Adjacency(std::move(dtw));
}

TestGraphOptions TestGraphOptionsFor(const StsmConfig& config,
                                     int steps_per_day) {
  TestGraphOptions options;
  options.epsilon_s = config.epsilon_s;
  options.binary_spatial_kernel = config.binary_spatial_kernel;
  options.sparse_adjacency = config.sparse_adjacency;
  options.pseudo_neighbors = config.pseudo_neighbors;
  options.dtw = TemporalOptions(config, steps_per_day);
  return options;
}

TestTimeGraph BuildTestTimeGraph(const ExperimentContext& context,
                                 const TestGraphOptions& options) {
  TestTimeGraph graph;
  graph.series = context.normalized_full.TimeSlice(
      context.time_split.train_steps, context.time_split.total_steps);
  FillPseudoObservations(&graph.series, context.pseudo_distances(),
                         context.unobserved, context.observed,
                         options.pseudo_neighbors);
  graph.spatial = NormalizeSpatial(
      context.SpatialKernel(options.epsilon_s, options.binary_spatial_kernel),
      options.sparse_adjacency);
  graph.temporal =
      TemporalAdjacency(graph.series, context.observed, context.unobserved,
                        options.dtw, options.sparse_adjacency);
  return graph;
}

}  // namespace stsm
