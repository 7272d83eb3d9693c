#include "timeseries/temporal_adjacency.h"

#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "timeseries/dtw.h"

namespace stsm {

std::vector<double> ProfileDtwDistances(const SeriesMatrix& series,
                                        int steps_per_day, int dtw_band) {
  const int n = series.num_nodes;
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<std::vector<float>> profiles =
      DailyProfiles(series, all, steps_per_day);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  // All pairs cost the same, so one flat ParallelFor splits them evenly.
  std::vector<double> distances(static_cast<size_t>(n) * n, 0.0);
  ParallelFor(0, static_cast<int64_t>(pairs.size()),
              [&](int64_t begin, int64_t end) {
                for (int64_t p = begin; p < end; ++p) {
                  const auto [i, j] = pairs[p];
                  const double d =
                      DtwDistance(profiles[i], profiles[j], dtw_band);
                  distances[static_cast<size_t>(i) * n + j] = d;
                  distances[static_cast<size_t>(j) * n + i] = d;
                }
              });
  return distances;
}

Tensor TemporalSimilarityAdjacency(const SeriesMatrix& series,
                                   const std::vector<int>& observed,
                                   const std::vector<int>& targets,
                                   const TemporalAdjacencyOptions& options) {
  const int n = series.num_nodes;
  STSM_CHECK(!observed.empty());
  // Profiles of the nodes a query or a candidate reads; the rest stay empty.
  std::vector<int> read;
  std::vector<bool> listed(n, false);
  for (const std::vector<int>* nodes : {&observed, &targets}) {
    for (int node : *nodes) {
      STSM_CHECK(node >= 0 && node < n);
      if (!listed[node]) read.push_back(node);
      listed[node] = true;
    }
  }
  std::vector<std::vector<float>> read_profiles =
      DailyProfiles(series, read, options.steps_per_day);
  std::vector<std::vector<float>> profiles(n);
  for (size_t i = 0; i < read.size(); ++i) {
    profiles[read[i]] = std::move(read_profiles[i]);
  }
  const DtwNeighbourSearch search(profiles, options.dtw_band);

  // One query per list entry: observed nodes keep q_kk neighbours, targets
  // q_ku. Each query writes only its own slot, so the result does not
  // depend on how ParallelFor splits the range.
  const int num_observed = static_cast<int>(observed.size());
  const int num_queries = num_observed + static_cast<int>(targets.size());
  std::vector<std::vector<DtwNeighbour>> nearest(num_queries);
  ParallelFor(0, num_queries, [&](int64_t begin, int64_t end) {
    std::vector<int> candidates;
    for (int64_t q = begin; q < end; ++q) {
      const bool is_observed = q < num_observed;
      const int node = is_observed ? observed[q] : targets[q - num_observed];
      candidates.clear();
      for (int obs : observed) {
        if (obs != node) candidates.push_back(obs);
      }
      nearest[q] = search.Nearest(node, candidates,
                                  is_observed ? options.q_kk : options.q_ku,
                                  DtwArgumentOrder::kLowerIndexFirst);
    }
  });

  Tensor adjacency = Tensor::Zeros(Shape({n, n}));
  float* a = adjacency.data();
  for (int q = 0; q < num_queries; ++q) {
    const bool is_observed = q < num_observed;
    const int node = is_observed ? observed[q] : targets[q - num_observed];
    for (const DtwNeighbour& neighbour : nearest[q]) {
      // Observed-observed links are symmetric: both may aggregate from the
      // other. A target row aggregates from observed nodes only.
      a[static_cast<int64_t>(node) * n + neighbour.index] = 1.0f;
      if (is_observed) {
        a[static_cast<int64_t>(neighbour.index) * n + node] = 1.0f;
      }
    }
  }
  return adjacency;
}

}  // namespace stsm
