#include "timeseries/temporal_adjacency.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "timeseries/dtw.h"

namespace stsm {

namespace {

enum class Role : char { kNeither, kTarget, kObserved };

// Row-major N x N DTW distances between node daily profiles, computed for
// the pairs the top-q selection can read: one endpoint observed, the other
// observed or a target. Every other cell stays 0. Each pair runs
// DtwDistance(profile[i], profile[j]) with i < j: DtwDistance is not
// symmetric in general (the band centre follows the length ratio), so a
// fixed order keeps every distance reproducible. All pairs cost the same,
// so one flat ParallelFor over them splits the work evenly.
std::vector<double> ReadPairDtwDistances(const SeriesMatrix& series,
                                         const std::vector<Role>& role,
                                         int steps_per_day, int dtw_band) {
  const int n = series.num_nodes;
  std::vector<std::vector<float>> profiles(n);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    if (role[i] == Role::kNeither) continue;
    profiles[i] = DailyProfile(series.NodeSeries(i), steps_per_day);
    for (int j = i + 1; j < n; ++j) {
      if (role[j] == Role::kNeither) continue;
      if (role[i] == Role::kObserved || role[j] == Role::kObserved) {
        pairs.emplace_back(i, j);
      }
    }
  }
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

}  // namespace

std::vector<double> ProfileDtwDistances(const SeriesMatrix& series,
                                        int steps_per_day, int dtw_band) {
  return ReadPairDtwDistances(
      series, std::vector<Role>(series.num_nodes, Role::kObserved),
      steps_per_day, dtw_band);
}

Tensor TemporalSimilarityAdjacency(const SeriesMatrix& series,
                                   const std::vector<int>& observed,
                                   const std::vector<int>& targets,
                                   const TemporalAdjacencyOptions& options) {
  const int n = series.num_nodes;
  STSM_CHECK(!observed.empty());
  std::vector<Role> role(n, Role::kNeither);
  for (int target : targets) role[target] = Role::kTarget;
  for (int obs : observed) role[obs] = Role::kObserved;
  const std::vector<double> dtw = ReadPairDtwDistances(
      series, role, options.steps_per_day, options.dtw_band);

  Tensor adjacency = Tensor::Zeros(Shape({n, n}));
  float* a = adjacency.data();

  // Most similar = smallest DTW distance.
  auto top_similar = [&](int node, int count) {
    std::vector<std::pair<double, int>> candidates;
    candidates.reserve(observed.size());
    for (int obs : observed) {
      if (obs == node) continue;
      candidates.emplace_back(dtw[static_cast<size_t>(node) * n + obs], obs);
    }
    const int k = std::min<int>(count, static_cast<int>(candidates.size()));
    std::partial_sort(candidates.begin(), candidates.begin() + k,
                      candidates.end());
    std::vector<int> result(k);
    for (int q = 0; q < k; ++q) result[q] = candidates[q].second;
    return result;
  };

  // Observed-observed links (symmetric: both may aggregate from the other).
  for (int obs : observed) {
    for (int peer : top_similar(obs, options.q_kk)) {
      a[static_cast<int64_t>(obs) * n + peer] = 1.0f;
      a[static_cast<int64_t>(peer) * n + obs] = 1.0f;
    }
  }
  // Observed -> target links only (target row aggregates from observed).
  for (int target : targets) {
    for (int source : top_similar(target, options.q_ku)) {
      a[static_cast<int64_t>(target) * n + source] = 1.0f;
    }
  }
  return adjacency;
}

}  // namespace stsm
