// Differential test of ExperimentContext against a copy of the construction
// StsmRunner, BuildBaselineContext and BuildModelSpec each carried before
// they shared the context: the normaliser, the normalised series, the
// training slice and the normalised full-graph and observed-subgraph A_s
// must be bitwise what that construction produced, for the dense and the
// CSR route and under every Table 11 distance mode.

#include "core/experiment_context.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/normalizer.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "graph/road.h"
#include "gtest/gtest.h"

namespace stsm {
namespace {

// ---- The reference: the pre-context construction, kept test-local ----

// The dense Eq. 2 loop, as the dense builder ran it on its own.
Tensor ReferenceGaussianDense(const std::vector<double>& distances, int n,
                              double epsilon, bool binary) {
  const double sigma = DistanceStd(distances);
  Tensor adjacency = Tensor::Zeros(Shape({n, n}));
  float* a = adjacency.data();
  const double sigma_sq = sigma * sigma;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const double d = distances[static_cast<size_t>(i) * n + j];
      const double w = std::exp(-(d * d) / sigma_sq);
      a[static_cast<int64_t>(i) * n + j] =
          (w >= epsilon) ? (binary ? 1.0f : static_cast<float>(w)) : 0.0f;
    }
  }
  return adjacency;
}

Tensor ReferenceDenseSubAdjacency(const Tensor& adjacency,
                                  const std::vector<int>& indices) {
  const int64_t n = adjacency.shape()[0];
  const int64_t k = static_cast<int64_t>(indices.size());
  Tensor sub = Tensor::Zeros(Shape({k, k}));
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      sub.data()[i * k + j] =
          adjacency.data()[static_cast<int64_t>(indices[i]) * n + indices[j]];
    }
  }
  return sub;
}

struct Reference {
  Normalizer normalizer;
  SeriesMatrix normalized_full;
  SeriesMatrix train_observed;
  std::vector<double> dist_pseudo;
  Adjacency a_s_norm_full;
  Adjacency a_s_norm_train;
};

Reference BuildReference(const SpatioTemporalDataset& dataset,
                         const SpaceSplit& split, DistanceMode mode,
                         uint64_t seed, double epsilon, bool binary,
                         bool sparse) {
  Reference r;
  const int n = dataset.num_nodes();
  const std::vector<int> observed = split.Observed();
  const TimeSplit time_split = SplitTime(dataset.num_steps(), 0.7);
  r.normalizer.Fit(dataset.series, observed, time_split.train_steps);
  r.normalized_full = dataset.series;
  r.normalizer.TransformInPlace(&r.normalized_full);
  const SeriesMatrix train_full =
      r.normalized_full.TimeSlice(0, time_split.train_steps);
  r.train_observed = SeriesMatrix(time_split.train_steps,
                                  static_cast<int>(observed.size()));
  for (int t = 0; t < time_split.train_steps; ++t) {
    for (size_t c = 0; c < observed.size(); ++c) {
      r.train_observed.set(t, static_cast<int>(c),
                           train_full.at(t, observed[c]));
    }
  }

  const std::vector<double> dist_euclid = PairwiseDistances(dataset.coords);
  std::vector<double> dist_road;
  if (mode != DistanceMode::kEuclidean) {
    Rng road_rng(seed + 7);
    dist_road = RoadNetworkDistances(dataset.coords, 3, 1.3, 0.1, &road_rng);
  }
  const std::vector<double>& dist_adjacency =
      mode == DistanceMode::kEuclidean ? dist_euclid : dist_road;
  r.dist_pseudo = mode == DistanceMode::kRoadAll ? dist_road : dist_euclid;

  if (sparse) {
    const SparseCsr kernel = GaussianThresholdAdjacencyCsr(
        dist_adjacency, n, epsilon, /*sigma_override=*/0.0, binary);
    r.a_s_norm_full = Adjacency(NormalizeSymmetric(kernel, false));
    r.a_s_norm_train =
        Adjacency(NormalizeSymmetric(SubAdjacency(kernel, observed), false));
  } else {
    const Tensor kernel =
        ReferenceGaussianDense(dist_adjacency, n, epsilon, binary);
    r.a_s_norm_full = Adjacency(NormalizeSymmetric(kernel, false));
    r.a_s_norm_train = Adjacency(NormalizeSymmetric(
        ReferenceDenseSubAdjacency(kernel, observed), false));
  }
  return r;
}

// ---- Bitwise comparisons ----

template <typename T>
void ExpectSameBytes(const std::vector<T>& actual,
                     const std::vector<T>& expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        actual.size() * sizeof(T)),
            0)
      << what;
}

void ExpectSameSeries(const SeriesMatrix& actual, const SeriesMatrix& expected,
                      const char* what) {
  EXPECT_EQ(actual.num_steps, expected.num_steps) << what;
  EXPECT_EQ(actual.num_nodes, expected.num_nodes) << what;
  ExpectSameBytes(actual.values, expected.values, what);
}

void ExpectSameAdjacency(const Adjacency& actual, const Adjacency& expected,
                         const char* what) {
  ASSERT_EQ(actual.is_sparse(), expected.is_sparse()) << what;
  if (!actual.is_sparse()) {
    const Tensor& a = actual.dense();
    const Tensor& e = expected.dense();
    ASSERT_EQ(a.shape(), e.shape()) << what;
    EXPECT_EQ(std::memcmp(a.data(), e.data(), a.numel() * sizeof(float)), 0)
        << what;
    return;
  }
  const SparseCsr& a = actual.sparse();
  const SparseCsr& e = expected.sparse();
  ASSERT_EQ(a.rows(), e.rows()) << what;
  ASSERT_EQ(a.nnz(), e.nnz()) << what;
  EXPECT_EQ(std::memcmp(a.row_ptr(), e.row_ptr(),
                        (a.rows() + 1) * sizeof(int32_t)),
            0)
      << what;
  EXPECT_EQ(std::memcmp(a.col_idx(), e.col_idx(), a.nnz() * sizeof(int32_t)),
            0)
      << what;
  EXPECT_EQ(std::memcmp(a.values(), e.values(), a.nnz() * sizeof(float)), 0)
      << what;
}

struct Case {
  const char* name;
  DistanceMode mode;
  bool sparse;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class ExperimentContextTest : public ::testing::TestWithParam<Case> {};

TEST_P(ExperimentContextTest, MatchesTheSeparateConstruction) {
  const Case& c = GetParam();
  SimulatorConfig sim;
  sim.name = "context-diff";
  sim.kind = RegionKind::kHighway;
  sim.num_sensors = 40;
  sim.num_days = 3;
  sim.steps_per_day = 48;
  sim.area_km = 25.0;
  sim.seed = 9;
  const SpatioTemporalDataset dataset = SimulateDataset(sim);
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const uint64_t seed = 5;

  const ExperimentContext context(dataset, split, c.mode, seed);
  for (const bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary kernel" : "weighted kernel");
    const double epsilon = 0.3;
    const Reference expected = BuildReference(dataset, split, c.mode, seed,
                                              epsilon, binary, c.sparse);
    EXPECT_EQ(std::bit_cast<uint32_t>(context.normalizer.mean()),
              std::bit_cast<uint32_t>(expected.normalizer.mean()));
    EXPECT_EQ(std::bit_cast<uint32_t>(context.normalizer.std()),
              std::bit_cast<uint32_t>(expected.normalizer.std()));
    ExpectSameSeries(context.normalized_full, expected.normalized_full,
                     "normalised series");
    ExpectSameSeries(context.TrainObserved(), expected.train_observed,
                     "training slice");
    ExpectSameBytes(context.pseudo_distances(), expected.dist_pseudo,
                    "pseudo-observation distances");

    const SparseCsr kernel = context.SpatialKernel(epsilon, binary);
    ExpectSameAdjacency(NormalizeSpatial(kernel, c.sparse),
                        expected.a_s_norm_full, "full-graph A_s");
    ExpectSameAdjacency(
        NormalizeSpatial(SubAdjacency(kernel, context.observed), c.sparse),
        expected.a_s_norm_train, "observed-subgraph A_s");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Routes, ExperimentContextTest,
    ::testing::Values(Case{"DenseEuclidean", DistanceMode::kEuclidean, false},
                      Case{"DenseRoadAll", DistanceMode::kRoadAll, false},
                      Case{"DenseRoadMatrixOnly", DistanceMode::kRoadMatrixOnly,
                           false},
                      Case{"CsrEuclidean", DistanceMode::kEuclidean, true},
                      Case{"CsrRoadAll", DistanceMode::kRoadAll, true},
                      Case{"CsrRoadMatrixOnly", DistanceMode::kRoadMatrixOnly,
                           true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace stsm
