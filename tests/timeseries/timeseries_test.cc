#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/prof.h"
#include "common/rng.h"
#include "data/registry.h"
#include "data/splits.h"
#include "graph/geo.h"
#include "gtest/gtest.h"
#include "timeseries/dtw.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/series.h"
#include "timeseries/temporal_adjacency.h"
#include "timeseries/time_features.h"

namespace stsm {
namespace {

TEST(DtwTest, IdenticalSequencesZero) {
  const std::vector<float> a = {1, 2, 3, 4, 3, 2};
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
  EXPECT_DOUBLE_EQ(DtwDistance(a, a, /*band=*/2), 0.0);
}

TEST(DtwTest, SymmetricInArguments) {
  const std::vector<float> a = {1, 3, 5, 7};
  const std::vector<float> b = {2, 2, 6, 6};
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), DtwDistance(b, a));
}

TEST(DtwTest, NonNegativeAndDiscriminative) {
  const std::vector<float> base = {0, 1, 2, 3, 4, 5};
  const std::vector<float> close = {0, 1, 2, 3, 4, 6};
  const std::vector<float> far = {10, 9, 8, 7, 6, 5};
  const double d_close = DtwDistance(base, close);
  const double d_far = DtwDistance(base, far);
  EXPECT_GE(d_close, 0.0);
  EXPECT_LT(d_close, d_far);
}

TEST(DtwTest, InvariantToTimeShiftUnlikeEuclidean) {
  // A shifted copy of a bump: DTW should be much smaller than the
  // point-wise L1 distance.
  std::vector<float> a(20, 0.0f), b(20, 0.0f);
  for (int i = 5; i < 10; ++i) a[i] = 10.0f;
  for (int i = 7; i < 12; ++i) b[i] = 10.0f;
  double l1 = 0;
  for (int i = 0; i < 20; ++i) l1 += std::fabs(a[i] - b[i]);
  EXPECT_LT(DtwDistance(a, b), l1 * 0.25);
}

TEST(DtwTest, BandRestrictsWarping) {
  // With a wide shift and a narrow band, the banded distance exceeds the
  // unconstrained one.
  std::vector<float> a(30, 0.0f), b(30, 0.0f);
  for (int i = 0; i < 5; ++i) a[i] = 5.0f;
  for (int i = 20; i < 25; ++i) b[i] = 5.0f;
  EXPECT_GE(DtwDistance(a, b, /*band=*/2), DtwDistance(a, b, /*band=*/0));
}

TEST(DtwTest, DifferentLengthSequences) {
  const std::vector<float> a = {1, 2, 3};
  const std::vector<float> b = {1, 1, 2, 2, 3, 3};
  EXPECT_GE(DtwDistance(a, b), 0.0);
  EXPECT_LT(DtwDistance(a, b), 1e-9);  // Perfectly warpable.
}

// The one-pass DailyProfiles equals per-node DailyProfile byte for byte:
// NaN and ±Inf slots, a partial last day, and a node list that repeats and
// reorders columns.
TEST(DailyProfileTest, DailyProfilesMatchesPerNodeProfiles) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const int steps_per_day = 7;
  SeriesMatrix series(3 * steps_per_day + 4, 5);  // not whole days
  Rng rng(17);
  for (float& v : series.values) v = static_cast<float>(rng.Uniform() * 9.0);
  series.set(3, 1, nan);
  series.set(10, 2, inf);
  series.set(11, 2, -inf);
  series.set(5, 4, -inf);  // -Inf then +Inf in slot 5 of node 4: NaN sum
  series.set(12, 4, inf);
  series.set(20, 4, inf);  // +Inf alone in slot 6
  series.set(2, 0, -0.0f);
  const std::vector<int> nodes = {4, 0, 2, 1, 3, 2};
  const auto profiles = DailyProfiles(series, nodes, steps_per_day);
  ASSERT_EQ(profiles.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const auto want = DailyProfile(series.NodeSeries(nodes[i]), steps_per_day);
    ASSERT_EQ(profiles[i].size(), want.size());
    EXPECT_EQ(std::memcmp(profiles[i].data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "node " << nodes[i];
  }
}

TEST(DailyProfileTest, AveragesAcrossDays) {
  // Two days, 4 slots: day2 = day1 + 2.
  const std::vector<float> series = {1, 2, 3, 4, 3, 4, 5, 6};
  const auto profile = DailyProfile(series, 4);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_FLOAT_EQ(profile[0], 2.0f);
  EXPECT_FLOAT_EQ(profile[3], 5.0f);
}

TEST(SeriesMatrixTest, AccessorsAndSlicing) {
  SeriesMatrix m(4, 2);
  m.set(2, 1, 7.5f);
  EXPECT_FLOAT_EQ(m.at(2, 1), 7.5f);
  const auto node = m.NodeSeries(1);
  EXPECT_FLOAT_EQ(node[2], 7.5f);
  const SeriesMatrix slice = m.TimeSlice(2, 4);
  EXPECT_EQ(slice.num_steps, 2);
  EXPECT_FLOAT_EQ(slice.at(0, 1), 7.5f);
}

TEST(PseudoObsTest, WeightsSumToOne) {
  // 3 nodes on a line; node 1 is the target.
  const std::vector<double> d = {0, 1, 3,
                                 1, 0, 2,
                                 3, 2, 0};
  const auto w = InverseDistanceWeights(d, 3, /*targets=*/{1},
                                        /*sources=*/{0, 2});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
  // Closer source gets more weight: d(1,0)=1 < d(1,2)=2.
  EXPECT_GT(w[0], w[1]);
  EXPECT_NEAR(w[0], (1.0 / 1.0) / (1.0 / 1.0 + 1.0 / 2.0), 1e-12);
}

TEST(PseudoObsTest, CoincidentSourceCopiesExactly) {
  const std::vector<double> d = {0, 0, 5,
                                 0, 0, 5,
                                 5, 5, 0};
  const auto w = InverseDistanceWeights(d, 3, {1}, {0, 2});
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.0);
}

TEST(PseudoObsTest, MaxNeighborsRestrictsSupport) {
  // 4 nodes on a line at x = 0, 1, 2, 10; target is node 1.
  const std::vector<double> d = {0, 1, 2, 10,
                                 1, 0, 1, 9,
                                 2, 1, 0, 8,
                                 10, 9, 8, 0};
  const auto w_all =
      InverseDistanceWeights(d, 4, {1}, {0, 2, 3}, /*max_neighbors=*/0);
  const auto w_two =
      InverseDistanceWeights(d, 4, {1}, {0, 2, 3}, /*max_neighbors=*/2);
  // Full weighting touches node 3; 2-NN weighting must not.
  EXPECT_GT(w_all[2], 0.0);
  EXPECT_DOUBLE_EQ(w_two[2], 0.0);
  EXPECT_NEAR(w_two[0] + w_two[1], 1.0, 1e-12);
  // Nearest nodes 0 and 2 are equidistant: equal weights.
  EXPECT_NEAR(w_two[0], 0.5, 1e-12);
}

TEST(PseudoObsTest, FillReproducesConvexCombination) {
  SeriesMatrix series(2, 3);
  series.set(0, 0, 10.0f);
  series.set(0, 2, 40.0f);
  series.set(1, 0, 20.0f);
  series.set(1, 2, 80.0f);
  const std::vector<double> d = {0, 1, 2,
                                 1, 0, 1,
                                 2, 1, 0};
  FillPseudoObservations(&series, d, /*targets=*/{1}, /*sources=*/{0, 2});
  // Equidistant: plain average.
  EXPECT_NEAR(series.at(0, 1), 25.0f, 1e-4);
  EXPECT_NEAR(series.at(1, 1), 50.0f, 1e-4);
  // Pseudo-values lie within the source range (convexity).
  EXPECT_GE(series.at(0, 1), 10.0f);
  EXPECT_LE(series.at(0, 1), 40.0f);
}

TEST(TemporalAdjacencyTest, DirectedObservedToTarget) {
  // Node 2 (target) mirrors node 0's daily pattern; node 1 differs.
  const int steps_per_day = 8;
  SeriesMatrix series(steps_per_day * 2, 3);
  for (int t = 0; t < series.num_steps; ++t) {
    const float phase = static_cast<float>(t % steps_per_day);
    series.set(t, 0, std::sin(phase));
    series.set(t, 1, 5.0f * std::cos(phase) + 20.0f);
    series.set(t, 2, std::sin(phase));  // Pseudo-obs identical to node 0.
  }
  TemporalAdjacencyOptions options;
  options.q_kk = 1;
  options.q_ku = 1;
  options.steps_per_day = steps_per_day;
  options.dtw_band = 0;
  const Tensor adj =
      TemporalSimilarityAdjacency(series, /*observed=*/{0, 1},
                                  /*targets=*/{2}, options);
  // Target 2 aggregates from its most similar observed node (0).
  EXPECT_EQ(adj.at({2, 0}), 1.0f);
  EXPECT_EQ(adj.at({2, 1}), 0.0f);
  // No edges from observed nodes into the target (directedness).
  EXPECT_EQ(adj.at({0, 2}), 0.0f);
  EXPECT_EQ(adj.at({1, 2}), 0.0f);
  // Observed pair linked symmetrically (q_kk = 1, only one other obs).
  EXPECT_EQ(adj.at({0, 1}), 1.0f);
  EXPECT_EQ(adj.at({1, 0}), 1.0f);
}

TEST(TemporalAdjacencyTest, QkuControlsInDegree) {
  const int steps_per_day = 6;
  SeriesMatrix series(steps_per_day * 2, 5);
  Rng rng(11);
  for (int t = 0; t < series.num_steps; ++t) {
    for (int n = 0; n < 5; ++n) {
      series.set(t, n, static_cast<float>(rng.Uniform()));
    }
  }
  TemporalAdjacencyOptions options;
  options.q_kk = 1;
  options.q_ku = 3;
  options.steps_per_day = steps_per_day;
  const Tensor adj = TemporalSimilarityAdjacency(series, {0, 1, 2, 3}, {4},
                                                 options);
  int in_degree = 0;
  for (int64_t j = 0; j < 5; ++j) {
    in_degree += adj.at({4, j}) != 0.0f ? 1 : 0;
  }
  EXPECT_EQ(in_degree, 3);
}

TEST(TimeFeaturesTest, IdsWrapAtMidnight) {
  const auto ids = TimeOfDayIds(/*start=*/6, /*window=*/4, /*steps_per_day=*/8);
  EXPECT_EQ(ids, (std::vector<int>{6, 7, 0, 1}));
}

TEST(TimeFeaturesTest, FeatureEncodingContinuity) {
  // sin/cos features must be continuous across midnight; the raw id is not.
  const auto before = TimeOfDayFeatures({287}, 288);
  const auto after = TimeOfDayFeatures({0}, 288);
  EXPECT_NEAR(before.at({0, 1}), after.at({0, 1}), 0.05);  // sin.
  EXPECT_NEAR(before.at({0, 2}), after.at({0, 2}), 0.05);  // cos.
}

TEST(TimeFeaturesTest, ShapeAndRange) {
  const auto ids = TimeOfDayIds(0, 24, 288);
  const Tensor f = TimeOfDayFeatures(ids, 288);
  EXPECT_EQ(f.shape(), Shape({24, 3}));
  for (int64_t i = 0; i < f.numel(); ++i) {
    EXPECT_LE(std::fabs(f.data()[i]), 1.0f);
  }
}

TEST(ProfileDtwTest, ZeroDiagonalSymmetric) {
  SeriesMatrix series(16, 3);
  Rng rng(13);
  for (auto& v : series.values) v = static_cast<float>(rng.Uniform());
  const auto d = ProfileDtwDistances(series, /*steps_per_day=*/8, 2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(d[i * 3 + i], 0.0);
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(d[i * 3 + j], d[j * 3 + i]);
  }
}

// ---- Bitwise equivalence against the full-reset reference ------------------

// Reference DTW: the full-reset dynamic program, where every row refills all
// m + 1 cells with +inf before computing its band. DtwDistance resets only
// the cells the previous-but-one row wrote; the results must be identical.
double ReferenceDtwDistance(const std::vector<float>& a,
                            const std::vector<float>& b, int band) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> previous(m + 1, kInf);
  std::vector<double> current(m + 1, kInf);
  previous[0] = 0.0;

  const double slope = static_cast<double>(m) / n;
  for (int i = 1; i <= n; ++i) {
    std::fill(current.begin(), current.end(), kInf);
    int j_lo = 1, j_hi = m;
    if (band > 0) {
      const int center = static_cast<int>(std::lround(i * slope));
      j_lo = std::max(1, center - band);
      j_hi = std::min(m, center + band);
    }
    for (int j = j_lo; j <= j_hi; ++j) {
      const double cost = std::fabs(static_cast<double>(a[i - 1]) - b[j - 1]);
      const double best =
          std::min({previous[j], previous[j - 1], current[j - 1]});
      if (best < kInf) current[j] = cost + best;
    }
    std::swap(previous, current);
  }
  return previous[m];
}

// Same bits, except that any NaN matches any NaN.
bool SameBits(double x, double y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

std::vector<float> RandomSeries(int length, Rng* rng) {
  std::vector<float> series(length);
  for (auto& v : series) v = static_cast<float>(rng->Uniform(-5, 5));
  return series;
}

// Overwrites about one value in `every` with a signed zero, an infinity or
// a NaN.
void SprinkleSpecials(std::vector<float>* series, int every, Rng* rng) {
  constexpr float kSpecials[] = {0.0f, -0.0f,
                                 std::numeric_limits<float>::infinity(),
                                 -std::numeric_limits<float>::infinity(),
                                 std::numeric_limits<float>::quiet_NaN()};
  for (auto& v : *series) {
    if (rng->UniformInt(every) == 0) v = kSpecials[rng->UniformInt(5)];
  }
}

void ExpectDtwMatchesReference(const std::vector<float>& a,
                               const std::vector<float>& b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  for (int band : {0, 1, 2, 4, 12, std::max(n, m), std::max(n, m) + 5}) {
    const double expected = ReferenceDtwDistance(a, b, band);
    const double actual = DtwDistance(a, b, band);
    EXPECT_TRUE(SameBits(actual, expected))
        << "n=" << n << " m=" << m << " band=" << band << ": " << actual
        << " vs reference " << expected;
  }
}

TEST(DtwBitwiseTest, MatchesFullResetReferenceAcrossLengths) {
  Rng rng(101);
  for (int n = 1; n <= 300; ++n) {
    const std::vector<float> a = RandomSeries(n, &rng);
    std::vector<int> other_lengths = {n, 1 + rng.UniformInt(300)};
    if (n <= 24) other_lengths.insert(other_lengths.end(), {n - 1, n + 1, 1});
    for (int m : other_lengths) {
      if (m > 0) ExpectDtwMatchesReference(a, RandomSeries(m, &rng));
    }
    ExpectDtwMatchesReference(a, a);  // Identical series.
  }
}

TEST(DtwBitwiseTest, MatchesFullResetReferenceOnSpecialValues) {
  Rng rng(202);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 1 + rng.UniformInt(64);
    const int m = trial % 3 == 0 ? n : 1 + rng.UniformInt(64);
    std::vector<float> a = RandomSeries(n, &rng);
    std::vector<float> b = RandomSeries(m, &rng);
    SprinkleSpecials(&a, 1 + trial % 8, &rng);
    SprinkleSpecials(&b, 1 + trial % 8, &rng);
    ExpectDtwMatchesReference(a, b);
    ExpectDtwMatchesReference(b, a);
    ExpectDtwMatchesReference(a, a);
  }
  // All-special series: signed zeros, a lone NaN and opposite infinities.
  ExpectDtwMatchesReference({0.0f, -0.0f, 0.0f}, {-0.0f, 0.0f});
  ExpectDtwMatchesReference({std::numeric_limits<float>::quiet_NaN()},
                            {1.0f, 2.0f, 3.0f});
  ExpectDtwMatchesReference({std::numeric_limits<float>::infinity(), 1.0f},
                            {-std::numeric_limits<float>::infinity(), 1.0f});
}

// The reference neighbour order, written out independently of the library:
// numbers ascending, then NaN, ties to the lower index.
bool ReferenceNeighbourLess(const std::pair<double, int>& x,
                            const std::pair<double, int>& y) {
  if (std::isnan(x.first) != std::isnan(y.first)) return std::isnan(y.first);
  if (!std::isnan(x.first) && x.first != y.first) return x.first < y.first;
  return x.second < y.second;
}

// Reference top-q selection over a dense N x N distance matrix.
Tensor ReferenceTopQAdjacency(const std::vector<double>& dtw, int n,
                              const std::vector<int>& observed,
                              const std::vector<int>& targets,
                              const TemporalAdjacencyOptions& options) {
  Tensor adjacency = Tensor::Zeros(Shape({n, n}));
  float* a = adjacency.data();
  auto top_similar = [&](int node, int count) {
    std::vector<std::pair<double, int>> candidates;
    for (int obs : observed) {
      if (obs == node) continue;
      candidates.emplace_back(dtw[static_cast<size_t>(node) * n + obs], obs);
    }
    const int k = std::min<int>(count, static_cast<int>(candidates.size()));
    std::partial_sort(candidates.begin(), candidates.begin() + k,
                      candidates.end(), ReferenceNeighbourLess);
    std::vector<int> result(k);
    for (int q = 0; q < k; ++q) result[q] = candidates[q].second;
    return result;
  };
  for (int obs : observed) {
    for (int peer : top_similar(obs, options.q_kk)) {
      a[static_cast<int64_t>(obs) * n + peer] = 1.0f;
      a[static_cast<int64_t>(peer) * n + obs] = 1.0f;
    }
  }
  for (int target : targets) {
    for (int source : top_similar(target, options.q_ku)) {
      a[static_cast<int64_t>(target) * n + source] = 1.0f;
    }
  }
  return adjacency;
}

// Reference adjacency: reference DTW over every pair into a dense matrix,
// then the top-q selection.
Tensor ReferenceTemporalAdjacency(const SeriesMatrix& series,
                                  const std::vector<int>& observed,
                                  const std::vector<int>& targets,
                                  const TemporalAdjacencyOptions& options) {
  const int n = series.num_nodes;
  std::vector<std::vector<float>> profiles(n);
  for (int i = 0; i < n; ++i) {
    profiles[i] = DailyProfile(series.NodeSeries(i), options.steps_per_day);
  }
  std::vector<double> dtw(static_cast<size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d =
          ReferenceDtwDistance(profiles[i], profiles[j], options.dtw_band);
      dtw[static_cast<size_t>(i) * n + j] = d;
      dtw[static_cast<size_t>(j) * n + i] = d;
    }
  }
  return ReferenceTopQAdjacency(dtw, n, observed, targets, options);
}

void ExpectSameAdjacency(const Tensor& actual, const Tensor& expected) {
  ASSERT_EQ(actual.shape(), expected.shape());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        sizeof(float) * expected.numel()),
            0);
}

TEST(DtwBitwiseTest, TemporalAdjacencyMatchesDenseReference) {
  const int steps_per_day = 24;
  const int num_nodes = 23;
  SeriesMatrix clean(steps_per_day * 3 + 5, num_nodes);
  Rng rng(303);
  for (auto& v : clean.values) v = static_cast<float>(rng.Uniform(0, 10));
  // Duplicated columns give tied DTW distances, so the index tie-break of
  // the top-q selection decides between them.
  for (int t = 0; t < clean.num_steps; ++t) {
    clean.set(t, 7, clean.at(t, 2));
    clean.set(t, 15, clean.at(t, 2));
    clean.set(t, 20, clean.at(t, 11));
  }
  // Unsorted lists; node 9 is in neither, nodes 11 and 20 tie as sources.
  const std::vector<int> observed = {14, 2, 20, 0, 7, 11, 5, 18, 15, 3};
  const std::vector<int> targets = {6, 21, 1, 13, 4, 22, 10, 17, 8, 12, 19,
                                    16};
  // Non-finite slots send the queries that read them down the brute-force
  // path and give NaN and +inf distances: an observed column (18) and a
  // target (13) with NaN, an observed column (5) with +inf, a target (4)
  // with -inf and +inf. The tie between 11 and 20 survives.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  SeriesMatrix special = clean;
  special.set(3, 18, std::numeric_limits<float>::quiet_NaN());
  special.set(30, 13, std::numeric_limits<float>::quiet_NaN());
  special.set(8, 5, kInf);
  special.set(9, 4, -kInf);
  special.set(40, 4, kInf);
  for (const SeriesMatrix* series : {&clean, &special}) {
    for (int band : {0, 2, 12}) {
      for (const auto& [q_kk, q_ku] : std::vector<std::pair<int, int>>{
               {1, 1}, {2, 3}, {4, 6}, {6, 5}, {12, 12}}) {
        TemporalAdjacencyOptions options;
        options.q_kk = q_kk;
        options.q_ku = q_ku;
        options.steps_per_day = steps_per_day;
        options.dtw_band = band;
        SCOPED_TRACE(testing::Message()
                     << (series == &clean ? "finite" : "non-finite")
                     << " band=" << band << " q_kk=" << q_kk
                     << " q_ku=" << q_ku);
        ExpectSameAdjacency(
            TemporalSimilarityAdjacency(*series, observed, targets, options),
            ReferenceTemporalAdjacency(*series, observed, targets, options));
      }
    }
  }
}

// City-shaped input: the 256-sensor PEMS08 simulation, 288-slot profiles,
// band 12, with the first paper split's unobserved band pseudo-filled from
// the observed sensors, as evaluation builds it.
TEST(DtwBitwiseTest, CityTemporalAdjacencyMatchesDenseReference) {
  const SpatioTemporalDataset dataset = MakePems08WithDensity(256);
  const SpaceSplit split = FourSplits(dataset.coords)[0];
  const std::vector<int> observed = split.Observed();
  const std::vector<int>& targets = split.test;
  SeriesMatrix series = dataset.series;
  FillPseudoObservations(&series, PairwiseDistances(dataset.coords), targets,
                         observed, /*max_neighbors=*/8);
  TemporalAdjacencyOptions options;
  options.steps_per_day = dataset.steps_per_day;
  ASSERT_EQ(options.steps_per_day, 288);
  ASSERT_EQ(options.dtw_band, 12);
  const int n = series.num_nodes;
  ASSERT_EQ(n, 256);
  // ProfileDtwDistances is pinned to the full-reset reference DP by
  // ProfileDistancesMatchReferenceOnEveryPair.
  const std::vector<double> dtw =
      ProfileDtwDistances(series, options.steps_per_day, options.dtw_band);

  prof::Reset();
  prof::SetEnabled(true);
  for (const auto& [q_kk, q_ku] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 2}}) {
    options.q_kk = q_kk;
    options.q_ku = q_ku;
    SCOPED_TRACE(testing::Message() << "q_kk=" << q_kk << " q_ku=" << q_ku);
    ExpectSameAdjacency(
        TemporalSimilarityAdjacency(series, observed, targets, options),
        ReferenceTopQAdjacency(dtw, n, observed, targets, options));
  }
  prof::SetEnabled(false);
  // The lower bounds must do their job on real profiles: most candidates
  // never start a DTW.
  int64_t candidates = 0, started = 0, abandoned = 0;
  for (const prof::StatSnapshot& counter : prof::TakeSnapshot().counters) {
    if (counter.name == "dtw.candidates") candidates = counter.total_ns;
    if (counter.name == "dtw.started") started = counter.total_ns;
    if (counter.name == "dtw.abandoned") abandoned = counter.total_ns;
  }
  prof::Reset();
  EXPECT_EQ(candidates, 2 * (static_cast<int64_t>(observed.size()) *
                                 (observed.size() - 1) +
                             static_cast<int64_t>(targets.size()) *
                                 observed.size()));
  EXPECT_GT(started, 0);
  EXPECT_LT(started * 4, candidates);
  EXPECT_LE(abandoned, started);
}

// Bounded DTW is the unbounded value when that is <= the bound, else +inf.
TEST(DtwBitwiseTest, BoundedDtwIsExactOrInfinite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + rng.UniformInt(40);
    const int m = trial % 2 == 0 ? n : 1 + rng.UniformInt(40);
    const std::vector<float> a = RandomSeries(n, &rng);
    const std::vector<float> b = RandomSeries(m, &rng);
    for (int band : {0, 1, 2, 12}) {
      // +inf when a narrow band cannot reach (n, m) for unequal lengths.
      const double d = DtwDistance(a, b, band);
      for (double bound : {d, std::nextafter(d, kInf), 2.0 * d + 1.0, kInf,
                           std::nextafter(d, -kInf), 0.5 * d, 0.0, -1.0}) {
        const double bounded = DtwDistance(a, b, band, bound);
        if (d <= bound) {
          EXPECT_TRUE(SameBits(bounded, d))
              << "n=" << n << " m=" << m << " band=" << band
              << " bound=" << bound << ": " << bounded << " vs " << d;
        } else {
          EXPECT_EQ(bounded, kInf) << "n=" << n << " m=" << m
                                   << " band=" << band << " bound=" << bound;
        }
      }
    }
  }
}

// Profiles over mixed magnitudes, so that the rounding of the LB_Keogh
// terms and of the DP sums both matter.
std::vector<std::vector<float>> MixedScaleProfiles(int count, int length,
                                                   Rng* rng) {
  std::vector<std::vector<float>> profiles(count);
  for (auto& profile : profiles) {
    const double scale = std::pow(10.0, rng->Uniform(-3, 6));
    const double offset = rng->Uniform(-1, 1) * scale;
    double walk = 0.0;
    for (int j = 0; j < length; ++j) {
      walk += rng->Uniform(-1, 1);
      profile.push_back(static_cast<float>(offset + scale * walk / 8.0 +
                                           rng->Uniform(-1e-3, 1e-3)));
    }
  }
  return profiles;
}

TEST(DtwSearchTest, LbKeoghNeverExceedsDtw) {
  Rng rng(606);
  const int length = 48;
  auto profiles = MixedScaleProfiles(24, length, &rng);
  // Steps shifted by 0-13 slots: DTW aligns a shift of up to `band` at no
  // cost, so an envelope narrower than the band shows up as a bound above
  // the distance.
  for (int shift = 0; shift <= 13; ++shift) {
    std::vector<float> step(length, 0.0f);
    for (int j = 20 + shift; j < length; ++j) step[j] = 1.0f;
    profiles.push_back(step);
  }
  const int count = static_cast<int>(profiles.size());
  for (int band : {0, 1, 2, 12, length}) {
    const DtwNeighbourSearch search(profiles, band);
    for (int x = 0; x < count; ++x) {
      for (int y = 0; y < count; ++y) {
        const double lb = search.LbKeogh(x, y);
        EXPECT_GE(lb, 0.0);
        EXPECT_LE(lb, DtwDistance(profiles[x], profiles[y], band))
            << "band=" << band << " x=" << x << " y=" << y;
        EXPECT_LE(lb, DtwDistance(profiles[y], profiles[x], band))
            << "band=" << band << " x=" << x << " y=" << y;
      }
    }
  }
}

// Nearest against every candidate's distance, sorted: same indices and the
// same distance bits, in both argument orders, over finite profiles (the
// bounded path) and over NaN/Inf or unequal-length ones (the fallback).
TEST(DtwSearchTest, NearestMatchesBruteForce) {
  Rng rng(707);
  const int length = 36;
  auto profiles = MixedScaleProfiles(30, length, &rng);
  // Near-duplicates and exact duplicates: ties at the q-th place.
  profiles[4] = profiles[3];
  profiles[11] = profiles[3];
  profiles[12] = profiles[10];
  profiles[12][5] = std::nextafter(profiles[12][5], 1e9f);
  profiles[20][7] = std::numeric_limits<float>::quiet_NaN();
  profiles[21][0] = std::numeric_limits<float>::infinity();
  profiles[22].resize(length - 5);
  std::vector<int> finite_only = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                  12, 13, 14, 15};
  std::vector<int> everything(30);  // Every profile, finite or not.
  for (int i = 0; i < 30; ++i) everything[i] = i;
  for (int band : {0, 3, 12}) {
    const DtwNeighbourSearch search(profiles, band);
    for (const std::vector<int>* pool : {&finite_only, &everything}) {
      for (int query : {3, 10, 0, 20, 21, 22, 29}) {
        std::vector<int> candidates;
        for (int c : *pool) {
          if (c != query) candidates.push_back(c);
        }
        for (DtwArgumentOrder order : {DtwArgumentOrder::kLowerIndexFirst,
                                       DtwArgumentOrder::kQueryFirst}) {
          std::vector<std::pair<double, int>> all;
          for (int c : candidates) {
            const bool query_first =
                order == DtwArgumentOrder::kQueryFirst || query < c;
            all.emplace_back(
                DtwDistance(profiles[query_first ? query : c],
                            profiles[query_first ? c : query], band),
                c);
          }
          std::sort(all.begin(), all.end(), ReferenceNeighbourLess);
          for (int count : {0, 1, 2, 3, 6, 40}) {
            SCOPED_TRACE(testing::Message()
                         << "band=" << band << " query=" << query
                         << " count=" << count << " pool="
                         << candidates.size() << " order="
                         << static_cast<int>(order));
            const std::vector<DtwNeighbour> got =
                search.Nearest(query, candidates, count, order);
            ASSERT_EQ(got.size(), std::min<size_t>(count, all.size()));
            for (size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].index, all[i].second) << i;
              EXPECT_TRUE(SameBits(got[i].distance, all[i].first)) << i;
            }
          }
        }
      }
    }
  }
}

// A candidate whose bound equals the q-th distance, and whose distance
// does too, still wins the tie on its lower index: only strict `>` may
// stop the visit or skip a candidate. All values are small integers, so
// every bound and distance below is exact.
TEST(DtwSearchTest, BoundEqualToTheQthDistanceStillReachesTheTieBreak) {
  const int length = 24;
  std::vector<std::vector<float>> profiles(6);
  profiles[0].assign(length, 0.0f);  // The query.
  // Distance `length` with both bounds equal to it.
  profiles[2].assign(length, 1.0f);
  // Distance `length` too (every column is matched at least once), but its
  // zero slot pulls the bounds below: visited first, kept first.
  profiles[5].assign(length, 1.0f);
  profiles[5][0] = 2.0f;
  profiles[5][1] = 0.0f;
  // Farther candidates.
  profiles[3].assign(length, 3.0f);
  profiles[4].assign(length, 5.0f);
  for (int band : {0, 1, 2, 12}) {
    const DtwNeighbourSearch search(profiles, band);
    ASSERT_EQ(DtwDistance(profiles[0], profiles[2], band), length);
    ASSERT_EQ(DtwDistance(profiles[0], profiles[5], band), length);
    ASSERT_EQ(search.LbKeogh(0, 2), length);
    ASSERT_EQ(search.LbKeogh(2, 0), length);
    ASSERT_LT(search.LbKeogh(0, 5), length);
    for (DtwArgumentOrder order : {DtwArgumentOrder::kLowerIndexFirst,
                                   DtwArgumentOrder::kQueryFirst}) {
      const std::vector<DtwNeighbour> nearest =
          search.Nearest(0, {5, 4, 3, 2}, 1, order);
      ASSERT_EQ(nearest.size(), 1u);
      EXPECT_EQ(nearest[0].index, 2) << "band=" << band;
      EXPECT_EQ(nearest[0].distance, length) << "band=" << band;
    }
  }
}

TEST(DtwSearchTest, NeighbourOrderPutsNanLastAndBreaksTiesByIndex) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<DtwNeighbour> v = {{kNan, 0}, {2.0, 5}, {kInf, 1}, {kNan, 3},
                                 {2.0, 2}, {-1.0, 9}, {0.0, 4}};
  std::sort(v.begin(), v.end(), DtwNeighbourLess);
  const std::vector<int> order = {9, 4, 2, 5, 1, 0, 3};
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i].index, order[i]) << i;
  EXPECT_FALSE(DtwNeighbourLess({kNan, 0}, {kNan, 0}));
  EXPECT_FALSE(DtwNeighbourLess({kNan, 0}, {kInf, 7}));
}

TEST(DtwBitwiseTest, ProfileDistancesMatchReferenceOnEveryPair) {
  const int steps_per_day = 12;
  const int num_nodes = 9;
  SeriesMatrix series(steps_per_day * 2, num_nodes);
  Rng rng(404);
  for (auto& v : series.values) v = static_cast<float>(rng.Uniform(-3, 3));
  series.set(5, 4, std::numeric_limits<float>::quiet_NaN());
  const auto d = ProfileDtwDistances(series, steps_per_day, /*dtw_band=*/3);
  ASSERT_EQ(d.size(), static_cast<size_t>(num_nodes) * num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    const auto pi = DailyProfile(series.NodeSeries(i), steps_per_day);
    EXPECT_DOUBLE_EQ(d[static_cast<size_t>(i) * num_nodes + i], 0.0);
    for (int j = i + 1; j < num_nodes; ++j) {
      const auto pj = DailyProfile(series.NodeSeries(j), steps_per_day);
      const double expected = ReferenceDtwDistance(pi, pj, 3);
      EXPECT_TRUE(SameBits(d[static_cast<size_t>(i) * num_nodes + j],
                           expected))
          << i << "," << j;
      EXPECT_TRUE(SameBits(d[static_cast<size_t>(j) * num_nodes + i],
                           expected))
          << j << "," << i;
    }
  }
}

}  // namespace
}  // namespace stsm
