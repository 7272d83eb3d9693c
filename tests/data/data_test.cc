#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "data/metadata.h"
#include "data/metrics.h"
#include "data/normalizer.h"
#include "data/registry.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "data/windows.h"
#include "gtest/gtest.h"

namespace stsm {
namespace {

SimulatorConfig SmallHighway() {
  SimulatorConfig config;
  config.name = "test-highway";
  config.kind = RegionKind::kHighway;
  config.num_sensors = 40;
  config.num_days = 3;
  config.steps_per_day = 48;  // Half-hourly to keep the test fast.
  config.area_km = 30.0;
  config.seed = 7;
  return config;
}

TEST(SimulatorTest, ShapesAndRanges) {
  const auto dataset = SimulateDataset(SmallHighway());
  EXPECT_EQ(dataset.num_nodes(), 40);
  EXPECT_EQ(dataset.num_steps(), 3 * 48);
  EXPECT_EQ(dataset.metadata.size(), 40u);
  for (float v : dataset.series.values) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 130.0f);  // Speeds bounded by free flow.
  }
}

TEST(SimulatorTest, DeterministicForSeed) {
  const auto a = SimulateDataset(SmallHighway());
  const auto b = SimulateDataset(SmallHighway());
  EXPECT_EQ(a.series.values, b.series.values);
  EXPECT_EQ(a.coords.size(), b.coords.size());
  for (size_t i = 0; i < a.coords.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coords[i].x, b.coords[i].x);
  }
}

TEST(SimulatorTest, DifferentSeedsDiffer) {
  auto config = SmallHighway();
  const auto a = SimulateDataset(config);
  config.seed = 8;
  const auto b = SimulateDataset(config);
  EXPECT_NE(a.series.values, b.series.values);
}

TEST(SimulatorTest, RushHourSlowdownPresent) {
  // Weekday 8am speeds should be lower on average than 3am speeds.
  auto config = SmallHighway();
  config.steps_per_day = 24;  // Hourly for easy slot picking.
  config.num_days = 5;        // All weekdays.
  const auto dataset = SimulateDataset(config);
  double rush = 0.0, night = 0.0;
  int count = 0;
  for (int day = 0; day < 5; ++day) {
    for (int n = 0; n < dataset.num_nodes(); ++n) {
      rush += dataset.series.at(day * 24 + 8, n);
      night += dataset.series.at(day * 24 + 3, n);
      ++count;
    }
  }
  EXPECT_LT(rush / count, night / count - 3.0)
      << "morning rush must slow traffic measurably";
}

TEST(SimulatorTest, SpatialCorrelationDecaysWithDistance) {
  // Correlation of detrended series between near pairs should exceed the
  // correlation between far pairs.
  auto config = SmallHighway();
  config.num_sensors = 50;
  config.num_days = 4;
  const auto dataset = SimulateDataset(config);
  const int steps = dataset.num_steps();
  const int n = dataset.num_nodes();

  // Detrend by removing each node's mean.
  std::vector<double> means(n, 0.0);
  for (int t = 0; t < steps; ++t) {
    for (int i = 0; i < n; ++i) means[i] += dataset.series.at(t, i);
  }
  for (auto& m : means) m /= steps;
  auto corr = [&](int i, int j) {
    double cij = 0, cii = 0, cjj = 0;
    for (int t = 0; t < steps; ++t) {
      const double a = dataset.series.at(t, i) - means[i];
      const double b = dataset.series.at(t, j) - means[j];
      cij += a * b;
      cii += a * a;
      cjj += b * b;
    }
    return cij / std::sqrt(cii * cjj + 1e-9);
  };

  double near_corr = 0, far_corr = 0;
  int near_count = 0, far_count = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double d = Distance(dataset.coords[i], dataset.coords[j]);
      if (d < 3.0) {
        near_corr += corr(i, j);
        ++near_count;
      } else if (d > 20.0) {
        far_corr += corr(i, j);
        ++far_count;
      }
    }
  }
  ASSERT_GT(near_count, 0);
  ASSERT_GT(far_count, 0);
  EXPECT_GT(near_corr / near_count, far_corr / far_count + 0.03);
}

TEST(SimulatorTest, AirQualityProducesLargeValues) {
  SimulatorConfig config;
  config.kind = RegionKind::kAirQuality;
  config.num_sensors = 30;
  config.num_days = 10;
  config.steps_per_day = 24;
  config.area_km = 140.0;
  config.events_per_day = 0.4;
  const auto dataset = SimulateDataset(config);
  double mean = 0.0;
  for (float v : dataset.series.values) {
    EXPECT_GE(v, 2.0f);
    mean += v;
  }
  mean /= dataset.series.values.size();
  EXPECT_GT(mean, 30.0);  // PM2.5-like magnitudes.
  EXPECT_LT(mean, 400.0);
}

TEST(SimulatorTest, MetadataSimilarityCorrelatesWithProximity) {
  // Nearby nodes share activity centres, so their metadata embeddings
  // should be more similar than far-apart nodes' embeddings on average.
  auto config = SmallHighway();
  config.num_sensors = 60;
  const auto dataset = SimulateDataset(config);
  double near_sim = 0, far_sim = 0;
  int near_count = 0, far_count = 0;
  for (int i = 0; i < 60; ++i) {
    for (int j = i + 1; j < 60; ++j) {
      const double d = Distance(dataset.coords[i], dataset.coords[j]);
      const double s = CosineSimilarity(dataset.metadata[i].Embedding(),
                                        dataset.metadata[j].Embedding());
      if (d < 3.0) {
        near_sim += s;
        ++near_count;
      } else if (d > 20.0) {
        far_sim += s;
        ++far_count;
      }
    }
  }
  ASSERT_GT(near_count, 0);
  ASSERT_GT(far_count, 0);
  EXPECT_GT(near_sim / near_count, far_sim / far_count);
}

TEST(MetadataTest, EmbeddingLayout) {
  NodeMetadata meta;
  meta.poi_counts[0] = 3.0f;
  meta.scale = 7.0f;
  meta.highway_level = 4.0f;
  meta.maxspeed = 100.0f;
  meta.is_oneway = 1.0f;
  meta.lanes = 3.0f;
  const auto e = meta.Embedding();
  ASSERT_EQ(static_cast<int>(e.size()), kMetadataEmbeddingDim);
  EXPECT_FLOAT_EQ(e[0], 3.0f);
  EXPECT_FLOAT_EQ(e[kNumPoiCategories], 7.0f);
  EXPECT_FLOAT_EQ(e[kNumPoiCategories + 1], 4.0f);
  EXPECT_FLOAT_EQ(e.back(), 3.0f);
}

TEST(MetadataTest, CosineSimilarityProperties) {
  const std::vector<float> a = {1, 0, 0};
  const std::vector<float> b = {0, 1, 0};
  const std::vector<float> c = {2, 0, 0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-9);
}

TEST(SplitsTest, FractionsRespected) {
  Rng rng(15);
  std::vector<GeoPoint> coords;
  for (int i = 0; i < 100; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const SpaceSplit split = SplitSpace(coords, SplitAxis::kVertical);
  EXPECT_EQ(split.train.size(), 40u);
  EXPECT_EQ(split.validation.size(), 10u);
  EXPECT_EQ(split.test.size(), 50u);
}

TEST(SplitsTest, PartitionIsDisjointAndComplete) {
  Rng rng(16);
  std::vector<GeoPoint> coords;
  for (int i = 0; i < 57; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const SpaceSplit split = SplitSpace(coords, SplitAxis::kHorizontal);
  std::set<int> all;
  all.insert(split.train.begin(), split.train.end());
  all.insert(split.validation.begin(), split.validation.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 57u);
  EXPECT_EQ(split.train.size() + split.validation.size() + split.test.size(),
            57u);
}

TEST(SplitsTest, VerticalSplitIsSpatiallyContiguous) {
  Rng rng(17);
  std::vector<GeoPoint> coords;
  for (int i = 0; i < 80; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const SpaceSplit split = SplitSpace(coords, SplitAxis::kVertical);
  double max_train_x = -1e9, min_test_x = 1e9;
  for (int i : split.train) max_train_x = std::max(max_train_x, coords[i].x);
  for (int i : split.test) min_test_x = std::min(min_test_x, coords[i].x);
  EXPECT_LE(max_train_x, min_test_x)
      << "train band must lie entirely left of the test band";
}

TEST(SplitsTest, ReverseFlipsSides) {
  Rng rng(18);
  std::vector<GeoPoint> coords;
  for (int i = 0; i < 60; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const SpaceSplit normal = SplitSpace(coords, SplitAxis::kVertical);
  const SpaceSplit reversed = SplitSpace(coords, SplitAxis::kVertical, 0.4,
                                         0.1, /*reverse=*/true);
  // The reversed test set should overlap the normal train side.
  std::set<int> normal_train(normal.train.begin(), normal.train.end());
  int overlap = 0;
  for (int i : reversed.test) overlap += normal_train.count(i);
  EXPECT_GT(overlap, static_cast<int>(normal.train.size()) / 2);
}

TEST(SplitsTest, RingSplitCenterIsTrain) {
  std::vector<GeoPoint> coords;
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const SpaceSplit split = SplitSpaceRing(coords);
  const GeoPoint center = Centroid(coords);
  double max_train_r = 0, min_test_r = 1e9;
  for (int i : split.train) {
    max_train_r = std::max(max_train_r, Distance(coords[i], center));
  }
  for (int i : split.test) {
    min_test_r = std::min(min_test_r, Distance(coords[i], center));
  }
  EXPECT_LE(max_train_r, min_test_r);
}

TEST(SplitsTest, RatioSplitMatchesRequestedUnobservedShare) {
  std::vector<GeoPoint> coords;
  Rng rng(20);
  for (int i = 0; i < 100; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  for (double ratio : {0.2, 0.3, 0.4, 0.5}) {
    const SpaceSplit split =
        SplitSpaceWithRatio(coords, SplitAxis::kHorizontal, ratio);
    EXPECT_NEAR(static_cast<double>(split.test.size()) / 100.0, ratio, 0.02);
  }
}

TEST(SplitsTest, FourSplitsAreDistinct) {
  std::vector<GeoPoint> coords;
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    coords.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const auto splits = FourSplits(coords);
  ASSERT_EQ(splits.size(), 4u);
  std::set<std::vector<int>> test_sets;
  for (const auto& s : splits) test_sets.insert(s.test);
  EXPECT_EQ(test_sets.size(), 4u);
}

TEST(SplitsTest, TimeSplit) {
  const TimeSplit split = SplitTime(1000, 0.7);
  EXPECT_EQ(split.train_steps, 700);
  EXPECT_EQ(split.total_steps, 1000);
}

TEST(MetricsTest, PerfectPrediction) {
  const std::vector<float> y = {10, 20, 30};
  const Metrics m = ComputeMetrics(y, y);
  EXPECT_DOUBLE_EQ(m.rmse, 0.0);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.mape, 0.0);
  EXPECT_DOUBLE_EQ(m.r2, 1.0);
}

TEST(MetricsTest, KnownValues) {
  const std::vector<float> pred = {1, 2, 3};
  const std::vector<float> target = {2, 2, 5};
  const Metrics m = ComputeMetrics(pred, target);
  EXPECT_NEAR(m.mae, (1 + 0 + 2) / 3.0, 1e-9);
  EXPECT_NEAR(m.rmse, std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-9);
  EXPECT_NEAR(m.mape, (0.5 + 0.0 + 0.4) / 3.0, 1e-6);
}

TEST(MetricsTest, MeanPredictorHasZeroR2) {
  const std::vector<float> target = {1, 2, 3, 4};
  const std::vector<float> mean_pred(4, 2.5f);
  EXPECT_NEAR(ComputeMetrics(mean_pred, target).r2, 0.0, 1e-9);
}

TEST(MetricsTest, WorseThanMeanGivesNegativeR2) {
  const std::vector<float> target = {1, 2, 3, 4};
  const std::vector<float> bad = {4, 3, 2, 1};
  EXPECT_LT(ComputeMetrics(bad, target).r2, 0.0);
}

TEST(MetricsTest, MapeSkipsTinyTargets) {
  const std::vector<float> pred = {1.0f, 5.0f};
  const std::vector<float> target = {0.0f, 10.0f};  // First is skipped.
  const Metrics m = ComputeMetrics(pred, target, /*mape_threshold=*/1.0);
  EXPECT_NEAR(m.mape, 0.5, 1e-9);
}

TEST(MetricsTest, AccumulatorMatchesBatch) {
  const std::vector<float> pred = {1, 2, 3, 4};
  const std::vector<float> target = {2, 2, 2, 2};
  MetricsAccumulator acc;
  acc.AddAll({1, 2}, {2, 2});
  acc.Add(3, 2);
  acc.Add(4, 2);
  const Metrics a = acc.Compute();
  const Metrics b = ComputeMetrics(pred, target);
  EXPECT_DOUBLE_EQ(a.rmse, b.rmse);
  EXPECT_DOUBLE_EQ(a.mae, b.mae);
  EXPECT_DOUBLE_EQ(a.r2, b.r2);
}

TEST(NormalizerTest, RoundTrip) {
  SeriesMatrix series(10, 2);
  Rng rng(22);
  for (auto& v : series.values) v = static_cast<float>(rng.Uniform(50, 70));
  Normalizer norm;
  norm.Fit(series, {0, 1}, 10);
  const float original = series.at(3, 1);
  const float transformed = norm.Transform(original);
  EXPECT_NEAR(norm.Inverse(transformed), original, 1e-4);
}

TEST(NormalizerTest, TransformedStatsStandard) {
  SeriesMatrix series(200, 3);
  Rng rng(23);
  for (auto& v : series.values) v = static_cast<float>(rng.Normal(60, 12));
  Normalizer norm;
  norm.Fit(series, {0, 1, 2}, 200);
  norm.TransformInPlace(&series);
  double mean = 0;
  for (float v : series.values) mean += v;
  mean /= series.values.size();
  double var = 0;
  for (float v : series.values) var += (v - mean) * (v - mean);
  var /= series.values.size();
  EXPECT_NEAR(mean, 0.0, 1e-3);
  EXPECT_NEAR(var, 1.0, 1e-2);
}

TEST(NormalizerTest, ConstantSeriesSafe) {
  SeriesMatrix series(5, 1);
  for (auto& v : series.values) v = 42.0f;
  Normalizer norm;
  norm.Fit(series, {0}, 5);
  EXPECT_FLOAT_EQ(norm.Transform(42.0f), 0.0f);
}

TEST(WindowsTest, ValidStartsRespectRange) {
  WindowSpec spec{4, 2};
  const auto starts = ValidWindowStarts(10, 20, spec);
  EXPECT_EQ(starts.front(), 10);
  EXPECT_EQ(starts.back(), 14);  // 14 + 4 + 2 = 20.
}

TEST(WindowsTest, StrideSubsamples) {
  WindowSpec spec{2, 1};
  const auto starts = ValidWindowStarts(0, 20, spec, /*stride=*/5);
  EXPECT_EQ(starts, (std::vector<int>{0, 5, 10, 15}));
}

TEST(WindowsTest, CapWindowStartsSubsamplesEvenly) {
  std::vector<int> starts;
  for (int i = 0; i < 100; ++i) starts.push_back(i);
  const auto capped = CapWindowStarts(starts, 10);
  EXPECT_EQ(capped.size(), 10u);
  EXPECT_EQ(capped.front(), 0);
  EXPECT_GE(capped.back(), 80);
  const auto untouched = CapWindowStarts(starts, 0);
  EXPECT_EQ(untouched.size(), 100u);
}

TEST(WindowsTest, BatchContents) {
  SeriesMatrix series(10, 2);
  for (int t = 0; t < 10; ++t) {
    series.set(t, 0, static_cast<float>(t));
    series.set(t, 1, static_cast<float>(10 * t));
  }
  WindowSpec spec{3, 2};
  const WindowBatch batch = MakeWindowBatch(series, {1, 4}, spec, 10);
  EXPECT_EQ(batch.inputs.shape(), Shape({2, 3, 2, 1}));
  EXPECT_EQ(batch.targets.shape(), Shape({2, 2, 2, 1}));
  EXPECT_EQ(batch.input_time.shape(), Shape({2, 3, 3}));
  // First window: input steps 1..3, targets 4..5.
  EXPECT_FLOAT_EQ(batch.inputs.at({0, 0, 0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(batch.inputs.at({0, 2, 1, 0}), 30.0f);
  EXPECT_FLOAT_EQ(batch.targets.at({0, 0, 0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(batch.targets.at({0, 1, 1, 0}), 50.0f);
  // Second window: input steps 4..6.
  EXPECT_FLOAT_EQ(batch.inputs.at({1, 0, 0, 0}), 4.0f);
}

TEST(WindowsTest, SlicedSeriesKeepsAbsoluteStarts) {
  // Windows cut from a period sliced out at step 7 equal those cut from the
  // whole series at the same absolute starts, time-of-day features included
  // (7 is not a multiple of the 5 steps per day).
  SeriesMatrix series(20, 2);
  for (int t = 0; t < 20; ++t) {
    series.set(t, 0, static_cast<float>(t));
    series.set(t, 1, static_cast<float>(-t));
  }
  const WindowSpec spec{3, 2};
  const std::vector<int> starts = {7, 9, 15};
  const WindowBatch whole = MakeWindowBatch(series, starts, spec, 5);
  const WindowBatch sliced = MakeWindowBatch(series.TimeSlice(7, 20), starts,
                                             spec, 5, /*first_step=*/7);
  for (const auto& [a, b] : {std::pair{&whole.inputs, &sliced.inputs},
                             std::pair{&whole.targets, &sliced.targets},
                             std::pair{&whole.input_time, &sliced.input_time}}) {
    ASSERT_EQ(a->shape(), b->shape());
    for (int64_t i = 0; i < a->numel(); ++i) {
      EXPECT_EQ(a->data()[i], b->data()[i]) << "element " << i;
    }
  }
  EXPECT_FLOAT_EQ(sliced.inputs.at({0, 0, 0, 0}), 7.0f);
  EXPECT_EQ(sliced.starts, starts);
}

TEST(WindowsTest, SampledStartsAreValid) {
  Rng rng(24);
  WindowSpec spec{4, 4};
  const auto starts = SampleWindowStarts(0, 100, spec, 10, &rng);
  EXPECT_EQ(starts.size(), 10u);
  for (int s : starts) {
    EXPECT_GE(s, 0);
    EXPECT_LE(s + 8, 100);
  }
}

TEST(RegistryTest, AllDatasetsConstructible) {
  for (const auto& name : RegisteredDatasets()) {
    const SimulatorConfig config = DatasetConfig(name, DataScale::kFast);
    EXPECT_EQ(config.name, name);
    EXPECT_GE(config.num_sensors, 40);
  }
  EXPECT_TRUE(IsRegisteredDataset("bay-sim"));
  EXPECT_FALSE(IsRegisteredDataset("nope"));
}

TEST(RegistryTest, AirqMatchesPaperSensorCount) {
  const SimulatorConfig config = DatasetConfig("airq-sim", DataScale::kFull);
  EXPECT_EQ(config.num_sensors, 63);
  EXPECT_EQ(config.steps_per_day, 24);
}

TEST(RegistryTest, FullScaleMatchesPaperCounts) {
  EXPECT_EQ(DatasetConfig("bay-sim", DataScale::kFull).num_sensors, 325);
  EXPECT_EQ(DatasetConfig("pems07-sim", DataScale::kFull).num_sensors, 400);
  EXPECT_EQ(DatasetConfig("melbourne-sim", DataScale::kFull).num_sensors, 182);
}

TEST(RegistryTest, SelectSensorsKeepsAlignment) {
  SimulatorConfig config = SmallHighway();
  const auto dataset = SimulateDataset(config);
  const auto subset = SelectSensors(dataset, {5, 10, 20});
  EXPECT_EQ(subset.num_nodes(), 3);
  EXPECT_EQ(subset.num_steps(), dataset.num_steps());
  EXPECT_DOUBLE_EQ(subset.coords[1].x, dataset.coords[10].x);
  EXPECT_FLOAT_EQ(subset.series.at(7, 2), dataset.series.at(7, 20));
  EXPECT_FLOAT_EQ(subset.metadata[0].scale, dataset.metadata[5].scale);
}

}  // namespace
}  // namespace stsm
