#include <cmath>

#include "baselines/gegan.h"
#include "baselines/ignnk.h"
#include "baselines/increase.h"
#include "baselines/zoo.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "gtest/gtest.h"

namespace stsm {
namespace {

SpatioTemporalDataset TinyDataset() {
  SimulatorConfig config;
  config.name = "tiny-highway";
  config.kind = RegionKind::kHighway;
  config.num_sensors = 36;
  config.num_days = 4;
  config.steps_per_day = 48;
  config.area_km = 25.0;
  config.seed = 3;
  return SimulateDataset(config);
}

BaselineConfig TinyBaselineConfig() {
  BaselineConfig config;
  config.input_length = 8;
  config.horizon = 8;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.batches_per_epoch = 4;
  config.batch_size = 4;
  config.eval_stride = 8;
  config.max_eval_windows = 6;
  config.gegan_epochs_multiplier = 2;
  config.seed = 5;
  return config;
}

StsmConfig TinyStsmConfig() {
  StsmConfig config;
  config.input_length = 8;
  config.horizon = 8;
  config.hidden_dim = 8;
  config.epochs = 3;
  config.batches_per_epoch = 4;
  config.batch_size = 4;
  config.eval_stride = 8;
  config.max_eval_windows = 6;
  config.top_k = 12;
  config.dtw_band = 6;
  config.seed = 5;
  return config;
}

void ExpectSaneResult(const ExperimentResult& result, const char* model) {
  EXPECT_TRUE(std::isfinite(result.metrics.rmse)) << model;
  EXPECT_GT(result.metrics.rmse, 0.0) << model;
  EXPECT_GT(result.metrics.count, 0) << model;
  EXPECT_FALSE(result.train_losses.empty()) << model;
  for (double loss : result.train_losses) {
    EXPECT_TRUE(std::isfinite(loss)) << model;
  }
}

TEST(IgnnkTest, EndToEnd) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const ExperimentResult result =
      RunIgnnk(dataset, split, TinyBaselineConfig());
  ExpectSaneResult(result, "IGNNK");
  // Speeds are tens of km/h; predictions should land in a sane range.
  EXPECT_LT(result.metrics.rmse, 120.0);
}

TEST(IncreaseTest, EndToEnd) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const ExperimentResult result =
      RunIncrease(dataset, split, TinyBaselineConfig());
  ExpectSaneResult(result, "INCREASE");
  EXPECT_LT(result.metrics.rmse, 60.0);
}

TEST(GeGanTest, EndToEnd) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const ExperimentResult result =
      RunGeGan(dataset, split, TinyBaselineConfig());
  ExpectSaneResult(result, "GE-GAN");
  EXPECT_LT(result.metrics.rmse, 200.0);
}

TEST(ZooTest, ModelNamesMatchPaper) {
  EXPECT_EQ(ModelName(ModelKind::kGeGan), "GE-GAN");
  EXPECT_EQ(ModelName(ModelKind::kIgnnk), "IGNNK");
  EXPECT_EQ(ModelName(ModelKind::kIncrease), "INCREASE");
  EXPECT_EQ(ModelName(ModelKind::kStsm), "STSM");
  EXPECT_EQ(ModelName(ModelKind::kStsmRnc), "STSM-RNC");
}

TEST(ZooTest, Table4ModelOrder) {
  const auto models = Table4Models();
  ASSERT_EQ(models.size(), 7u);
  EXPECT_EQ(models.front(), ModelKind::kGeGan);
  EXPECT_EQ(models.back(), ModelKind::kStsm);
}

TEST(ZooTest, BaselineConfigInheritsScale) {
  StsmConfig stsm = TinyStsmConfig();
  const BaselineConfig baseline = BaselineFromStsm(stsm);
  EXPECT_EQ(baseline.input_length, stsm.input_length);
  EXPECT_EQ(baseline.epochs, stsm.epochs);
  EXPECT_EQ(baseline.batch_size, stsm.batch_size);
  EXPECT_EQ(baseline.max_eval_windows, stsm.max_eval_windows);
}

TEST(ZooTest, DispatchRunsEveryKind) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const StsmConfig config = TinyStsmConfig();
  for (const ModelKind kind :
       {ModelKind::kIgnnk, ModelKind::kIncrease, ModelKind::kStsm}) {
    const ExperimentResult result = RunModel(kind, dataset, split, config);
    ExpectSaneResult(result, ModelName(kind).c_str());
  }
}

TEST(ContextTest, BuildsConsistentShapes) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const BaselineContext context =
      BuildBaselineContext(dataset, split, TinyBaselineConfig());
  EXPECT_EQ(context.observed.size() + context.unobserved.size(),
            static_cast<size_t>(dataset.num_nodes()));
  EXPECT_EQ(context.train_observed.num_nodes,
            static_cast<int>(context.observed.size()));
  EXPECT_EQ(context.train_observed.num_steps, context.time_split.train_steps);
  EXPECT_EQ(context.a_s_norm_full.shape()[0], dataset.num_nodes());
  EXPECT_EQ(context.a_s_norm_train.shape()[0],
            static_cast<int64_t>(context.observed.size()));
}

}  // namespace
}  // namespace stsm
