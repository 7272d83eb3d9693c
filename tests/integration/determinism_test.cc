// Two STSM runs with the same seed must be bitwise identical, including
// when tensor ops dispatch through the multi-threaded global pool. This
// binary is separate from integration_test so it can pin STSM_NUM_THREADS
// before ThreadPool::Global() is first constructed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/stsm.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "gtest/gtest.h"
#include "tensor/simd.h"

namespace stsm {
namespace {

// Runs before main(): force a multi-threaded global pool regardless of the
// host's core count, so determinism is checked under real parallelism.
const bool g_env_pinned = [] {
  setenv("STSM_NUM_THREADS", "4", /*overwrite=*/1);
  return true;
}();

SpatioTemporalDataset SmallDataset() {
  SimulatorConfig config;
  config.name = "determinism-highway";
  config.kind = RegionKind::kHighway;
  config.num_sensors = 40;
  config.num_days = 4;
  config.steps_per_day = 48;
  config.area_km = 25.0;
  config.seed = 3;
  return SimulateDataset(config);
}

StsmConfig SmallConfig(uint64_t seed) {
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
  config.seed = seed;
  return config;
}

ExperimentResult RunOnce(uint64_t seed) {
  const auto dataset = SmallDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  StsmRunner runner(dataset, split, SmallConfig(seed));
  return runner.Run();
}

TEST(DeterminismTest, GlobalPoolIsMultiThreaded) {
  ASSERT_TRUE(g_env_pinned);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 4);
}

TEST(DeterminismTest, SameSeedSameLossesAndMetrics) {
  const ExperimentResult first = RunOnce(11);
  const ExperimentResult second = RunOnce(11);

  ASSERT_EQ(first.train_losses.size(), second.train_losses.size());
  for (size_t i = 0; i < first.train_losses.size(); ++i) {
    // Bitwise equality: identical arithmetic in identical order.
    EXPECT_EQ(first.train_losses[i], second.train_losses[i])
        << "epoch " << i << " diverged";
  }
  EXPECT_EQ(first.metrics.rmse, second.metrics.rmse);
  EXPECT_EQ(first.metrics.mae, second.metrics.mae);
  EXPECT_EQ(first.metrics.mape, second.metrics.mape);
  EXPECT_EQ(first.metrics.r2, second.metrics.r2);
  EXPECT_EQ(first.metrics.count, second.metrics.count);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const ExperimentResult first = RunOnce(11);
  const ExperimentResult other = RunOnce(12);
  ASSERT_FALSE(first.train_losses.empty());
  ASSERT_EQ(first.train_losses.size(), other.train_losses.size());
  bool any_diff = false;
  for (size_t i = 0; i < first.train_losses.size(); ++i) {
    if (first.train_losses[i] != other.train_losses[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "seed should affect training";
}

// The scalar SpMM kernels' loop (sparse.cc), standing in for the vector
// spmm_rows entry; counts its calls so the test cannot pass vacuously.
std::atomic<int64_t> g_scalar_spmm_calls{0};
void ScalarSpmmRows(const int32_t* row_ptr, const int32_t* col_idx,
                    const float* values, const float* x, float* y,
                    int64_t row_begin, int64_t row_end, int64_t c,
                    bool accumulate) {
  g_scalar_spmm_calls.fetch_add(1, std::memory_order_relaxed);
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* yrow = y + i * c;
    if (!accumulate) std::fill(yrow, yrow + c, 0.0f);
    for (int32_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const float* xrow = x + static_cast<int64_t>(col_idx[p]) * c;
      for (int64_t cc = 0; cc < c; ++cc) yrow[cc] += values[p] * xrow[cc];
    }
  }
}

// One epoch of a CSR-adjacency run, once with the vector CSR gather and once
// with the scalar loop in its table slot; every other op dispatches the same
// both times, so the losses and metrics must match bit for bit.
TEST(DeterminismTest, SparseRunIdenticalUnderVectorAndScalarSpmm) {
  const simd::KernelTable* vector_table = simd::Supported();
  if (vector_table == nullptr) GTEST_SKIP() << "no SIMD kernels";
  simd::KernelTable scalar_spmm = *vector_table;
  scalar_spmm.spmm_rows = ScalarSpmmRows;

  StsmConfig config = SmallConfig(11);
  config.epochs = 1;
  config.hidden_dim = 16;  // The benchmark's width: the 16-column tile.
  config.sparse_adjacency = true;
  const auto dataset = SmallDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  auto run = [&](const simd::KernelTable* table) {
    simd::SetDispatchForTesting(table);
    StsmRunner runner(dataset, split, config);
    const ExperimentResult result = runner.Run();
    simd::ResetDispatch();
    return result;
  };
  const ExperimentResult vector_run = run(vector_table);
  ASSERT_EQ(g_scalar_spmm_calls.load(), 0);
  const ExperimentResult scalar_run = run(&scalar_spmm);
  ASSERT_GT(g_scalar_spmm_calls.load(), 0) << "the run never reached Spmm";

  ASSERT_EQ(vector_run.train_losses.size(), 1u);
  ASSERT_EQ(vector_run.train_losses.size(), scalar_run.train_losses.size());
  EXPECT_EQ(vector_run.train_losses[0], scalar_run.train_losses[0]);
  EXPECT_EQ(vector_run.metrics.rmse, scalar_run.metrics.rmse);
  EXPECT_EQ(vector_run.metrics.mae, scalar_run.metrics.mae);
  EXPECT_EQ(vector_run.metrics.count, scalar_run.metrics.count);
}

}  // namespace
}  // namespace stsm
