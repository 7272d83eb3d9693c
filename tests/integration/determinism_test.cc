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

// Scalar stand-ins for the Conv1dTime and broadcast-gradient entries, each
// the plain loop its contract in simd.h spells out; they count their calls
// so the test cannot pass vacuously.
std::atomic<int64_t> g_scalar_conv_calls{0};
void ScalarConvTimeRows(const float* x_b, const float* w_packed,
                        const float* bias, float* y, int64_t t,
                        int64_t dilation, int64_t kernel, int64_t nodes,
                        int64_t c_in, int64_t c_out) {
  g_scalar_conv_calls.fetch_add(1, std::memory_order_relaxed);
  for (int64_t n = 0; n < nodes; ++n) {
    for (int64_t co = 0; co < c_out; ++co) {
      float out = bias != nullptr ? bias[co] : 0.0f;
      for (int64_t kk = 0; kk < kernel; ++kk) {
        const int64_t t_in = t - (kernel - 1 - kk) * dilation;
        if (t_in < 0) continue;
        const float* x_row = x_b + (t_in * nodes + n) * c_in;
        float acc = 0.0f;
        for (int64_t ci = 0; ci < c_in; ++ci) {
          acc += w_packed[(kk * c_in + ci) * c_out + co] * x_row[ci];
        }
        out += acc;
      }
      y[n * c_out + co] = out;
    }
  }
}

std::atomic<int64_t> g_scalar_rows_axpy_calls{0};
void ScalarRowsAxpy(const float* a, int64_t a_row, int64_t a_col,
                    const float* b, float* y, int64_t rows, int64_t inner,
                    int64_t c) {
  g_scalar_rows_axpy_calls.fetch_add(1, std::memory_order_relaxed);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < inner; ++j) {
      const float s = a[i * a_row + j * a_col];
      if (s == 0.0f) continue;
      for (int64_t cc = 0; cc < c; ++cc) y[i * c + cc] += s * b[j * c + cc];
    }
  }
}

std::atomic<int64_t> g_scalar_mul_acc_calls{0};
void ScalarMulAcc(float* x, const float* y, const float* z, int64_t n) {
  g_scalar_mul_acc_calls.fetch_add(1, std::memory_order_relaxed);
  for (int64_t i = 0; i < n; ++i) x[i] += y[i] * z[i];
}

// One epoch of a dense STSM-TCN run, once with the vector conv and
// broadcast-gradient kernels and once with scalar loops in their table
// slots; every other op dispatches the same both times (the dense GEMM's
// FMA tiles included), so the losses and metrics must match bit for bit.
TEST(DeterminismTest, TcnRunIdenticalUnderVectorAndScalarConvKernels) {
  const simd::KernelTable* vector_table = simd::Supported();
  if (vector_table == nullptr) GTEST_SKIP() << "no SIMD kernels";
  simd::KernelTable scalar_conv = *vector_table;
  scalar_conv.conv_time_rows = ScalarConvTimeRows;
  scalar_conv.rows_axpy = ScalarRowsAxpy;
  scalar_conv.mul_acc = ScalarMulAcc;

  StsmConfig config = SmallConfig(12);
  config.epochs = 1;
  config.hidden_dim = 16;  // The benchmark's width: the 16-column tile.
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
  const ExperimentResult scalar_run = run(&scalar_conv);
  ASSERT_GT(g_scalar_conv_calls.load(), 0) << "the run never reached a conv";
  ASSERT_GT(g_scalar_rows_axpy_calls.load(), 0);
  ASSERT_GT(g_scalar_mul_acc_calls.load(), 0);

  ASSERT_EQ(vector_run.train_losses.size(), 1u);
  ASSERT_EQ(vector_run.train_losses.size(), scalar_run.train_losses.size());
  EXPECT_EQ(vector_run.train_losses[0], scalar_run.train_losses[0]);
  EXPECT_EQ(vector_run.metrics.rmse, scalar_run.metrics.rmse);
  EXPECT_EQ(vector_run.metrics.mae, scalar_run.metrics.mae);
  EXPECT_EQ(vector_run.metrics.count, scalar_run.metrics.count);
}

}  // namespace
}  // namespace stsm
