// Tests for the sparse substrate: CSR round-trips, SpMM forward/backward
// against the dense-reference oracle (bitwise — the kernels share one
// accumulation order) and against MatMul (tolerance — different flop
// order), gradients through the Adjacency variant, the empty-row /
// isolated-node / identity edge cases, and pool accounting of the CSR
// buffers.

#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/autograd.h"
#include "tensor/grad_check.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

uint32_t Bits(float v) {
  uint32_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(Bits(a.impl()->data()[a.impl()->PhysicalIndex(i)]),
              Bits(b.impl()->data()[b.impl()->PhysicalIndex(i)]))
        << "element " << i;
  }
}

// A reproducible sparse-ish matrix: Uniform values with everything below
// the cutoff zeroed, leaving roughly `keep` of the entries non-zero.
Tensor RandomSparseDense(int64_t rows, int64_t cols, uint64_t seed,
                         float keep = 0.3f) {
  Rng rng(seed);
  Tensor dense = Tensor::Uniform(Shape({rows, cols}), 0.0f, 1.0f, &rng);
  float* d = dense.data();
  for (int64_t i = 0; i < dense.numel(); ++i) {
    d[i] = d[i] < 1.0f - keep ? 0.0f : d[i];
  }
  return dense;
}

// ---- Construction and round-trips -------------------------------------------

TEST(SparseCsrTest, FromPartsAccessors) {
  // [[0, 2, 0], [0, 0, 0], [1, 0, 3]]
  const SparseCsr a = SparseCsr::FromParts(3, 3, {0, 1, 1, 3}, {1, 0, 2},
                                           {2.0f, 1.0f, 3.0f});
  ASSERT_TRUE(a.defined());
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_EQ(a.row_ptr()[0], 0);
  EXPECT_EQ(a.row_ptr()[1], 1);
  EXPECT_EQ(a.row_ptr()[2], 1);
  EXPECT_EQ(a.row_ptr()[3], 3);
  EXPECT_EQ(a.col_idx()[0], 1);
  EXPECT_EQ(a.col_idx()[2], 2);
  EXPECT_EQ(a.values()[0], 2.0f);

  const Tensor dense = a.ToDense();
  EXPECT_EQ(dense.at({0, 1}), 2.0f);
  EXPECT_EQ(dense.at({1, 1}), 0.0f);
  EXPECT_EQ(dense.at({2, 0}), 1.0f);
  EXPECT_EQ(dense.at({2, 2}), 3.0f);
}

TEST(SparseCsrTest, DenseRoundTripBitwise) {
  const Tensor dense = RandomSparseDense(17, 13, /*seed=*/1);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  EXPECT_GT(csr.nnz(), 0);
  EXPECT_LT(csr.nnz(), dense.numel());
  ExpectBitwiseEqual(csr.ToDense(), dense);
}

TEST(SparseCsrTest, FromDenseStridedView) {
  // A transposed (non-contiguous) view compresses to the same matrix as its
  // contiguous clone.
  const Tensor base = RandomSparseDense(9, 6, /*seed=*/2);
  const Tensor view = Transpose(base, 0, 1);
  const SparseCsr from_view = SparseCsr::FromDense(view);
  const SparseCsr from_copy = SparseCsr::FromDense(view.Clone());
  EXPECT_EQ(from_view.nnz(), from_copy.nnz());
  ExpectBitwiseEqual(from_view.ToDense(), from_copy.ToDense());
}

TEST(SparseCsrTest, AllZeroMatrix) {
  const Tensor zeros = Tensor::Zeros(Shape({5, 4}));
  const SparseCsr csr = SparseCsr::FromDense(zeros);
  EXPECT_EQ(csr.nnz(), 0);
  ExpectBitwiseEqual(csr.ToDense(), zeros);

  Rng rng(3);
  const Tensor x = Tensor::Uniform(Shape({4, 3}), -1, 1, &rng);
  ExpectBitwiseEqual(Spmm(csr, x), Tensor::Zeros(Shape({5, 3})));
}

// ---- SpMM forward -----------------------------------------------------------

TEST(SpmmTest, MatchesOracleBitwise2d) {
  const Tensor dense = RandomSparseDense(12, 9, /*seed=*/4);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(5);
  const Tensor x = Tensor::Uniform(Shape({9, 7}), -1, 1, &rng);
  ExpectBitwiseEqual(Spmm(csr, x), SpmmOracle(dense, x));
}

TEST(SpmmTest, MatchesOracleBitwiseBatched) {
  const Tensor dense = RandomSparseDense(8, 10, /*seed=*/6);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(7);
  const Tensor x = Tensor::Uniform(Shape({3, 2, 10, 5}), -1, 1, &rng);
  ExpectBitwiseEqual(Spmm(csr, x), SpmmOracle(dense, x));
}

TEST(SpmmTest, MatchesOracleBitwiseStridedInput) {
  // A transposed view's matrices are not row-major, so Spmm compacts it
  // first; the result must not depend on the input's memory layout.
  const Tensor dense = RandomSparseDense(6, 6, /*seed=*/8);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(9);
  const Tensor base = Tensor::Uniform(Shape({4, 6}), -1, 1, &rng);
  const Tensor view = Transpose(base, 0, 1);  // [6, 4], non-contiguous.
  ExpectBitwiseEqual(Spmm(csr, view), Spmm(csr, view.Clone()));
  ExpectBitwiseEqual(Spmm(csr, view), SpmmOracle(dense, view.Clone()));
}

TEST(SpmmTest, BatchStridedSliceReadsAndWritesInPlace) {
  // A time slice of a [B, T, N, C] activation is batch-strided (for B > 1)
  // but each [N, C] matrix is row-major: Spmm reads it and accumulates dX
  // in place — one graph node, no copy — bitwise as for a compact input,
  // with the gradient confined to the slice's window of the base buffer.
  const int64_t time = 6, nodes = 10, channels = 4, t0 = 2, t1 = 5;
  const Tensor dense = RandomSparseDense(nodes, nodes, /*seed=*/30);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  for (const int64_t batch : {1, 3}) {
    SCOPED_TRACE(batch);
    Rng rng(31);
    Tensor base = Tensor::Uniform(Shape({batch, time, nodes, channels}), -1,
                                  1, &rng, /*requires_grad=*/true);
    const Tensor upstream = Tensor::Uniform(
        Shape({batch, t1 - t0, nodes, channels}), -1, 1, &rng);
    const Tensor view = Slice(base, 1, t0, t1);
    Tensor compact = view.Clone();
    compact.set_requires_grad(true);

    const uint64_t nodes_before = autograd::NodesCreated();
    const Tensor y_view = Spmm(csr, view);
    EXPECT_EQ(autograd::NodesCreated() - nodes_before, 1u);
    const Tensor y_compact = Spmm(csr, compact);
    ExpectBitwiseEqual(y_view, y_compact);

    Sum(Mul(y_view, upstream)).Backward();
    Sum(Mul(y_compact, upstream)).Backward();
    const Tensor grad = base.GradTensor();
    ExpectBitwiseEqual(Slice(grad, 1, t0, t1), compact.GradTensor());
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t t = 0; t < time; ++t) {
        if (t >= t0 && t < t1) continue;
        for (int64_t i = 0; i < nodes; ++i) {
          for (int64_t c = 0; c < channels; ++c) {
            EXPECT_EQ(Bits(grad.at({b, t, i, c})), 0u);
          }
        }
      }
    }
  }
}

TEST(SpmmTest, MatchesMatMulWithinTolerance) {
  // MatMul uses the packed GEMM microkernel with a different accumulation
  // order, so parity here is tolerance-bounded, not bitwise.
  const Tensor dense = RandomSparseDense(20, 16, /*seed=*/10);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(11);
  const Tensor x = Tensor::Uniform(Shape({2, 16, 6}), -1, 1, &rng);
  const Tensor sparse_y = Spmm(csr, x);
  const Tensor dense_y = MatMul(dense, x);
  ASSERT_EQ(sparse_y.shape(), dense_y.shape());
  for (int64_t i = 0; i < sparse_y.numel(); ++i) {
    const float s = sparse_y.data()[i];
    const float d = dense_y.data()[i];
    EXPECT_NEAR(s, d, 1e-5f * std::max(1.0f, std::fabs(d)))
        << "element " << i;
  }
}

TEST(SpmmTest, EmptyRowsYieldZeroOutputRows) {
  // Rows 0 and 2 have no entries; their output rows must be exactly zero
  // even though x is arbitrary.
  const SparseCsr a =
      SparseCsr::FromParts(4, 3, {0, 0, 2, 2, 3}, {0, 2, 1},
                           {1.5f, -2.0f, 0.5f});
  Rng rng(12);
  const Tensor x = Tensor::Uniform(Shape({3, 4}), -1, 1, &rng);
  const Tensor y = Spmm(a, x);
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(Bits(y.at({0, c})), Bits(0.0f));
    EXPECT_EQ(Bits(y.at({2, c})), Bits(0.0f));
  }
  ExpectBitwiseEqual(y, SpmmOracle(a.ToDense(), x));
}

TEST(SpmmTest, IdentityReproducesInput) {
  const int64_t n = 7;
  std::vector<int32_t> row_ptr(n + 1), col_idx(n);
  std::vector<float> values(n, 1.0f);
  for (int64_t i = 0; i <= n; ++i) row_ptr[i] = static_cast<int32_t>(i);
  for (int64_t i = 0; i < n; ++i) col_idx[i] = static_cast<int32_t>(i);
  const SparseCsr eye = SparseCsr::FromParts(n, n, row_ptr, col_idx, values);
  Rng rng(13);
  const Tensor x = Tensor::Uniform(Shape({2, n, 3}), -1, 1, &rng);
  ExpectBitwiseEqual(Spmm(eye, x), Contiguous(x));
}

// ---- SpMM backward ----------------------------------------------------------

TEST(SpmmTest, BackwardMatchesOracleBitwise) {
  const Tensor dense = RandomSparseDense(10, 8, /*seed=*/14);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(15);
  const Tensor x_data = Tensor::Uniform(Shape({2, 8, 5}), -1, 1, &rng);
  // Non-uniform weights so the upstream gradient is not all-ones.
  const Tensor w = Tensor::Uniform(Shape({2, 10, 5}), -1, 1, &rng);

  Tensor x_sparse = x_data.Clone().set_requires_grad(true);
  Sum(Mul(Spmm(csr, x_sparse), w)).Backward();

  Tensor x_oracle = x_data.Clone().set_requires_grad(true);
  Sum(Mul(SpmmOracle(dense, x_oracle), w)).Backward();

  ExpectBitwiseEqual(x_sparse.GradTensor(), x_oracle.GradTensor());
}

TEST(SpmmTest, GradCheckAgainstFiniteDifferences) {
  const Tensor dense = RandomSparseDense(5, 6, /*seed=*/16, /*keep=*/0.5f);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(17);
  Tensor x = Tensor::Uniform(Shape({6, 4}), -1, 1, &rng,
                             /*requires_grad=*/true);
  const GradCheckResult result = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return Sum(Square(Spmm(csr, in[0])));
      },
      {x}, 1e-2, 2e-2);
  EXPECT_TRUE(result.ok) << "max_abs=" << result.max_abs_error
                         << " max_rel=" << result.max_rel_error;
}

TEST(SpmmTest, EmptyColumnLeavesZeroGradient) {
  // Column 1 of A is all-zero (an isolated source node): no output depends
  // on x row 1, so its gradient must be exactly zero.
  const SparseCsr a =
      SparseCsr::FromParts(3, 3, {0, 1, 2, 3}, {0, 2, 0},
                           {1.0f, 2.0f, 3.0f});
  Rng rng(18);
  Tensor x = Tensor::Uniform(Shape({3, 2}), -1, 1, &rng,
                             /*requires_grad=*/true);
  Sum(Spmm(a, x)).Backward();
  const Tensor grad = x.GradTensor();
  EXPECT_EQ(Bits(grad.at({1, 0})), Bits(0.0f));
  EXPECT_EQ(Bits(grad.at({1, 1})), Bits(0.0f));
  EXPECT_NE(grad.at({0, 0}), 0.0f);
}

// ---- Adjacency variant ------------------------------------------------------

TEST(AdjacencyTest, DenseRouteIsMatMulBitwise) {
  Rng rng(19);
  const Tensor dense = Tensor::Uniform(Shape({6, 6}), 0, 1, &rng);
  const Tensor x = Tensor::Uniform(Shape({2, 6, 3}), -1, 1, &rng);
  const Adjacency adj(dense);
  ASSERT_TRUE(adj.defined());
  EXPECT_FALSE(adj.is_sparse());
  EXPECT_EQ(adj.rows(), 6);
  ExpectBitwiseEqual(adj.Apply(x), MatMul(dense, x));
  ExpectBitwiseEqual(adj.ToDenseTensor(), dense);
}

TEST(AdjacencyTest, SparseRouteIsSpmm) {
  const Tensor dense = RandomSparseDense(6, 6, /*seed=*/20);
  const SparseCsr csr = SparseCsr::FromDense(dense);
  Rng rng(21);
  const Tensor x = Tensor::Uniform(Shape({6, 3}), -1, 1, &rng);
  const Adjacency adj(csr);
  EXPECT_TRUE(adj.is_sparse());
  ExpectBitwiseEqual(adj.Apply(x), Spmm(csr, x));
  ExpectBitwiseEqual(adj.ToDenseTensor(), dense);
}

// ---- Pool accounting --------------------------------------------------------

TEST(SparseCsrTest, BuffersReturnToPool) {
  const BufferPoolStats before = BufferPool::Instance().Stats();
  {
    const Tensor dense = RandomSparseDense(16, 16, /*seed=*/22);
    const SparseCsr csr = SparseCsr::FromDense(dense);
    Rng rng(23);
    const Tensor x = Tensor::Uniform(Shape({16, 4}), -1, 1, &rng);
    const Tensor y = Spmm(csr, x);
    EXPECT_GT(BufferPool::Instance().Stats().live_buffers,
              before.live_buffers);
  }
  // Every CSR array, input and output released — no net leak.
  EXPECT_EQ(BufferPool::Instance().Stats().live_buffers, before.live_buffers);
}

}  // namespace
}  // namespace stsm
