// Sparse substrate: CSR matrices and SpMM on the pooled tensor core.
//
// `SparseCsr` is an immutable rows x cols sparse matrix in compressed sparse
// row layout — row_ptr (rows + 1), col_idx (nnz) and values (nnz) — whose
// three arrays live on pooled `Storage` buffers, so sparse memory is
// accounted by the same BufferPool counters as dense tensors. Values are
// fp32, indices int32; within each row the column indices are strictly
// ascending, which fixes the floating-point accumulation order of every
// kernel that walks a row.
//
// `Spmm(A, X)` is the sparse counterpart of `MatMul(A, X)` for a constant
// 2-D A: forward Y = A·X over the trailing [cols, C] matrices of X (leading
// batch dimensions loop), backward dX = Aᵀ·dG through a transpose plan (a
// CSC view of A, built lazily once and cached on the shared impl). A itself
// never receives a gradient — STSM's adjacencies are precomputed constants.
//
// Kernel discipline mirrors the PR 7 scalar/SIMD split: every SpMM kernel
// (`*Kernel`) has a dense-reference oracle twin (`*Oracle`) in sparse.cc
// with the identical skip-zero accumulation order, so differential tests can
// require bitwise-equal results (tools/stsm_lint.py enforces the pairing).
//
// `Adjacency` is the variant the graph consumers (GCN layers, the ST model,
// masking, serving) take: either a dense Tensor or a SparseCsr, with
// `Apply(x)` routing to MatMul or Spmm. Both constructors are implicit on
// purpose — every pre-existing call site that passes a dense adjacency
// Tensor keeps compiling, and the dense route stays bitwise what it was.

#ifndef STSM_TENSOR_SPARSE_H_
#define STSM_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace stsm {

namespace internal {
struct CsrImpl;
}  // namespace internal

class SparseCsr {
 public:
  // Undefined handle; may not be used in operations.
  SparseCsr() = default;
  explicit SparseCsr(std::shared_ptr<internal::CsrImpl> impl);

  // Builds from explicit CSR arrays (copied onto pooled storage). Validates
  // the invariants: row_ptr is monotone with row_ptr[0] == 0 and
  // row_ptr[rows] == nnz, every column index is in [0, cols), and columns
  // are strictly ascending within each row.
  static SparseCsr FromParts(int64_t rows, int64_t cols,
                             const std::vector<int32_t>& row_ptr,
                             const std::vector<int32_t>& col_idx,
                             const std::vector<float>& values);

  // Compresses a 2-D tensor (strided views welcome), keeping every entry
  // with a non-zero bit pattern other than ±0.0f. Round-trips bitwise:
  // FromDense(d).ToDense() == d whenever d holds no -0.0f entries.
  static SparseCsr FromDense(const Tensor& dense);

  // Materialises the dense [rows, cols] tensor (zeros where no entry).
  Tensor ToDense() const;

  bool defined() const { return impl_ != nullptr; }
  int64_t rows() const;
  int64_t cols() const;
  int64_t nnz() const;

  // Raw CSR arrays. Valid while this handle (or a copy) is alive.
  const int32_t* row_ptr() const;
  const int32_t* col_idx() const;
  // fp32 values accessor (checked when the values are stored as bf16).
  const float* values() const;

  // Element type of the values array. Indices are always int32; kBf16
  // values exist only on the no-grad serving path (see CastValues).
  DType values_dtype() const;
  // bf16 values accessor (checked; widen via F32FromBf16).
  const uint16_t* values_bf16() const;

  // Returns a matrix sharing this one's row_ptr/col_idx storage with the
  // values converted to `dtype` (RNE narrowing / exact widening; same handle
  // when the dtype already matches). Serving-path only: Spmm over bf16
  // values is forward-only — recording through it is a checked error.
  SparseCsr CastValues(DType dtype) const;

  const std::shared_ptr<internal::CsrImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<internal::CsrImpl> impl_;
};

// Sparse-dense matrix product: a [N, M] times x [..., M, C] -> [..., N, C].
// Leading dimensions of x are batch dimensions (a is shared across them).
// Differentiable with respect to x only; a is constant. Rows of a with no
// entries yield zero output rows. Per output element the accumulation runs
// in ascending column order, so the result is bitwise equal to SpmmOracle
// on the equivalent dense matrix. When every trailing [M, C] matrix of x is
// row-major and no two overlap — any batch stride, e.g. a time slice of a
// [B, T, N, C] activation — x is read in place and dX is accumulated
// straight into x's gradient window (one graph node, no copy); other
// layouts are compacted first.
Tensor Spmm(const SparseCsr& a, const Tensor& x);

// Dense-reference oracle for Spmm: same contract and the same skip-zero
// ascending-k accumulation order, reading a dense 2-D `dense_a` instead of
// CSR arrays. Differentiable with respect to x (its backward is the oracle
// twin of the SpMM backward kernel). Exists for differential testing; not a
// fast path.
Tensor SpmmOracle(const Tensor& dense_a, const Tensor& x);

// A graph adjacency that is either a dense Tensor or a SparseCsr. The
// implicit constructors keep dense Tensor call sites source-compatible.
class Adjacency {
 public:
  Adjacency() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for dense sites.
  Adjacency(Tensor dense);
  // NOLINTNEXTLINE(google-explicit-constructor)
  Adjacency(SparseCsr sparse);

  bool defined() const { return dense_.defined() || sparse_.defined(); }
  bool is_sparse() const { return sparse_.defined(); }

  // Checked accessors: the matching variant must be held.
  const Tensor& dense() const;
  const SparseCsr& sparse() const;

  int64_t rows() const;
  int64_t cols() const;

  // Propagation A·X over the trailing [cols, C] matrices of x; batch
  // dimensions broadcast. Routes to MatMul (dense, bitwise-unchanged
  // behaviour) or Spmm (sparse).
  Tensor Apply(const Tensor& x) const;

  // The x-gradient of Apply(x), without a recorded node: x.grad += Aᵀ·dY,
  // where grad_y holds dY as a contiguous array of Apply(x)'s output shape.
  // It runs the kernels of Apply's own backward in their order, so the bits
  // equal what recording Apply would have accumulated. For fused autograd
  // nodes (nn/gcn.cc) that propagate once and differentiate through the
  // result more than once. x must require grad.
  void AccumulateInputGrad(const Tensor& x, const float* grad_y) const;

  // The adjacency as a dense tensor (materialises when sparse).
  Tensor ToDenseTensor() const;

  // Storage dtype of the adjacency weights (dense tensor or CSR values).
  DType values_dtype() const;

  // The adjacency with its weights converted to `dtype` (dense: To();
  // sparse: SparseCsr::CastValues). Serving-path only, like CastValues.
  Adjacency Cast(DType dtype) const;

 private:
  Tensor dense_;
  SparseCsr sparse_;
};

}  // namespace stsm

#endif  // STSM_TENSOR_SPARSE_H_
