#include "tensor/sparse.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace stsm {

namespace internal {

// The shared CSR node. The three live arrays sit on pooled Storage buffers;
// int32 indices are stored in the 4-byte float cells and accessed through
// I32() below (the cells are only ever read and written as int32, never
// mixed with float access to the same buffer). The transpose plan — the CSR
// arrays of Aᵀ, i.e. a CSC view of A — is built at most once, lazily, on
// the first backward pass through this matrix; no-grad serving never pays
// for it.
struct CsrImpl {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t nnz = 0;
  std::shared_ptr<Storage> row_ptr;  // rows + 1 int32 cells.
  std::shared_ptr<Storage> col_idx;  // nnz int32 cells.
  std::shared_ptr<Storage> values;   // nnz floats.

  std::once_flag transpose_once;
  std::shared_ptr<Storage> t_row_ptr;  // cols + 1 int32 cells.
  std::shared_ptr<Storage> t_col_idx;  // nnz int32 cells (source rows).
  std::shared_ptr<Storage> t_values;   // nnz floats.

  CsrImpl() { STSM_PROF_COUNT("sparse.csr_create", 1); }
  ~CsrImpl() { STSM_PROF_COUNT("sparse.csr_destroy", 1); }
  CsrImpl(const CsrImpl&) = delete;
  CsrImpl& operator=(const CsrImpl&) = delete;
};

}  // namespace internal

namespace {

using internal::CsrImpl;
using ImplPtr = std::shared_ptr<TensorImpl>;
using autograd::Node;

constexpr int64_t kSpmmRowBlock = 64;

int32_t* I32(Storage* s) { return reinterpret_cast<int32_t*>(s->data()); }
const int32_t* I32(const Storage& s) {
  return reinterpret_cast<const int32_t*>(s.data());
}

// Copies the validated arrays onto pooled storage. Callers guarantee the
// CSR invariants already hold.
std::shared_ptr<CsrImpl> NewCsrImpl(int64_t rows, int64_t cols,
                                    const int32_t* row_ptr,
                                    const int32_t* col_idx,
                                    const float* values, int64_t nnz) {
  STSM_CHECK_GE(rows, 0);
  STSM_CHECK_GE(cols, 0);
  STSM_CHECK_LE(rows, std::numeric_limits<int32_t>::max() - 1);
  STSM_CHECK_LE(cols, std::numeric_limits<int32_t>::max() - 1);
  STSM_CHECK_LE(nnz, std::numeric_limits<int32_t>::max());
  auto impl = std::make_shared<CsrImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->nnz = nnz;
  impl->row_ptr = Storage::New(rows + 1, /*zero=*/false);
  impl->col_idx = Storage::New(nnz, /*zero=*/false);
  impl->values = Storage::New(nnz, /*zero=*/false);
  std::copy(row_ptr, row_ptr + rows + 1, I32(impl->row_ptr.get()));
  std::copy(col_idx, col_idx + nnz, I32(impl->col_idx.get()));
  std::copy(values, values + nnz, impl->values->data());
  return impl;
}

// Builds the transpose plan on first use (thread-safe; SparseCsr handles
// are shared by the serving workers). Counting sort over the column index:
// the resulting Aᵀ rows list their source rows in ascending order, which
// fixes the backward accumulation order deterministically.
void EnsureTransposePlan(CsrImpl* a) {
  std::call_once(a->transpose_once, [a] {
    STSM_PROF_COUNT("sparse.transpose_plans", 1);
    a->t_row_ptr = Storage::New(a->cols + 1, /*zero=*/false);
    a->t_col_idx = Storage::New(a->nnz, /*zero=*/false);
    a->t_values = Storage::New(a->nnz, /*zero=*/false);
    const int32_t* rp = I32(*a->row_ptr);
    const int32_t* ci = I32(*a->col_idx);
    const float* av = a->values->data();
    int32_t* trp = I32(a->t_row_ptr.get());
    int32_t* tci = I32(a->t_col_idx.get());
    float* tav = a->t_values->data();

    std::vector<int32_t> count(a->cols + 1, 0);
    for (int64_t p = 0; p < a->nnz; ++p) ++count[ci[p] + 1];
    trp[0] = 0;
    for (int64_t j = 0; j < a->cols; ++j) trp[j + 1] = trp[j] + count[j + 1];
    std::vector<int32_t> cursor(trp, trp + a->cols);
    for (int64_t i = 0; i < a->rows; ++i) {
      for (int32_t p = rp[i]; p < rp[i + 1]; ++p) {
        const int32_t pos = cursor[ci[p]]++;
        tci[pos] = static_cast<int32_t>(i);
        tav[pos] = av[p];
      }
    }
  });
}

// ---- Kernels and their dense-reference oracles ------------------------------
//
// Each Kernel/Oracle pair performs the identical per-element accumulation:
// ascending source index, zero terms skipped. That makes CSR-vs-dense
// differential tests bitwise, not tolerance-bounded (the oracle reads a
// dense matrix but is NOT the packed GEMM — flop order differs there).
// simd::KernelTable::spmm_rows is the vector twin of both fp32 kernels; it
// keeps their per-element sequence, so dispatch never changes a bit.

// Widening value loads: fp32 values pass through, bf16 bit patterns widen
// exactly. The accumulation is fp32 for either storage type.
inline float WidenValue(float v) { return v; }
inline float WidenValue(uint16_t v) { return F32FromBf16(v); }

// Y[i, :] = sum_p values[p] * X[col_idx[p], :] for rows in [row_begin,
// row_end); Y rows are fully overwritten (empty rows become zeros). VT is
// the storage type of the values array (float, or uint16_t bf16 patterns on
// the serving path); the fp32 instantiation is the historical kernel.
template <typename VT>
void SpmmRowsKernel(const int32_t* row_ptr, const int32_t* col_idx,
                    const VT* values, const float* x, float* y,
                    int64_t row_begin, int64_t row_end, int64_t c) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* yrow = y + i * c;
    std::fill(yrow, yrow + c, 0.0f);
    for (int32_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const float aval = WidenValue(values[p]);
      const float* xrow = x + static_cast<int64_t>(col_idx[p]) * c;
      for (int64_t cc = 0; cc < c; ++cc) yrow[cc] += aval * xrow[cc];
    }
  }
}

// Oracle twin of SpmmRowsKernel over a dense row-major a [rows, m].
void SpmmRowsOracle(const float* a, int64_t m, const float* x, float* y,
                    int64_t row_begin, int64_t row_end, int64_t c) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* yrow = y + i * c;
    std::fill(yrow, yrow + c, 0.0f);
    for (int64_t k = 0; k < m; ++k) {
      const float aval = a[i * m + k];
      if (aval == 0.0f) continue;
      const float* xrow = x + k * c;
      for (int64_t cc = 0; cc < c; ++cc) yrow[cc] += aval * xrow[cc];
    }
  }
}

// dX[j, :] += sum_p t_values[p] * dG[t_col_idx[p], :] for transpose rows in
// [row_begin, row_end). Accumulates (+=) into the gradient buffer.
void SpmmBackwardKernel(const int32_t* t_row_ptr, const int32_t* t_col_idx,
                        const float* t_values, const float* gout, float* gx,
                        int64_t row_begin, int64_t row_end, int64_t c) {
  for (int64_t j = row_begin; j < row_end; ++j) {
    float* gxrow = gx + j * c;
    for (int32_t p = t_row_ptr[j]; p < t_row_ptr[j + 1]; ++p) {
      const float aval = t_values[p];
      const float* grow = gout + static_cast<int64_t>(t_col_idx[p]) * c;
      for (int64_t cc = 0; cc < c; ++cc) gxrow[cc] += aval * grow[cc];
    }
  }
}

// Oracle twin of SpmmBackwardKernel over a dense row-major a [n, m].
void SpmmBackwardOracle(const float* a, int64_t n, int64_t m,
                        const float* gout, float* gx, int64_t row_begin,
                        int64_t row_end, int64_t c) {
  for (int64_t j = row_begin; j < row_end; ++j) {
    float* gxrow = gx + j * c;
    for (int64_t i = 0; i < n; ++i) {
      const float aval = a[i * m + j];
      if (aval == 0.0f) continue;
      const float* grow = gout + i * c;
      for (int64_t cc = 0; cc < c; ++cc) gxrow[cc] += aval * grow[cc];
    }
  }
}

// Element offset (relative to data()) of each trailing [m, c] matrix of x,
// one per batch in logical order, when every matrix is row-major — what a
// batch-strided view such as a time slice of a [B, T, N, C] activation
// looks like; the kernels then read x and write dX in place. Returns false
// for any other layout. Views never alias elements (there is no stride-0
// broadcast view), so the batches' windows are disjoint.
bool RowMajorBatchOffsets(const TensorImpl& x, std::vector<int64_t>* out) {
  const int nd = x.shape.ndim();
  const int64_t m = x.shape[-2];
  const int64_t c = x.shape[-1];
  if ((c > 1 && x.strides[nd - 1] != 1) || (m > 1 && x.strides[nd - 2] != c)) {
    return false;
  }
  std::vector<int64_t> offsets = {0};
  for (int d = 0; d < nd - 2; ++d) {
    std::vector<int64_t> next;
    next.reserve(offsets.size() * x.shape.dims()[d]);
    for (const int64_t base : offsets) {
      for (int64_t i = 0; i < x.shape.dims()[d]; ++i) {
        next.push_back(base + i * x.strides[d]);
      }
    }
    offsets.swap(next);
  }
  *out = std::move(offsets);
  return true;
}

// dX += Aᵀ·dG for every batch: dG is row-major [batches, rows, c] and each
// batch's [cols, c] window of dX starts at x_offsets[batch].
void SpmmGradX(CsrImpl* a, const std::vector<int64_t>& x_offsets,
               const float* gout, float* gx, int64_t c) {
  EnsureTransposePlan(a);
  const int32_t* trp = I32(*a->t_row_ptr);
  const int32_t* tci = I32(*a->t_col_idx);
  const float* tav = a->t_values->data();
  const int64_t n = a->rows;
  const int64_t m = a->cols;
  const int64_t batches = static_cast<int64_t>(x_offsets.size());
  const simd::KernelTable* vk = simd::Active();
  // Each task owns a disjoint block of dX rows within one batch and the
  // batches' windows of x's grad buffer are disjoint (RowMajorBatchOffsets),
  // so the whole (batch, block) grid accumulates race-free.
  const int64_t blocks = (m + kSpmmRowBlock - 1) / kSpmmRowBlock;
  ParallelFor(0, batches * blocks, [&](int64_t begin, int64_t end) {
    for (int64_t t = begin; t < end; ++t) {
      const int64_t batch = t / blocks;
      const int64_t j0 = (t % blocks) * kSpmmRowBlock;
      const int64_t j1 = std::min(m, j0 + kSpmmRowBlock);
      const float* gb = gout + batch * n * c;
      float* gxb = gx + x_offsets[batch];
      if (vk != nullptr) {
        vk->spmm_rows(trp, tci, tav, gb, gxb, j0, j1, c,
                      /*accumulate=*/true);
      } else {
        SpmmBackwardKernel(trp, tci, tav, gb, gxb, j0, j1, c);
      }
    }
  });
}

// ---- Autograd nodes ---------------------------------------------------------

class SpmmNode : public Node {
 public:
  SpmmNode(ImplPtr x, std::vector<int64_t> x_offsets,
           std::shared_ptr<CsrImpl> a)
      : Node({std::move(x)}),
        x_offsets_(std::move(x_offsets)),
        a_(std::move(a)) {}

  const char* name() const override { return "spmm"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    STSM_PROF_SCOPE("sparse.spmm.bwd");
    xi->EnsureGrad();
    SpmmGradX(a_.get(), x_offsets_, output->grad(), xi->grad(),
              output->shape[-1]);
  }

  void ReleaseSaved() override {
    a_.reset();
    x_offsets_ = {};
  }

 private:
  std::vector<int64_t> x_offsets_;
  std::shared_ptr<CsrImpl> a_;
};

class SpmmOracleNode : public Node {
 public:
  SpmmOracleNode(ImplPtr x, ImplPtr a) : Node({std::move(x)}), a_(std::move(a)) {}

  const char* name() const override { return "spmm_oracle"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    xi->EnsureGrad();
    const int64_t n = a_->shape[0];
    const int64_t m = a_->shape[1];
    const int64_t c = output->shape[-1];
    const int64_t batches = output->shape.numel() / (n * c);
    for (int64_t batch = 0; batch < batches; ++batch) {
      SpmmBackwardOracle(a_->data(), n, m, output->grad() + batch * n * c,
                         xi->grad() + batch * m * c, 0, m, c);
    }
  }

  void ReleaseSaved() override { a_.reset(); }

 private:
  ImplPtr a_;
};

}  // namespace

// ---- SparseCsr --------------------------------------------------------------

SparseCsr::SparseCsr(std::shared_ptr<internal::CsrImpl> impl)
    : impl_(std::move(impl)) {}

int64_t SparseCsr::rows() const {
  STSM_CHECK(defined());
  return impl_->rows;
}

int64_t SparseCsr::cols() const {
  STSM_CHECK(defined());
  return impl_->cols;
}

int64_t SparseCsr::nnz() const {
  STSM_CHECK(defined());
  return impl_->nnz;
}

const int32_t* SparseCsr::row_ptr() const {
  STSM_CHECK(defined());
  return I32(*impl_->row_ptr);
}

const int32_t* SparseCsr::col_idx() const {
  STSM_CHECK(defined());
  return I32(*impl_->col_idx);
}

const float* SparseCsr::values() const {
  STSM_CHECK(defined());
  return impl_->values->data();
}

DType SparseCsr::values_dtype() const {
  STSM_CHECK(defined());
  return impl_->values->dtype();
}

const uint16_t* SparseCsr::values_bf16() const {
  STSM_CHECK(defined());
  return impl_->values->bf16_data();
}

SparseCsr SparseCsr::CastValues(DType dtype) const {
  STSM_CHECK(defined());
  if (values_dtype() == dtype) return *this;
  auto impl = std::make_shared<CsrImpl>();
  impl->rows = impl_->rows;
  impl->cols = impl_->cols;
  impl->nnz = impl_->nnz;
  // Indices are shared (immutable after construction); only the values
  // array is re-stored. The transpose plan is not carried over — it is a
  // training-path (backward) artifact and bf16 values never record.
  impl->row_ptr = impl_->row_ptr;
  impl->col_idx = impl_->col_idx;
  impl->values = Storage::New(impl_->nnz, dtype, /*zero=*/false);
  if (dtype == DType::kBf16) {
    const float* src = impl_->values->data();
    uint16_t* dst = impl->values->bf16_data();
    for (int64_t p = 0; p < impl_->nnz; ++p) dst[p] = Bf16FromF32(src[p]);
  } else {
    const uint16_t* src = impl_->values->bf16_data();
    float* dst = impl->values->data();
    for (int64_t p = 0; p < impl_->nnz; ++p) dst[p] = F32FromBf16(src[p]);
  }
  return SparseCsr(std::move(impl));
}

SparseCsr SparseCsr::FromParts(int64_t rows, int64_t cols,
                               const std::vector<int32_t>& row_ptr,
                               const std::vector<int32_t>& col_idx,
                               const std::vector<float>& values) {
  STSM_CHECK_GE(rows, 0);
  STSM_CHECK_GE(cols, 0);
  STSM_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), rows + 1);
  STSM_CHECK_EQ(row_ptr[0], 0);
  const int64_t nnz = row_ptr[rows];
  STSM_CHECK_EQ(static_cast<int64_t>(col_idx.size()), nnz);
  STSM_CHECK_EQ(static_cast<int64_t>(values.size()), nnz);
  for (int64_t i = 0; i < rows; ++i) {
    STSM_CHECK_LE(row_ptr[i], row_ptr[i + 1])
        << "row_ptr must be monotone at row " << i;
    for (int32_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      STSM_CHECK_GE(col_idx[p], 0);
      STSM_CHECK_LT(col_idx[p], cols);
      if (p > row_ptr[i]) {
        STSM_CHECK_LT(col_idx[p - 1], col_idx[p])
            << "columns must be strictly ascending within row " << i;
      }
    }
  }
  return SparseCsr(NewCsrImpl(rows, cols, row_ptr.data(), col_idx.data(),
                              values.data(), nnz));
}

SparseCsr SparseCsr::FromDense(const Tensor& dense) {
  STSM_CHECK(dense.defined());
  STSM_CHECK_EQ(dense.ndim(), 2);
  STSM_PROF_COUNT("sparse.from_dense", 1);
  const int64_t rows = dense.shape()[0];
  const int64_t cols = dense.shape()[1];
  const int64_t rs = dense.strides()[0];
  const int64_t cs = dense.strides()[1];
  const float* d = dense.data();

  std::vector<int32_t> row_ptr(rows + 1, 0);
  ParallelFor(0, rows, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      int32_t count = 0;
      for (int64_t j = 0; j < cols; ++j) {
        if (d[i * rs + j * cs] != 0.0f) ++count;
      }
      row_ptr[i + 1] = count;
    }
  });
  for (int64_t i = 0; i < rows; ++i) row_ptr[i + 1] += row_ptr[i];
  const int64_t nnz = row_ptr[rows];

  std::vector<int32_t> col_idx(nnz);
  std::vector<float> values(nnz);
  ParallelFor(0, rows, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      int32_t p = row_ptr[i];
      for (int64_t j = 0; j < cols; ++j) {
        const float v = d[i * rs + j * cs];
        if (v == 0.0f) continue;
        col_idx[p] = static_cast<int32_t>(j);
        values[p] = v;
        ++p;
      }
    }
  });
  return SparseCsr(NewCsrImpl(rows, cols, row_ptr.data(), col_idx.data(),
                              values.data(), nnz));
}

Tensor SparseCsr::ToDense() const {
  STSM_CHECK(defined());
  STSM_PROF_COUNT("sparse.to_dense", 1);
  Tensor dense = Tensor::Zeros(Shape({impl_->rows, impl_->cols}));
  float* d = dense.data();
  const int32_t* rp = row_ptr();
  const int32_t* ci = col_idx();
  const float* av = values();
  for (int64_t i = 0; i < impl_->rows; ++i) {
    float* drow = d + i * impl_->cols;
    for (int32_t p = rp[i]; p < rp[i + 1]; ++p) drow[ci[p]] = av[p];
  }
  return dense;
}

// ---- SpMM -------------------------------------------------------------------

Tensor Spmm(const SparseCsr& a, const Tensor& x) {
  STSM_PROF_SCOPE("sparse.spmm.fwd");
  STSM_CHECK(a.defined()) << "Spmm: undefined sparse matrix";
  STSM_CHECK(x.defined()) << "Spmm: undefined input";
  STSM_CHECK_GE(x.ndim(), 2);
  STSM_CHECK_GT(a.rows(), 0);
  STSM_CHECK_GT(a.cols(), 0);
  STSM_CHECK_EQ(x.shape()[-2], a.cols())
      << "Spmm inner-dim mismatch: [" << a.rows() << ", " << a.cols() << "] @ "
      << x.shape().ToString();
  const int64_t c = x.shape()[-1];
  STSM_CHECK_GT(c, 0);

  // The kernels walk flat row-major [cols, c] matrices, addressed per batch
  // through an offset table, so a batch-strided view (a time slice of
  // [B, T, N, C]) is read in place and its gradient lands in place: no copy
  // node regroups the sum of dX contributions. Any other layout is
  // compacted first (differentiably).
  Tensor xc = x;
  std::vector<int64_t> x_offsets;
  if (!RowMajorBatchOffsets(*x.impl(), &x_offsets)) {
    xc = Contiguous(x);
    STSM_CHECK(RowMajorBatchOffsets(*xc.impl(), &x_offsets));
  }

  const int64_t n = a.rows();
  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims[out_dims.size() - 2] = n;
  const Shape out_shape{std::move(out_dims)};
  ImplPtr result =
      internal::MakeResult(out_shape, {xc.impl()}, /*zero=*/false);

  // bf16 values are a serving-only storage format: the backward plan widens
  // nothing, so recording through reduced-precision weights is refused.
  STSM_CHECK(!result->requires_grad || a.values_dtype() == DType::kF32)
      << "Spmm over bf16 values is forward-only; run under NoGradGuard";

  const int32_t* rp = a.row_ptr();
  const int32_t* ci = a.col_idx();
  const float* xd = xc.data();
  float* out = result->data();
  const int64_t batches = static_cast<int64_t>(x_offsets.size());
  const int64_t blocks = (n + kSpmmRowBlock - 1) / kSpmmRowBlock;
  const simd::KernelTable* vk = simd::Active();
  auto run_rows = [&](const auto* av) {
    ParallelFor(0, batches * blocks, [&](int64_t begin, int64_t end) {
      for (int64_t t = begin; t < end; ++t) {
        const int64_t batch = t / blocks;
        const int64_t i0 = (t % blocks) * kSpmmRowBlock;
        const int64_t i1 = std::min(n, i0 + kSpmmRowBlock);
        const float* xb = xd + x_offsets[batch];
        float* yb = out + batch * n * c;
        // bf16 values (serving only) keep the scalar loop.
        if constexpr (std::is_same_v<decltype(av), const float*>) {
          if (vk != nullptr) {
            vk->spmm_rows(rp, ci, av, xb, yb, i0, i1, c,
                          /*accumulate=*/false);
            continue;
          }
        }
        SpmmRowsKernel(rp, ci, av, xb, yb, i0, i1, c);
      }
    });
  };
  if (a.values_dtype() == DType::kBf16) {
    run_rows(a.values_bf16());
  } else {
    run_rows(a.values());
  }
  STSM_PROF_COUNT("sparse.spmm_rows", static_cast<uint64_t>(batches * n));
  STSM_PROF_COUNT("sparse.spmm_flops",
                  static_cast<uint64_t>(2 * batches * a.nnz() * c));

  if (result->requires_grad) {
    result->grad_fn =
        std::make_shared<SpmmNode>(xc.impl(), std::move(x_offsets), a.impl());
  }
  return Tensor(std::move(result));
}

Tensor SpmmOracle(const Tensor& dense_a, const Tensor& x) {
  STSM_CHECK(dense_a.defined() && x.defined());
  STSM_CHECK_EQ(dense_a.ndim(), 2);
  STSM_CHECK(!dense_a.requires_grad())
      << "SpmmOracle mirrors Spmm: the matrix is a constant";
  STSM_CHECK_GE(x.ndim(), 2);
  const int64_t n = dense_a.shape()[0];
  const int64_t m = dense_a.shape()[1];
  STSM_CHECK_GT(n, 0);
  STSM_CHECK_GT(m, 0);
  STSM_CHECK_EQ(x.shape()[-2], m);
  const int64_t c = x.shape()[-1];
  STSM_CHECK_GT(c, 0);

  const Tensor ac = Contiguous(dense_a.Detach());
  const Tensor xc = Contiguous(x);
  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims[out_dims.size() - 2] = n;
  ImplPtr result = internal::MakeResult(Shape{std::move(out_dims)},
                                        {xc.impl()}, /*zero=*/false);
  const int64_t batches = x.numel() / (m * c);
  for (int64_t batch = 0; batch < batches; ++batch) {
    SpmmRowsOracle(ac.data(), m, xc.data() + batch * m * c,
                   result->data() + batch * n * c, 0, n, c);
  }
  if (result->requires_grad) {
    result->grad_fn = std::make_shared<SpmmOracleNode>(xc.impl(), ac.impl());
  }
  return Tensor(std::move(result));
}

// ---- Adjacency --------------------------------------------------------------

Adjacency::Adjacency(Tensor dense) : dense_(std::move(dense)) {
  STSM_CHECK(dense_.defined());
  STSM_CHECK_EQ(dense_.ndim(), 2);
}

Adjacency::Adjacency(SparseCsr sparse) : sparse_(std::move(sparse)) {
  STSM_CHECK(sparse_.defined());
}

const Tensor& Adjacency::dense() const {
  STSM_CHECK(dense_.defined()) << "Adjacency holds the sparse variant";
  return dense_;
}

const SparseCsr& Adjacency::sparse() const {
  STSM_CHECK(sparse_.defined()) << "Adjacency holds the dense variant";
  return sparse_;
}

int64_t Adjacency::rows() const {
  return is_sparse() ? sparse_.rows() : dense().shape()[0];
}

int64_t Adjacency::cols() const {
  return is_sparse() ? sparse_.cols() : dense().shape()[1];
}

Tensor Adjacency::Apply(const Tensor& x) const {
  STSM_CHECK(defined());
  return is_sparse() ? Spmm(sparse_, x) : MatMul(dense_, x);
}

void Adjacency::AccumulateInputGrad(const Tensor& x,
                                    const float* grad_y) const {
  STSM_CHECK(defined());
  STSM_CHECK(x.requires_grad());
  if (!is_sparse()) {
    internal::AccumulateMatMulGradB(dense_, x, grad_y);
    return;
  }
  STSM_CHECK(sparse_.values_dtype() == DType::kF32)
      << "Spmm over bf16 values is forward-only; run under NoGradGuard";
  x.impl()->EnsureGrad();
  std::vector<int64_t> x_offsets;
  if (RowMajorBatchOffsets(*x.impl(), &x_offsets)) {
    SpmmGradX(sparse_.impl().get(), x_offsets, grad_y, x.impl()->grad(),
              x.shape()[-1]);
    return;
  }
  // Spmm compacts such a layout through a Contiguous node: accumulate into
  // the compact copy's zeroed gradient, then scatter it into x's gradient
  // as that node's backward would.
  Tensor compact = Tensor::Zeros(x.shape());
  STSM_CHECK(RowMajorBatchOffsets(*compact.impl(), &x_offsets));
  float* gc = compact.data();
  SpmmGradX(sparse_.impl().get(), x_offsets, grad_y, gc, x.shape()[-1]);
  float* gx = x.impl()->grad();
  const int64_t total = x.numel();
  for (int64_t i = 0; i < total; ++i) gx[x.impl()->PhysicalIndex(i)] += gc[i];
}

Tensor Adjacency::ToDenseTensor() const {
  STSM_CHECK(defined());
  return is_sparse() ? sparse_.ToDense() : dense_;
}

DType Adjacency::values_dtype() const {
  STSM_CHECK(defined());
  return is_sparse() ? sparse_.values_dtype() : dense_.dtype();
}

Adjacency Adjacency::Cast(DType dtype) const {
  STSM_CHECK(defined());
  if (is_sparse()) return Adjacency(sparse_.CastValues(dtype));
  // Detach: the adjacency is a constant; Cast must work regardless of grad
  // mode, and To() refuses recorded tensors.
  return Adjacency(To(dense_.Detach(), dtype));
}

}  // namespace stsm
