// Runtime SIMD dispatch for the tensor substrate.
//
// The scalar kernels in ops.cc / gemm.cc are the reference semantics; this
// header exposes an optional table of vectorized replacements for their
// contiguous fast paths. The table is built in a separate translation unit
// (simd_avx2.cc) compiled with -mavx2 -mfma, selected at runtime via CPUID,
// and can be vetoed with STSM_SIMD=off (env) or -DSTSM_SIMD=OFF (CMake), so
// non-x86 builds and the sanitizer lanes keep working with the scalar code
// unchanged.
//
// Determinism contract (DESIGN.md §10):
//  - Elementwise kernels (add/sub/mul/div/max/min/relu/... and the in-place
//    trio) are BITWISE identical to the scalar reference for every input,
//    including NaN, ±Inf, ±0.0 and denormals: each output element is the
//    same single correctly-rounded operation in either path.
//  - max_row/min_row reproduce the scalar strict-compare / first-index-wins
//    reduction exactly (bitwise values AND argmax indices); rows containing
//    NaN are declined (return false) and the caller must run the scalar code.
//  - sum and softmax_row change the accumulation order (lane-split doubles)
//    and softmax_row uses a polynomial exp, so they are ULP-bounded against
//    the scalar reference, not bitwise. They are still deterministic
//    run-to-run, and layout-independent as long as callers feed every layout
//    through the same kernel (ops.cc gathers strided rows into scratch).
//  - spmm_rows (the CSR gather behind Spmm forward and backward) is BITWISE
//    identical to the scalar SpMM kernels: per output element the same
//    multiplies and adds in the same order, vectorised across columns only.
//  - conv_time_rows (Conv1dTime forward), rows_axpy (its dX, dW and bias
//    gradient), mul_acc (Mul's gradient) and select_ge_acc (Maximum's and
//    Minimum's) are BITWISE identical to the scalar loops in ops.cc: each
//    output element sees the same rounded multiplies and adds in the same
//    order, vectorised across channels or elements only.
//  - gemm_micro uses FMA and a wider tile, so PackedGemm under SIMD is
//    ULP-bounded against scalar PackedGemm; within one dispatch mode it
//    stays bitwise reproducible and stride/thread-count independent.

#ifndef STSM_TENSOR_SIMD_H_
#define STSM_TENSOR_SIMD_H_

#include <cstdint>

namespace stsm {
namespace simd {

// y[i] = op(a[i], b[i]) over contiguous arrays.
using BinaryKernel = void (*)(const float* a, const float* b, float* y,
                              int64_t n);
// y[i] = op(x[i], p); p is the op parameter (leaky-relu alpha, the scalar
// operand of Add(x, c), ...) and is ignored by parameter-free ops.
using UnaryKernel = void (*)(const float* x, float* y, int64_t n, float p);

struct KernelTable {
  // ---- Packed GEMM microkernel ----------------------------------------
  // Register-tile geometry the microkernel expects; gemm.cc packs its
  // panels with these instead of kGemmMr/kGemmNr when the table is active.
  int64_t gemm_mr;
  int64_t gemm_nr;
  // acc is a gemm_mr x gemm_nr row-major block, overwritten (not
  // accumulated) with sum_k a_panel[k][i] * b_panel[k][j]. Panels are
  // k-major and zero-padded to full tile width, exactly like the scalar
  // MicroKernel's operands.
  void (*gemm_micro)(int64_t kb, const float* a_panel, const float* b_panel,
                     float* acc);

  // ---- Contiguous elementwise (bitwise-exact vs scalar) ---------------
  BinaryKernel add, sub, mul, div, maximum, minimum;
  // Same ops with a scalar right-hand operand in p (x op c).
  UnaryKernel add_scalar, sub_scalar, mul_scalar, div_scalar;
  UnaryKernel neg, relu, leaky_relu, square, abs, sqrt;

  // ---- In-place (bitwise-exact vs scalar) -----------------------------
  void (*axpy)(float* x, const float* y, float alpha, int64_t n);  // x+=a*y
  void (*scal)(float* x, float v, int64_t n);                      // x*=v
  void (*relu_inplace)(float* x, int64_t n);

  // ---- Reductions ------------------------------------------------------
  // Lane-split double accumulation; ULP-bounded vs the scalar ordered sum.
  double (*sum)(const float* x, int64_t n);
  // Strict-compare extremum with first-index tie-breaking, bitwise equal to
  // the scalar reduction. Returns false (outputs untouched) when the kernel
  // declines the row — NaN present or n too small to vectorize — in which
  // case the caller must run the scalar code.
  bool (*max_row)(const float* x, int64_t n, float* best, int64_t* argbest);
  bool (*min_row)(const float* x, int64_t n, float* best, int64_t* argbest);
  // Softmax over one contiguous row into y. Declines (returns false, y
  // unspecified) when the row holds a non-finite value or is too short;
  // the scalar fallback then reproduces the reference special-value
  // semantics exactly.
  bool (*softmax_row)(const float* x, float* y, int64_t n);

  // ---- CSR gather (bitwise-exact vs scalar) ----------------------------
  // For rows i in [row_begin, row_end), with x and y row-major, c wide:
  //   y[i, :] = (accumulate ? y[i, :] : 0)
  //             + sum_p values[p] * x[col_idx[p], :]
  // over p in [row_ptr[i], row_ptr[i + 1]) in ascending order. Each term
  // is a rounded multiply then a rounded add (no FMA), so every element
  // sees the scalar SpMM kernels' exact operation sequence.
  void (*spmm_rows)(const int32_t* row_ptr, const int32_t* col_idx,
                    const float* values, const float* x, float* y,
                    int64_t row_begin, int64_t row_end, int64_t c,
                    bool accumulate);

  // ---- Temporal convolution and gradients (bitwise-exact vs scalar) ----
  // One (b, t) slab of Conv1dTime's forward, over all `nodes` rows of
  // batch b. x_b is x[b] ([T, nodes, c_in] row-major); w_packed holds the
  // weights as [kernel][c_in][c_out]; bias may be nullptr. For each node n
  // and channel co:
  //   y[n, co] = (bias ? bias[co] : +0.0) + acc_0 + acc_1 + ...
  // in ascending tap kk over the taps with t_in = t - (kernel-1-kk) *
  // dilation >= 0, where acc_kk = sum_ci w_packed[kk, ci, co] *
  // x_b[t_in, n, ci] starts from +0.0 and adds in ascending ci. Each term is
  // a rounded multiply then a rounded add (no FMA): the scalar sequence.
  void (*conv_time_rows)(const float* x_b, const float* w_packed,
                         const float* bias, float* y, int64_t t,
                         int64_t dilation, int64_t kernel, int64_t nodes,
                         int64_t c_in, int64_t c_out);
  // For rows i in [0, rows), with b and y row-major and c wide:
  //   y[i, :] += sum_j a[i * a_row + j * a_col] * b[j, :]
  // over j in [0, inner) in ascending order, skipping terms whose a value
  // compares equal to 0 — a chain of axpy calls per row, with the row held
  // in registers. Conv1dTime's dX (a = dY, b = the [C_out][C_in] weight tap)
  // and dW (a = dY transposed, b = x) run on it, and so do the bias
  // gradients of Conv1dTime and Add/Sub: one row with a stride-0
  // coefficient of ±1, whose product is exact (1 * NaN only quiets the NaN,
  // which the add does anyway).
  void (*rows_axpy)(const float* a, int64_t a_row, int64_t a_col,
                    const float* b, float* y, int64_t rows, int64_t inner,
                    int64_t c);
  // x[i] += y[i] * z[i]: a rounded multiply then a rounded add.
  void (*mul_acc)(float* x, const float* y, const float* z, int64_t n);
  // x[i] += y[i] * (u[i] >= v[i] ? t : f): an ordered compare (false on
  // NaN, like the scalar >=), a select, a rounded multiply, a rounded add.
  // Maximum's and Minimum's gradients, whose local derivative is 1 or 0.
  void (*select_ge_acc)(float* x, const float* y, const float* u,
                        const float* v, float t, float f, int64_t n);

  const char* isa;  // e.g. "avx2+fma"
};

// Table compiled into this binary AND supported by the running CPU, else
// nullptr. Ignores the STSM_SIMD env knob and test overrides.
const KernelTable* Supported();

// The active dispatch: Supported() unless vetoed by STSM_SIMD (off/0/scalar/
// false) or a test override. Kernels and callers fetch this once per op
// call; the pointer is atomic so toggling in tests is race-free.
const KernelTable* Active();

// Force dispatch on (when Supported()) or off. Used by the differential
// tests and the scalar-vs-SIMD benchmarks; production code never calls it.
void SetDispatchForTesting(bool enabled);
// Install an arbitrary table, e.g. a copy of Supported() with one entry
// swapped for a scalar twin, so a test can pin one kernel's effect end to
// end while every other op keeps its vector path. nullptr means scalar.
void SetDispatchForTesting(const KernelTable* table);
// Restore the default env+CPUID decision.
void ResetDispatch();

namespace internal {
// Defined in simd_avx2.cc: the AVX2+FMA table, or nullptr when that TU was
// compiled without STSM_HAVE_AVX2 (non-x86 target or unsupported compiler).
const KernelTable* Avx2Table();
}  // namespace internal

}  // namespace simd
}  // namespace stsm

#endif  // STSM_TENSOR_SIMD_H_
