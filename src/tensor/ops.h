// Differentiable tensor operations.
//
// All functions return new tensors. When gradient mode is enabled and any
// input requires gradients, the returned tensor carries the autograd tape
// needed by Tensor::Backward().
//
// Broadcasting follows NumPy semantics for elementwise binary operations and
// for the batch dimensions of MatMul.

#ifndef STSM_TENSOR_OPS_H_
#define STSM_TENSOR_OPS_H_

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace stsm {

// ---- Elementwise binary (broadcasting) --------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
// Elementwise max/min; on ties the gradient flows to the first argument.
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

Tensor Add(const Tensor& a, float b);
Tensor Sub(const Tensor& a, float b);
Tensor Sub(float a, const Tensor& b);
Tensor Mul(const Tensor& a, float b);
Tensor Div(const Tensor& a, float b);
Tensor Div(float a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }
inline Tensor operator+(const Tensor& a, float b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, float b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, float b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, float b) { return Div(a, b); }
inline Tensor operator+(float a, const Tensor& b) { return Add(b, a); }
inline Tensor operator*(float a, const Tensor& b) { return Mul(b, a); }
inline Tensor operator-(float a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator/(float a, const Tensor& b) { return Div(a, b); }

// ---- Elementwise unary -------------------------------------------------------

Tensor Neg(const Tensor& x);
inline Tensor operator-(const Tensor& x) { return Neg(x); }
Tensor Relu(const Tensor& x);
// LeakyRelu with slope `alpha` for negative inputs.
Tensor LeakyRelu(const Tensor& x, float alpha = 0.2f);
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Exp(const Tensor& x);
// Natural logarithm; inputs are clamped to a small epsilon for stability.
Tensor Log(const Tensor& x);
Tensor Sqrt(const Tensor& x);
Tensor Square(const Tensor& x);
Tensor Abs(const Tensor& x);
// Raises to a constant power.
Tensor Pow(const Tensor& x, float exponent);

// ---- Shape manipulation ------------------------------------------------------
//
// All of these are zero-copy views (no data movement, no allocation) except
// Reshape of a non-contiguous tensor, which compacts first. Views alias the
// input's storage: in-place writes through either handle are visible to
// both, and gradients route through the shared grad buffer.

// Returns a tensor with the same elements and a new shape (same numel).
// Zero-copy when x is contiguous; otherwise compacts (differentiably).
Tensor Reshape(const Tensor& x, const Shape& shape);
// Swaps dimensions `dim0` and `dim1` (zero-copy view; negative dims
// allowed). The result is typically non-contiguous.
Tensor Transpose(const Tensor& x, int dim0, int dim1);
// Window [start, end) along `dim` (zero-copy view, any dimension).
Tensor Slice(const Tensor& x, int dim, int64_t start, int64_t end);
// Window of `length` elements starting at `start` along `dim` (zero-copy
// view); Narrow(x, d, s, l) == Slice(x, d, s, s + l).
Tensor Narrow(const Tensor& x, int dim, int64_t start, int64_t length);
// Removes `dim` by fixing it at `index` (zero-copy view with one fewer
// dimension).
Tensor Select(const Tensor& x, int dim, int64_t index);
// Compacts a strided view into a fresh row-major tensor (differentiable).
// Returns x itself — same handle, no copy — when already contiguous.
Tensor Contiguous(const Tensor& x);
// Concatenates tensors along `dim`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& tensors, int dim);
// Gathers indices along `dim`: out has x.shape with dim replaced by
// indices.size(). Gradients scatter-add back.
Tensor IndexSelect(const Tensor& x, int dim, const std::vector<int>& indices);
// Inserts a size-1 dimension at `dim`.
Tensor Unsqueeze(const Tensor& x, int dim);
// Removes a size-1 dimension at `dim`.
Tensor Squeeze(const Tensor& x, int dim);
// Broadcasts x to `shape` (materialising the copy).
Tensor BroadcastTo(const Tensor& x, const Shape& shape);

// ---- Reductions ---------------------------------------------------------------

// Sum of all elements -> scalar.
Tensor Sum(const Tensor& x);
// Sum along `dim`.
Tensor Sum(const Tensor& x, int dim, bool keepdim = false);
Tensor Mean(const Tensor& x);
Tensor Mean(const Tensor& x, int dim, bool keepdim = false);
// Maximum along `dim`; gradient flows to the (first) argmax.
Tensor Max(const Tensor& x, int dim, bool keepdim = false);
Tensor Min(const Tensor& x, int dim, bool keepdim = false);

// ---- Linear algebra -----------------------------------------------------------

// Batched matrix multiply: a [..., m, k] @ b [..., k, n] -> [..., m, n].
// Leading (batch) dimensions broadcast. Operands may be bf16 on the no-grad
// serving path (widened to fp32 inside the GEMM packing; the result is
// always fp32); recording through a bf16 operand is a checked error.
Tensor MatMul(const Tensor& a, const Tensor& b);
// a @ b + bias, with `bias` an [n] added to every output row in the same
// pass that writes the GEMM's output (Linear's bias). Values and every
// gradient are bitwise those of Add(MatMul(a, b), bias). A bf16 bias
// (serving) is widened by WidenToF32.
Tensor MatMul(const Tensor& a, const Tensor& b, const Tensor& bias);

// ---- Dtype conversion ----------------------------------------------------------

// Storage-format conversion between fp32 and bf16 (tensor/dtype.h):
// fp32 -> bf16 rounds to nearest-even, bf16 -> fp32 widens exactly. Returns
// the same handle when the dtype already matches. Not differentiable —
// calling it on a tensor autograd is recording is a checked error; Detach()
// first or convert under NoGradGuard (the serving path).
Tensor To(const Tensor& x, DType dtype);

// Identity for fp32 (same handle, so the training path is untouched);
// otherwise To(x, kF32). Undefined tensors pass through (optional biases).
Tensor WidenToF32(const Tensor& x);

// ---- Neural-network primitives --------------------------------------------------

// Softmax along `dim` (numerically stable).
Tensor Softmax(const Tensor& x, int dim);
Tensor LogSoftmax(const Tensor& x, int dim);

// Causal dilated 1-D convolution over the time axis of a [B, T, N, C_in]
// tensor. `weight` is [C_out, C_in, K]; `bias` is [C_out] (may be undefined
// for no bias). Positions before the window start read zeros (left
// zero-padding) — the zero-padded dilated TCN of STSM Eq. (5). Only the last
// `out_steps` outputs are computed (1 <= out_steps <= T; negative means T):
// the output is [B, out_steps, N, C_out], bitwise equal to the last
// out_steps steps of the full-length convolution, and so are the gradients
// when only those steps are read.
Tensor Conv1dTime(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  int dilation, int64_t out_steps = -1);

// Inverted dropout: at training time zeroes entries with probability `p` and
// scales survivors by 1/(1-p); at p <= 0 returns x unchanged.
Tensor Dropout(const Tensor& x, float p, Rng* rng);

// ---- In-place ops -------------------------------------------------------------
//
// Mutate the target's buffer directly without recording autograd state. The
// target must be graph-free (grad_fn == nullptr): parameters, optimizer
// state, detached tensors, or gradient views (Tensor::GradView()). Strided
// views are handled; shapes must match exactly (no broadcasting).

// x += y.
void AddInPlace(Tensor x, const Tensor& y);
// x += alpha * y (axpy; the optimizer's fused scale-and-accumulate).
void AddScaledInPlace(Tensor x, const Tensor& y, float alpha);
// x *= value.
void MulScalarInPlace(Tensor x, float value);
// x = max(x, 0) elementwise.
void ReluInPlace(Tensor x);

namespace internal {

// The numerically stable logistic function exactly as Sigmoid computes it:
// e = exp(-|v|) by one libm call (with errno-setting math the compiler
// cannot merge two calls to std::exp), then 1 / (1 + e) for v >= 0 and
// e / (1 + e) otherwise (NaN compares false and takes that arm). The sign
// only selects operands, so the compiler emits no data-dependent branch.
// Fused nodes that apply a sigmoid call this so their bits match the op's.
inline float Logistic(float v) {
  const bool nonneg = v >= 0.0f;
  const float e = std::exp(nonneg ? -v : v);
  return (nonneg ? 1.0f : e) / (1.0f + e);
}

// The b-gradient of MatMul(a, b) without a recorded node: b.grad += aᵀ @ dC
// at b's strides, where grad_out holds dC as a contiguous array of the
// product's shape. The MatMul backward's own kernel and partition, so the
// bits equal what recording the product would have accumulated. fp32 only.
void AccumulateMatMulGradB(const Tensor& a, const Tensor& b,
                           const float* grad_out);

}  // namespace internal

}  // namespace stsm

#endif  // STSM_TENSOR_OPS_H_
