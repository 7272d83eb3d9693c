#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"

namespace stsm {
namespace {

// Gather scratch for feeding strided rows to the SIMD reduction/softmax
// kernels: running every layout through the SAME vector kernel keeps the
// bitwise strided==contiguous invariant that the scalar kernels already
// guarantee. thread_local because MatMul-adjacent callers run ops inside
// ParallelFor workers.
std::vector<float>& TlGatherScratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

using ImplPtr = std::shared_ptr<TensorImpl>;
using autograd::Node;

constexpr float kLogEpsilon = 1e-12f;

// ---- Strided-layout machinery ----------------------------------------------
//
// Kernels address inputs through physical element offsets (relative to
// data(), which is already offset into the Storage). For contiguous tensors
// the physical offset IS the logical index and the kernels take flat-loop
// fast paths; for strided views the offsets come from odometer-built tables
// shared between an op's forward and its autograd node.

// Fills `out` with the physical offset of every logical index over the
// dimension range [d_begin, d_end) of (dims, strides), in logical order.
// One odometer walk — no per-element division.
void FillOffsets(const std::vector<int64_t>& dims,
                 const std::vector<int64_t>& strides, int d_begin, int d_end,
                 std::vector<int64_t>* out) {
  int64_t count = 1;
  for (int d = d_begin; d < d_end; ++d) count *= dims[d];
  out->resize(count);
  std::vector<int64_t> coord(d_end - d_begin, 0);
  int64_t off = 0;
  for (int64_t i = 0; i < count; ++i) {
    (*out)[i] = off;
    for (int d = d_end - 1; d >= d_begin; --d) {
      const int c = d - d_begin;
      if (++coord[c] < dims[d]) {
        off += strides[d];
        break;
      }
      coord[c] = 0;
      off -= strides[d] * (dims[d] - 1);
    }
  }
}

// Logical-to-physical index table of a whole impl. Null means identity (the
// impl is contiguous); kernels branch to their flat fast path on null.
using IndexTable = std::shared_ptr<const std::vector<int64_t>>;

IndexTable BuildPhysTable(const TensorImpl& impl) {
  if (impl.is_contiguous()) return nullptr;
  auto table = std::make_shared<std::vector<int64_t>>();
  FillOffsets(impl.shape.dims(), impl.strides, 0, impl.shape.ndim(),
              table.get());
  return table;
}

int64_t PhysAt(const IndexTable& t, int64_t i) { return t ? (*t)[i] : i; }

// Strides of `in` aligned to the dimensions of `out`, with 0 where `in` is
// broadcast (size 1 or missing dimension). Uses the impl's actual strides,
// so strided views broadcast without materialization.
std::vector<int64_t> BroadcastStrides(const TensorImpl& in, const Shape& out) {
  std::vector<int64_t> result(out.ndim(), 0);
  for (int i = 0; i < in.shape.ndim(); ++i) {
    const int out_d = out.ndim() - 1 - i;
    const int in_d = in.shape.ndim() - 1 - i;
    result[out_d] = (in.shape.dims()[in_d] == 1) ? 0 : in.strides[in_d];
  }
  return result;
}

// Precomputed element-index maps for a broadcast binary op: for every output
// element, the source element in each input. Built once with an odometer
// walk and shared between forward and backward.
struct BroadcastIndexTable {
  // Empty when the corresponding input needs no mapping (linear).
  std::vector<int64_t> index_a;
  std::vector<int64_t> index_b;
};

std::vector<int64_t> BuildIndexTable(const TensorImpl& in, const Shape& out) {
  std::vector<int64_t> table;
  FillOffsets(out.dims(), BroadcastStrides(in, out), 0, out.ndim(), &table);
  return table;
}

// True when `in` equals the trailing dimensions of `out` (after dropping
// leading 1s), i.e. its elements repeat with period in.numel() — the common
// bias-add pattern, run as rows instead of through an index table.
bool IsSuffixBroadcast(const Shape& in, const Shape& out) {
  int in_d = in.ndim() - 1;
  // Skip trailing agreement.
  for (int out_d = out.ndim() - 1; out_d >= 0 && in_d >= 0; --out_d, --in_d) {
    if (in.dims()[in_d] != out.dims()[out_d]) return false;
  }
  for (; in_d >= 0; --in_d) {
    if (in.dims()[in_d] != 1) return false;
  }
  return true;
}

// Rows shorter than this run the scalar loop: a kernel call per element
// (a broadcast scalar operand) would cost more than it saves. Both paths
// give the same bits.
constexpr int64_t kMinVectorRow = 8;

// Index bookkeeping shared by a broadcast binary op's forward and backward.
// When each input is contiguous and either the whole output (linear) or a
// suffix of it, the op runs as rows of `period` elements: row r reads a
// linear input at r * period and a suffix input at 0. Otherwise an index
// table maps every output element of each non-linear input.
struct BinaryLayout {
  int64_t n = 0;
  bool a_linear = false, b_linear = false;
  bool rows = false;
  int64_t period = 0;
  std::shared_ptr<BroadcastIndexTable> table;

  int64_t num_rows() const { return period == 0 ? 0 : n / period; }
  int64_t a_row(int64_t r) const { return a_linear ? r * period : 0; }
  int64_t b_row(int64_t r) const { return b_linear ? r * period : 0; }
  int64_t a_index(int64_t i) const {
    return a_linear ? i : table->index_a[i];
  }
  int64_t b_index(int64_t i) const {
    return b_linear ? i : table->index_b[i];
  }
};

// How an input's local derivative vectorises in BinaryNode: a constant
// (Add/Sub: g += alpha * gout, on axpy/rows_axpy), the other operand (Mul:
// g += gout * other, on mul_acc) or a compare-select (Maximum/Minimum:
// g += gout * (a >= b ? alpha : beta), on select_ge_acc, with a and b
// swapped when `swap` is set). kScalar derivatives run the op's lambda.
struct VecGrad {
  enum Kind { kScalar, kConstant, kOtherOperand, kSelectGe };
  Kind kind = kScalar;
  float alpha = 0.0f;
  float beta = 0.0f;
  bool swap = false;
};

// ---- Node subclasses --------------------------------------------------------
//
// One class per op family. Each carries its saved inputs via the Node base
// (strong refs, released after Run) plus whatever precomputed state the
// gradient needs. Apply() accumulates into inputs that require grad.

template <typename DfA, typename DfB>
class BinaryNode : public Node {
 public:
  BinaryNode(const char* bwd_name, ImplPtr a, ImplPtr b, BinaryLayout layout,
             DfA dfa, DfB dfb, VecGrad vga, VecGrad vgb)
      : Node({std::move(a), std::move(b)}),
        bwd_name_(bwd_name),
        layout_(std::move(layout)),
        dfa_(dfa),
        dfb_(dfb),
        vga_(vga),
        vgb_(vgb) {}

  const char* name() const override { return bwd_name_; }

 protected:
  void Apply(TensorImpl* output) override {
    STSM_PROF_SCOPE(bwd_name_);
    TensorImpl* ai = inputs_[0].get();
    TensorImpl* bi = inputs_[1].get();
    const float* gout = output->grad();
    const float* av = ai->data();
    const float* bv = bi->data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      Accumulate(ai->grad(), /*side_a=*/true, vga_, dfa_, gout, av, bv);
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      Accumulate(bi->grad(), /*side_a=*/false, vgb_, dfb_, gout, av, bv);
    }
  }

  void ReleaseSaved() override { layout_.table.reset(); }

 private:
  // g[side index of i] += gout[i] * df(a, b) in ascending i. The row path
  // keeps that order for every element of g (rows ascend; a linear side
  // takes one term per element), so both dispatch modes and both paths
  // give the scalar loop's bits.
  template <typename Df>
  void Accumulate(float* g, bool side_a, VecGrad vg, Df df, const float* gout,
                  const float* av, const float* bv) const {
    const BinaryLayout& l = layout_;
    if (!l.rows) {
      for (int64_t i = 0; i < l.n; ++i) {
        const int64_t ia = l.a_index(i);
        const int64_t ib = l.b_index(i);
        g[side_a ? ia : ib] += gout[i] * df(av[ia], bv[ib]);
      }
      return;
    }
    const simd::KernelTable* vk =
        vg.kind != VecGrad::kScalar ? simd::Active() : nullptr;
    if (vk != nullptr && vg.kind == VecGrad::kConstant) {
      if (side_a ? l.a_linear : l.b_linear) {
        vk->axpy(g, gout, vg.alpha, l.n);
      } else {
        // Suffix side: g += alpha * gout[r, :] for each row r in turn, as a
        // one-row rows_axpy with a stride-0 coefficient.
        vk->rows_axpy(&vg.alpha, 0, 0, gout, g, 1, l.num_rows(), l.period);
      }
      return;
    }
    if (l.period < kMinVectorRow) vk = nullptr;
    for (int64_t r = 0; r < l.num_rows(); ++r) {
      const float* g_row = gout + r * l.period;
      const float* a_row = av + l.a_row(r);
      const float* b_row = bv + l.b_row(r);
      float* acc = g + (side_a ? l.a_row(r) : l.b_row(r));
      if (vk == nullptr) {
        for (int64_t j = 0; j < l.period; ++j) {
          acc[j] += g_row[j] * df(a_row[j], b_row[j]);
        }
      } else if (vg.kind == VecGrad::kSelectGe) {
        vk->select_ge_acc(acc, g_row, vg.swap ? b_row : a_row,
                          vg.swap ? a_row : b_row, vg.alpha, vg.beta,
                          l.period);
      } else {
        vk->mul_acc(acc, g_row, side_a ? b_row : a_row, l.period);
      }
    }
  }

  const char* bwd_name_;
  BinaryLayout layout_;
  DfA dfa_;
  DfB dfb_;
  VecGrad vga_;
  VecGrad vgb_;
};

template <typename Dfx>
class UnaryNode : public Node {
 public:
  UnaryNode(const char* bwd_name, ImplPtr x, IndexTable table, Dfx dfx)
      : Node({std::move(x)}),
        bwd_name_(bwd_name),
        table_(std::move(table)),
        dfx_(dfx) {}

  const char* name() const override { return bwd_name_; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    STSM_PROF_SCOPE(bwd_name_);
    xi->EnsureGrad();
    const int64_t n = output->shape.numel();
    const float* gout = output->grad();
    const float* xv = xi->data();
    const float* yv = output->data();
    float* gx = xi->grad();
    if (table_ == nullptr) {
      for (int64_t i = 0; i < n; ++i) gx[i] += gout[i] * dfx_(xv[i], yv[i]);
    } else {
      for (int64_t i = 0; i < n; ++i) {
        const int64_t p = (*table_)[i];
        gx[p] += gout[i] * dfx_(xv[p], yv[i]);
      }
    }
  }

  void ReleaseSaved() override { table_.reset(); }

 private:
  const char* bwd_name_;
  IndexTable table_;
  Dfx dfx_;
};

}  // namespace

// ---- Elementwise op scaffolding ---------------------------------------------

namespace {

// Generic broadcasting elementwise binary op.
//
// `fwd(a, b)` computes the result; `dfa(a, b)` and `dfb(a, b)` compute the
// local partial derivatives d out / d a and d out / d b.
//
// Two execution strategies: rows (each input is the whole output or a
// suffix of it — same shapes, bias adds) and a precomputed odometer index
// table for arbitrary broadcasts and strided views.
// `fwd_name` / `bwd_name` label the op in the profiler (string literals).
// `vec` selects the op's kernel in simd::KernelTable; when dispatch is
// active the row path runs it once per row instead of the scalar loop
// (bitwise-identical results by contract). `vga` / `vgb` say how each
// gradient vectorises.
template <typename Fwd, typename DfA, typename DfB>
Tensor BinaryOp(const char* fwd_name, const char* bwd_name, const Tensor& a,
                const Tensor& b, Fwd fwd, DfA dfa, DfB dfb,
                simd::BinaryKernel simd::KernelTable::*vec = nullptr,
                VecGrad vga = {}, VecGrad vgb = {}) {
  STSM_PROF_SCOPE(fwd_name);
  STSM_CHECK(a.defined() && b.defined());
  const Shape out_shape = Shape::Broadcast(a.shape(), b.shape());
  ImplPtr result =
      internal::MakeResult(out_shape, {a.impl(), b.impl()}, /*zero=*/false);

  BinaryLayout layout;
  layout.n = out_shape.numel();
  const bool a_contig = a.impl()->is_contiguous();
  const bool b_contig = b.impl()->is_contiguous();
  layout.a_linear = a_contig && a.numel() == layout.n;
  layout.b_linear = b_contig && b.numel() == layout.n;
  layout.rows = (layout.a_linear ||
                 (a_contig && IsSuffixBroadcast(a.shape(), out_shape))) &&
                (layout.b_linear ||
                 (b_contig && IsSuffixBroadcast(b.shape(), out_shape)));
  if (layout.rows) {
    // One side is linear whenever both are suffixes, so rows tile the
    // output exactly.
    layout.period = std::min(a.numel(), b.numel());
  } else {
    layout.table = std::make_shared<BroadcastIndexTable>();
    if (!layout.a_linear) {
      layout.table->index_a = BuildIndexTable(*a.impl(), out_shape);
    }
    if (!layout.b_linear) {
      layout.table->index_b = BuildIndexTable(*b.impl(), out_shape);
    }
  }

  const float* ad = a.data();
  const float* bd = b.data();
  float* out = result->data();
  if (layout.rows) {
    const simd::KernelTable* vk =
        vec != nullptr && layout.period >= kMinVectorRow ? simd::Active()
                                                         : nullptr;
    const int64_t p = layout.period;
    for (int64_t r = 0; r < layout.num_rows(); ++r) {
      const float* a_row = ad + layout.a_row(r);
      const float* b_row = bd + layout.b_row(r);
      float* out_row = out + r * p;
      if (vk != nullptr) {
        (vk->*vec)(a_row, b_row, out_row, p);
      } else {
        for (int64_t j = 0; j < p; ++j) out_row[j] = fwd(a_row[j], b_row[j]);
      }
    }
  } else {
    for (int64_t i = 0; i < layout.n; ++i) {
      out[i] = fwd(ad[layout.a_index(i)], bd[layout.b_index(i)]);
    }
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<BinaryNode<DfA, DfB>>(
        bwd_name, a.impl(), b.impl(), std::move(layout), dfa, dfb, vga, vgb);
  }
  return Tensor(std::move(result));
}

// Generic elementwise unary op. `dfx(x, y)` is d out / d x given the input
// value and the already-computed output value. `vec` selects the op's SIMD
// kernel (run on the contiguous fast path only — bitwise-identical by
// contract) and `p` is the scalar parameter forwarded to it (leaky-relu
// alpha, the constant of Add(x, c), ...).
template <typename Fwd, typename Dfx>
Tensor UnaryOp(const char* fwd_name, const char* bwd_name, const Tensor& x,
               Fwd fwd, Dfx dfx,
               simd::UnaryKernel simd::KernelTable::*vec = nullptr,
               float p = 0.0f) {
  STSM_PROF_SCOPE(fwd_name);
  STSM_CHECK(x.defined());
  ImplPtr result =
      internal::MakeResult(x.shape(), {x.impl()}, /*zero=*/false);
  const int64_t n = x.numel();
  const float* xd = x.data();
  float* out = result->data();
  IndexTable table = BuildPhysTable(*x.impl());
  if (table == nullptr) {
    const simd::KernelTable* vk = vec != nullptr ? simd::Active() : nullptr;
    if (vk != nullptr) {
      (vk->*vec)(xd, out, n, p);
    } else {
      for (int64_t i = 0; i < n; ++i) out[i] = fwd(xd[i]);
    }
  } else {
    for (int64_t i = 0; i < n; ++i) out[i] = fwd(xd[(*table)[i]]);
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<UnaryNode<Dfx>>(
        bwd_name, x.impl(), std::move(table), dfx);
  }
  return Tensor(std::move(result));
}

}  // namespace

// ---- Elementwise binary -------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "add.fwd", "add.bwd", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; },
      &simd::KernelTable::add, {VecGrad::kConstant, 1.0f},
      {VecGrad::kConstant, 1.0f});
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "sub.fwd", "sub.bwd", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; },
      &simd::KernelTable::sub, {VecGrad::kConstant, 1.0f},
      {VecGrad::kConstant, -1.0f});
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "mul.fwd", "mul.bwd", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; },
      &simd::KernelTable::mul, {VecGrad::kOtherOperand},
      {VecGrad::kOtherOperand});
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "div.fwd", "div.bwd", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); },
      &simd::KernelTable::div);
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "maximum.fwd", "maximum.bwd", a, b,
      [](float x, float y) { return x >= y ? x : y; },
      [](float x, float y) { return x >= y ? 1.0f : 0.0f; },
      [](float x, float y) { return x >= y ? 0.0f : 1.0f; },
      &simd::KernelTable::maximum, {VecGrad::kSelectGe, 1.0f, 0.0f},
      {VecGrad::kSelectGe, 0.0f, 1.0f});
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "minimum.fwd", "minimum.bwd", a, b,
      [](float x, float y) { return x <= y ? x : y; },
      [](float x, float y) { return x <= y ? 1.0f : 0.0f; },
      [](float x, float y) { return x <= y ? 0.0f : 1.0f; },
      // x <= y is y >= x, NaN included.
      &simd::KernelTable::minimum, {VecGrad::kSelectGe, 1.0f, 0.0f, true},
      {VecGrad::kSelectGe, 0.0f, 1.0f, true});
}

// Scalar right-hand operands run as unary ops so the contiguous fast path
// can use the *_scalar SIMD kernels (a broadcast from Tensor::Scalar would
// take the index-table path instead). Same values and gradients either way.
Tensor Add(const Tensor& a, float b) {
  return UnaryOp(
      "add_scalar.fwd", "add_scalar.bwd", a,
      [b](float v) { return v + b; }, [](float, float) { return 1.0f; },
      &simd::KernelTable::add_scalar, b);
}
Tensor Sub(const Tensor& a, float b) {
  return UnaryOp(
      "sub_scalar.fwd", "sub_scalar.bwd", a,
      [b](float v) { return v - b; }, [](float, float) { return 1.0f; },
      &simd::KernelTable::sub_scalar, b);
}
Tensor Sub(float a, const Tensor& b) { return Sub(Tensor::Scalar(a), b); }
Tensor Mul(const Tensor& a, float b) {
  return UnaryOp(
      "mul_scalar.fwd", "mul_scalar.bwd", a,
      [b](float v) { return v * b; }, [b](float, float) { return b; },
      &simd::KernelTable::mul_scalar, b);
}
Tensor Div(const Tensor& a, float b) {
  return UnaryOp(
      "div_scalar.fwd", "div_scalar.bwd", a,
      [b](float v) { return v / b; }, [b](float, float) { return 1.0f / b; },
      &simd::KernelTable::div_scalar, b);
}
Tensor Div(float a, const Tensor& b) { return Div(Tensor::Scalar(a), b); }

// ---- Elementwise unary ---------------------------------------------------------

Tensor Neg(const Tensor& x) {
  return UnaryOp(
      "neg.fwd", "neg.bwd", x, [](float v) { return -v; },
      [](float, float) { return -1.0f; }, &simd::KernelTable::neg);
}

Tensor Relu(const Tensor& x) {
  return UnaryOp(
      "relu.fwd", "relu.bwd", x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float v, float) { return v > 0.0f ? 1.0f : 0.0f; },
      &simd::KernelTable::relu);
}

Tensor LeakyRelu(const Tensor& x, float alpha) {
  return UnaryOp(
      "leaky_relu.fwd", "leaky_relu.bwd", x,
      [alpha](float v) { return v > 0.0f ? v : alpha * v; },
      [alpha](float v, float) { return v > 0.0f ? 1.0f : alpha; },
      &simd::KernelTable::leaky_relu, alpha);
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryOp(
      "sigmoid.fwd", "sigmoid.bwd", x,
      [](float v) { return internal::Logistic(v); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& x) {
  return UnaryOp(
      "tanh.fwd", "tanh.bwd", x, [](float v) { return std::tanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& x) {
  return UnaryOp(
      "exp.fwd", "exp.bwd", x, [](float v) { return std::exp(v); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& x) {
  return UnaryOp(
      "log.fwd", "log.bwd", x,
      [](float v) { return std::log(std::max(v, kLogEpsilon)); },
      [](float v, float) { return 1.0f / std::max(v, kLogEpsilon); });
}

Tensor Sqrt(const Tensor& x) {
  return UnaryOp(
      "sqrt.fwd", "sqrt.bwd", x, [](float v) { return std::sqrt(v); },
      [](float, float y) { return y > 0.0f ? 0.5f / y : 0.0f; },
      &simd::KernelTable::sqrt);
}

Tensor Square(const Tensor& x) {
  return UnaryOp(
      "square.fwd", "square.bwd", x, [](float v) { return v * v; },
      [](float v, float) { return 2.0f * v; }, &simd::KernelTable::square);
}

Tensor Abs(const Tensor& x) {
  return UnaryOp(
      "abs.fwd", "abs.bwd", x, [](float v) { return std::fabs(v); },
      [](float v, float) { return v >= 0.0f ? 1.0f : -1.0f; },
      &simd::KernelTable::abs);
}

Tensor Pow(const Tensor& x, float exponent) {
  return UnaryOp(
      "pow.fwd", "pow.bwd", x,
      [exponent](float v) { return std::pow(v, exponent); },
      [exponent](float v, float) {
        return exponent * std::pow(v, exponent - 1.0f);
      });
}

// ---- Shape manipulation ----------------------------------------------------------

namespace {

// Gradient for Contiguous(): scatter-adds the compacted gradient back to the
// strided positions of the input (through the shared fwd/bwd index table).
class ContiguousNode : public Node {
 public:
  ContiguousNode(ImplPtr x, IndexTable table)
      : Node({std::move(x)}), table_(std::move(table)) {}

  const char* name() const override { return "contiguous"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    STSM_PROF_SCOPE("contiguous.bwd");
    xi->EnsureGrad();
    const int64_t n = output->shape.numel();
    const float* gout = output->grad();
    float* gx = xi->grad();
    for (int64_t i = 0; i < n; ++i) gx[(*table_)[i]] += gout[i];
  }

  void ReleaseSaved() override { table_.reset(); }

 private:
  IndexTable table_;
};

}  // namespace

Tensor Contiguous(const Tensor& x) {
  STSM_CHECK(x.defined());
  // Already compact: same handle, no allocation, no graph node.
  if (x.impl()->is_contiguous()) return x;
  STSM_PROF_SCOPE("contiguous.fwd");
  IndexTable table = BuildPhysTable(*x.impl());
  ImplPtr result = internal::MakeResult(x.shape(), {x.impl()}, /*zero=*/false);
  const int64_t n = x.numel();
  const float* xd = x.data();
  float* out = result->data();
  for (int64_t i = 0; i < n; ++i) out[i] = xd[(*table)[i]];

  if (result->requires_grad) {
    result->grad_fn =
        std::make_shared<ContiguousNode>(x.impl(), std::move(table));
  }
  return Tensor(std::move(result));
}

Tensor Reshape(const Tensor& x, const Shape& shape) {
  STSM_CHECK(x.defined());
  STSM_CHECK_EQ(x.numel(), shape.numel())
      << "reshape" << x.shape().ToString() << "->" << shape.ToString();
  // Same elements, new metadata: a zero-copy view whenever the source is
  // row-major; a strided view must compact first (differentiably). The
  // counter tracks how often callers pay that copy (see table5 profile).
  if (!x.impl()->is_contiguous()) STSM_PROF_COUNT("contiguous.via_reshape", 1);
  const Tensor src = x.impl()->is_contiguous() ? x : Contiguous(x);
  return Tensor(internal::MakeView(src.impl(), shape, shape.Strides(),
                                   src.impl()->offset));
}

Tensor Transpose(const Tensor& x, int dim0, int dim1) {
  STSM_PROF_SCOPE("transpose.fwd");
  STSM_CHECK(x.defined());
  const int ndim = x.ndim();
  if (dim0 < 0) dim0 += ndim;
  if (dim1 < 0) dim1 += ndim;
  STSM_CHECK(dim0 >= 0 && dim0 < ndim && dim1 >= 0 && dim1 < ndim);
  // Pure metadata: swap the two dimensions' sizes and strides. No element
  // moves; gradients land through the shared grad buffer.
  std::vector<int64_t> out_dims = x.shape().dims();
  std::vector<int64_t> out_strides = x.impl()->strides;
  std::swap(out_dims[dim0], out_dims[dim1]);
  std::swap(out_strides[dim0], out_strides[dim1]);
  return Tensor(internal::MakeView(x.impl(), Shape(out_dims),
                                   std::move(out_strides),
                                   x.impl()->offset));
}

Tensor Slice(const Tensor& x, int dim, int64_t start, int64_t end) {
  STSM_PROF_SCOPE("slice.fwd");
  STSM_CHECK(x.defined());
  const int ndim = x.ndim();
  if (dim < 0) dim += ndim;
  STSM_CHECK(dim >= 0 && dim < ndim);
  STSM_CHECK(start >= 0 && start <= end && end <= x.shape()[dim])
      << "slice [" << start << "," << end << ") of" << x.shape().ToString();

  // A slice along ANY dimension is a zero-copy view: bump the offset to the
  // window start and shrink the dimension, keeping the strides.
  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims[dim] = end - start;
  return Tensor(internal::MakeView(
      x.impl(), Shape(out_dims), x.impl()->strides,
      x.impl()->offset + start * x.impl()->strides[dim]));
}

Tensor Narrow(const Tensor& x, int dim, int64_t start, int64_t length) {
  return Slice(x, dim, start, start + length);
}

Tensor Select(const Tensor& x, int dim, int64_t index) {
  STSM_CHECK(x.defined());
  const int ndim = x.ndim();
  if (dim < 0) dim += ndim;
  STSM_CHECK(dim >= 0 && dim < ndim);
  STSM_CHECK(index >= 0 && index < x.shape()[dim])
      << "select index" << index << "of" << x.shape().ToString();
  std::vector<int64_t> out_dims = x.shape().dims();
  std::vector<int64_t> out_strides = x.impl()->strides;
  const int64_t offset = x.impl()->offset + index * out_strides[dim];
  out_dims.erase(out_dims.begin() + dim);
  out_strides.erase(out_strides.begin() + dim);
  return Tensor(internal::MakeView(x.impl(), Shape(out_dims),
                                   std::move(out_strides), offset));
}

namespace {

class ConcatNode : public Node {
 public:
  ConcatNode(std::vector<ImplPtr> inputs, int64_t outer, int64_t inner,
             int64_t concat_size, std::vector<int64_t> offsets,
             std::vector<int64_t> dim_sizes)
      : Node(std::move(inputs)),
        outer_(outer),
        inner_(inner),
        concat_size_(concat_size),
        offsets_(std::move(offsets)),
        dim_sizes_(std::move(dim_sizes)) {}

  const char* name() const override { return "concat"; }

 protected:
  void Apply(TensorImpl* output) override {
    const float* gout = output->grad();
    for (size_t t = 0; t < inputs_.size(); ++t) {
      TensorImpl* input = inputs_[t].get();
      if (!input->requires_grad) continue;
      input->EnsureGrad();
      float* gx = input->grad();
      for (int64_t o = 0; o < outer_; ++o) {
        const float* src = gout + (o * concat_size_ + offsets_[t]) * inner_;
        float* dst = gx + o * dim_sizes_[t] * inner_;
        for (int64_t i = 0; i < dim_sizes_[t] * inner_; ++i) dst[i] += src[i];
      }
    }
  }

  void ReleaseSaved() override {
    offsets_.clear();
    offsets_.shrink_to_fit();
    dim_sizes_.clear();
    dim_sizes_.shrink_to_fit();
  }

 private:
  int64_t outer_, inner_, concat_size_;
  std::vector<int64_t> offsets_;
  std::vector<int64_t> dim_sizes_;
};

}  // namespace

Tensor Concat(const std::vector<Tensor>& tensors, int dim) {
  STSM_PROF_SCOPE("concat.fwd");
  STSM_CHECK(!tensors.empty());
  const int ndim = tensors[0].ndim();
  if (dim < 0) dim += ndim;
  STSM_CHECK(dim >= 0 && dim < ndim);

  int64_t concat_size = 0;
  for (const Tensor& t : tensors) {
    STSM_CHECK_EQ(t.ndim(), ndim);
    for (int d = 0; d < ndim; ++d) {
      if (d != dim) STSM_CHECK_EQ(t.shape()[d], tensors[0].shape()[d]);
    }
    concat_size += t.shape()[dim];
  }
  std::vector<int64_t> out_dims = tensors[0].shape().dims();
  out_dims[dim] = concat_size;
  const Shape out_shape(out_dims);

  // The block-copy kernel below needs linear layouts; compact any strided
  // views first (differentiable, and a no-op for contiguous inputs).
  std::vector<Tensor> parts;
  parts.reserve(tensors.size());
  for (const Tensor& t : tensors) {
    if (!t.impl()->is_contiguous()) STSM_PROF_COUNT("contiguous.via_concat", 1);
    parts.push_back(Contiguous(t));
  }

  std::vector<ImplPtr> inputs;
  inputs.reserve(parts.size());
  for (const Tensor& t : parts) inputs.push_back(t.impl());
  ImplPtr result = internal::MakeResult(out_shape, inputs, /*zero=*/false);

  int64_t outer = 1, inner = 1;
  for (int d = 0; d < dim; ++d) outer *= out_shape[d];
  for (int d = dim + 1; d < ndim; ++d) inner *= out_shape[d];

  float* out = result->data();
  int64_t offset = 0;  // Offset along the concat dimension.
  std::vector<int64_t> offsets(parts.size());
  std::vector<int64_t> dim_sizes(parts.size());
  for (size_t t = 0; t < parts.size(); ++t) {
    offsets[t] = offset;
    const int64_t this_dim = parts[t].shape()[dim];
    dim_sizes[t] = this_dim;
    const float* src = parts[t].data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(out + (o * concat_size + offset) * inner,
                  src + o * this_dim * inner,
                  sizeof(float) * this_dim * inner);
    }
    offset += this_dim;
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<ConcatNode>(
        std::move(inputs), outer, inner, concat_size, std::move(offsets),
        std::move(dim_sizes));
  }
  return Tensor(std::move(result));
}

namespace {

class IndexSelectNode : public Node {
 public:
  IndexSelectNode(ImplPtr x, int64_t outer, int64_t inner, int64_t dim_size,
                  std::vector<int> indices)
      : Node({std::move(x)}),
        outer_(outer),
        inner_(inner),
        dim_size_(dim_size),
        indices_(std::move(indices)) {}

  const char* name() const override { return "index_select"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    xi->EnsureGrad();
    const int64_t k = static_cast<int64_t>(indices_.size());
    const float* gout = output->grad();
    float* gx = xi->grad();
    for (int64_t o = 0; o < outer_; ++o) {
      for (int64_t j = 0; j < k; ++j) {
        const float* src = gout + (o * k + j) * inner_;
        float* dst = gx + (o * dim_size_ + indices_[j]) * inner_;
        for (int64_t i = 0; i < inner_; ++i) dst[i] += src[i];
      }
    }
  }

  void ReleaseSaved() override {
    indices_.clear();
    indices_.shrink_to_fit();
  }

 private:
  int64_t outer_, inner_, dim_size_;
  std::vector<int> indices_;
};

}  // namespace

Tensor IndexSelect(const Tensor& xin, int dim, const std::vector<int>& indices) {
  STSM_PROF_SCOPE("index_select.fwd");
  STSM_CHECK(xin.defined());
  // The memcpy gather below assumes a linear layout.
  if (!xin.impl()->is_contiguous()) {
    STSM_PROF_COUNT("contiguous.via_index_select", 1);
  }
  const Tensor x = Contiguous(xin);
  const int ndim = x.ndim();
  if (dim < 0) dim += ndim;
  STSM_CHECK(dim >= 0 && dim < ndim);
  const int64_t dim_size = x.shape()[dim];
  for (int idx : indices) {
    STSM_CHECK(idx >= 0 && idx < dim_size)
        << "index" << idx << "out of range for dim of size" << dim_size;
  }

  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims[dim] = static_cast<int64_t>(indices.size());
  const Shape out_shape(out_dims);
  ImplPtr result = internal::MakeResult(out_shape, {x.impl()}, /*zero=*/false);

  int64_t outer = 1, inner = 1;
  for (int d = 0; d < dim; ++d) outer *= x.shape()[d];
  for (int d = dim + 1; d < ndim; ++d) inner *= x.shape()[d];
  const int64_t k = static_cast<int64_t>(indices.size());

  const float* xd = x.data();
  float* out = result->data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t j = 0; j < k; ++j) {
      std::memcpy(out + (o * k + j) * inner,
                  xd + (o * dim_size + indices[j]) * inner,
                  sizeof(float) * inner);
    }
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<IndexSelectNode>(
        x.impl(), outer, inner, dim_size, indices);
  }
  return Tensor(std::move(result));
}

Tensor Unsqueeze(const Tensor& x, int dim) {
  const int ndim = x.ndim();
  if (dim < 0) dim += ndim + 1;
  STSM_CHECK(dim >= 0 && dim <= ndim);
  // Direct stride manipulation (not Reshape): works on strided views without
  // compaction. The size-1 dimension is never stepped, so its stride only
  // has to keep a contiguous layout canonical.
  std::vector<int64_t> dims = x.shape().dims();
  std::vector<int64_t> strides = x.impl()->strides;
  const int64_t new_stride = (dim < ndim) ? dims[dim] * strides[dim] : 1;
  dims.insert(dims.begin() + dim, 1);
  strides.insert(strides.begin() + dim, new_stride);
  return Tensor(internal::MakeView(x.impl(), Shape(dims), std::move(strides),
                                   x.impl()->offset));
}

Tensor Squeeze(const Tensor& x, int dim) {
  const int ndim = x.ndim();
  if (dim < 0) dim += ndim;
  STSM_CHECK(dim >= 0 && dim < ndim);
  STSM_CHECK_EQ(x.shape()[dim], 1);
  std::vector<int64_t> dims = x.shape().dims();
  std::vector<int64_t> strides = x.impl()->strides;
  dims.erase(dims.begin() + dim);
  strides.erase(strides.begin() + dim);
  return Tensor(internal::MakeView(x.impl(), Shape(dims), std::move(strides),
                                   x.impl()->offset));
}

Tensor BroadcastTo(const Tensor& x, const Shape& shape) {
  STSM_CHECK(Shape::BroadcastsTo(x.shape(), shape))
      << x.shape().ToString() << "does not broadcast to" << shape.ToString();
  // Multiplying by ones materialises the broadcast with correct gradients.
  return Mul(x, Tensor::Ones(shape));
}

// ---- Reductions -------------------------------------------------------------------

namespace {

class SumNode : public Node {
 public:
  SumNode(ImplPtr x, IndexTable table)
      : Node({std::move(x)}), table_(std::move(table)) {}
  const char* name() const override { return "sum"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    STSM_PROF_SCOPE("sum.bwd");
    xi->EnsureGrad();
    const int64_t n = xi->shape.numel();
    const float g = output->grad()[0];
    float* gx = xi->grad();
    if (table_ == nullptr) {
      for (int64_t i = 0; i < n; ++i) gx[i] += g;
    } else {
      for (int64_t i = 0; i < n; ++i) gx[(*table_)[i]] += g;
    }
  }

  void ReleaseSaved() override { table_.reset(); }

 private:
  IndexTable table_;
};

}  // namespace

Tensor Sum(const Tensor& x) {
  STSM_PROF_SCOPE("sum.fwd");
  STSM_CHECK(x.defined());
  ImplPtr result = internal::MakeResult(Shape({}), {x.impl()}, /*zero=*/false);
  const float* xd = x.data();
  const int64_t n = x.numel();
  IndexTable table = BuildPhysTable(*x.impl());
  const simd::KernelTable* vk = simd::Active();
  double acc = 0.0;
  if (vk != nullptr) {
    // Every layout goes through the same lane-split kernel: a strided view
    // is gathered first so its accumulation order — and therefore its
    // result — stays bitwise equal to the contiguous case.
    const float* src = xd;
    if (table != nullptr) {
      std::vector<float>& scratch = TlGatherScratch();
      scratch.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) scratch[i] = xd[(*table)[i]];
      src = scratch.data();
    }
    acc = vk->sum(src, n);
  } else if (table == nullptr) {
    for (int64_t i = 0; i < n; ++i) acc += xd[i];
  } else {
    for (int64_t i = 0; i < n; ++i) acc += xd[(*table)[i]];
  }
  result->data()[0] = static_cast<float>(acc);

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<SumNode>(x.impl(), std::move(table));
  }
  return Tensor(std::move(result));
}

namespace {

// Shared reduce-along-dim scaffolding: splits x into [outer, dim, inner].
struct DimSplit {
  int dim;
  int64_t outer = 1;
  int64_t reduce = 1;
  int64_t inner = 1;
};

DimSplit SplitAtDim(const Shape& shape, int dim) {
  const int ndim = shape.ndim();
  if (dim < 0) dim += ndim;
  STSM_CHECK(dim >= 0 && dim < ndim);
  DimSplit split;
  split.dim = dim;
  for (int d = 0; d < dim; ++d) split.outer *= shape[d];
  split.reduce = shape[dim];
  for (int d = dim + 1; d < ndim; ++d) split.inner *= shape[d];
  return split;
}

Shape ReducedShape(const Shape& shape, int dim, bool keepdim) {
  const int ndim = shape.ndim();
  if (dim < 0) dim += ndim;
  std::vector<int64_t> dims = shape.dims();
  if (keepdim) {
    dims[dim] = 1;
  } else {
    dims.erase(dims.begin() + dim);
  }
  return Shape(dims);
}

// Physical addressing for a [outer, reduce, inner] split of a (possibly
// strided) impl: element (o, r, i) lives at
//   outer_off[o] + r * reduce_stride + inner_off[i]
// relative to data(). For a contiguous impl this reproduces the flat
// (o * reduce + r) * inner + i arithmetic exactly (same values, same
// iteration order), so one code path serves both layouts. Shared between an
// op's forward and its node.
struct DimMap {
  std::vector<int64_t> outer_off;
  std::vector<int64_t> inner_off;
  int64_t reduce_stride = 0;
};

std::shared_ptr<const DimMap> BuildDimMap(const TensorImpl& impl,
                                          const DimSplit& s) {
  auto map = std::make_shared<DimMap>();
  const std::vector<int64_t>& dims = impl.shape.dims();
  FillOffsets(dims, impl.strides, 0, s.dim, &map->outer_off);
  FillOffsets(dims, impl.strides, s.dim + 1, impl.shape.ndim(),
              &map->inner_off);
  map->reduce_stride = impl.strides[s.dim];
  return map;
}

class SumDimNode : public Node {
 public:
  SumDimNode(ImplPtr x, DimSplit split, std::shared_ptr<const DimMap> map)
      : Node({std::move(x)}), s_(split), map_(std::move(map)) {}
  const char* name() const override { return "sum_dim"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    STSM_PROF_SCOPE("sum_dim.bwd");
    xi->EnsureGrad();
    const DimMap& m = *map_;
    const float* gout = output->grad();
    float* gx = xi->grad();
    for (int64_t o = 0; o < s_.outer; ++o) {
      for (int64_t r = 0; r < s_.reduce; ++r) {
        for (int64_t i = 0; i < s_.inner; ++i) {
          gx[m.outer_off[o] + r * m.reduce_stride + m.inner_off[i]] +=
              gout[o * s_.inner + i];
        }
      }
    }
  }

  void ReleaseSaved() override { map_.reset(); }

 private:
  DimSplit s_;
  std::shared_ptr<const DimMap> map_;
};

}  // namespace

Tensor Sum(const Tensor& x, int dim, bool keepdim) {
  STSM_PROF_SCOPE("sum_dim.fwd");
  STSM_CHECK(x.defined());
  const DimSplit s = SplitAtDim(x.shape(), dim);
  const Shape out_shape = ReducedShape(x.shape(), dim, keepdim);
  ImplPtr result = internal::MakeResult(out_shape, {x.impl()}, /*zero=*/false);

  auto map = BuildDimMap(*x.impl(), s);
  const DimMap& m = *map;
  const float* xd = x.data();
  float* out = result->data();
  const simd::KernelTable* vk = simd::Active();
  if (vk != nullptr) {
    // Same kernel for every layout (unit-stride rows reduce in place,
    // anything else is gathered) so strided==contiguous stays bitwise.
    std::vector<float>& scratch = TlGatherScratch();
    for (int64_t o = 0; o < s.outer; ++o) {
      for (int64_t i = 0; i < s.inner; ++i) {
        const int64_t base = m.outer_off[o] + m.inner_off[i];
        const float* row = xd + base;
        if (m.reduce_stride != 1) {
          scratch.resize(static_cast<size_t>(s.reduce));
          for (int64_t r = 0; r < s.reduce; ++r) {
            scratch[r] = xd[base + r * m.reduce_stride];
          }
          row = scratch.data();
        }
        out[o * s.inner + i] = static_cast<float>(vk->sum(row, s.reduce));
      }
    }
  } else {
    for (int64_t o = 0; o < s.outer; ++o) {
      for (int64_t i = 0; i < s.inner; ++i) {
        const int64_t base = m.outer_off[o] + m.inner_off[i];
        double acc = 0.0;
        for (int64_t r = 0; r < s.reduce; ++r) {
          acc += xd[base + r * m.reduce_stride];
        }
        out[o * s.inner + i] = static_cast<float>(acc);
      }
    }
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<SumDimNode>(x.impl(), s, std::move(map));
  }
  return Tensor(std::move(result));
}

Tensor Mean(const Tensor& x) {
  return Div(Sum(x), static_cast<float>(x.numel()));
}

Tensor Mean(const Tensor& x, int dim, bool keepdim) {
  const DimSplit s = SplitAtDim(x.shape(), dim);
  return Div(Sum(x, dim, keepdim), static_cast<float>(s.reduce));
}

namespace {

class ExtremumNode : public Node {
 public:
  ExtremumNode(ImplPtr x, DimSplit split, std::shared_ptr<const DimMap> map,
               std::vector<int64_t> arg_indices)
      : Node({std::move(x)}),
        s_(split),
        map_(std::move(map)),
        arg_indices_(std::move(arg_indices)) {}

  const char* name() const override { return "extremum_dim"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    xi->EnsureGrad();
    const DimMap& m = *map_;
    const float* gout = output->grad();
    float* gx = xi->grad();
    for (int64_t o = 0; o < s_.outer; ++o) {
      for (int64_t i = 0; i < s_.inner; ++i) {
        const int64_t r = arg_indices_[o * s_.inner + i];
        gx[m.outer_off[o] + r * m.reduce_stride + m.inner_off[i]] +=
            gout[o * s_.inner + i];
      }
    }
  }

  void ReleaseSaved() override {
    map_.reset();
    arg_indices_.clear();
    arg_indices_.shrink_to_fit();
  }

 private:
  DimSplit s_;
  std::shared_ptr<const DimMap> map_;
  std::vector<int64_t> arg_indices_;
};

// Shared implementation of Max/Min along a dimension.
Tensor ExtremumAlongDim(const Tensor& x, int dim, bool keepdim, bool is_max) {
  STSM_PROF_SCOPE("extremum_dim.fwd");
  STSM_CHECK(x.defined());
  const DimSplit s = SplitAtDim(x.shape(), dim);
  STSM_CHECK_GT(s.reduce, 0);
  const Shape out_shape = ReducedShape(x.shape(), dim, keepdim);
  ImplPtr result = internal::MakeResult(out_shape, {x.impl()}, /*zero=*/false);

  auto map = BuildDimMap(*x.impl(), s);
  const DimMap& m = *map;
  const float* xd = x.data();
  float* out = result->data();
  std::vector<int64_t> arg_indices(static_cast<size_t>(s.outer * s.inner));
  const simd::KernelTable* vk = simd::Active();
  std::vector<float>& scratch = TlGatherScratch();
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t i = 0; i < s.inner; ++i) {
      const int64_t base = m.outer_off[o] + m.inner_off[i];
      if (vk != nullptr) {
        // The vector reduction is bitwise-exact (values AND argmax) but
        // declines NaN rows and short rows; those fall through to the
        // scalar scan, which is the semantic reference either way.
        const float* row = xd + base;
        if (m.reduce_stride != 1) {
          scratch.resize(static_cast<size_t>(s.reduce));
          for (int64_t r = 0; r < s.reduce; ++r) {
            scratch[r] = xd[base + r * m.reduce_stride];
          }
          row = scratch.data();
        }
        float best = 0.0f;
        int64_t best_r = 0;
        const bool done = is_max ? vk->max_row(row, s.reduce, &best, &best_r)
                                 : vk->min_row(row, s.reduce, &best, &best_r);
        if (done) {
          out[o * s.inner + i] = best;
          arg_indices[o * s.inner + i] = best_r;
          continue;
        }
      }
      int64_t best_r = 0;
      float best = xd[base];
      for (int64_t r = 1; r < s.reduce; ++r) {
        const float v = xd[base + r * m.reduce_stride];
        if (is_max ? (v > best) : (v < best)) {
          best = v;
          best_r = r;
        }
      }
      out[o * s.inner + i] = best;
      arg_indices[o * s.inner + i] = best_r;
    }
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<ExtremumNode>(
        x.impl(), s, std::move(map), std::move(arg_indices));
  }
  return Tensor(std::move(result));
}

}  // namespace

Tensor Max(const Tensor& x, int dim, bool keepdim) {
  return ExtremumAlongDim(x, dim, keepdim, /*is_max=*/true);
}

Tensor Min(const Tensor& x, int dim, bool keepdim) {
  return ExtremumAlongDim(x, dim, keepdim, /*is_max=*/false);
}

// ---- MatMul -----------------------------------------------------------------------

namespace {

// Batch and stride bookkeeping for broadcasting matmul. Matrix strides come
// from the impls' actual layouts, so transposed or sliced operand views feed
// the packed GEMM directly — MatMul(Transpose(X, -1, -2), W) never
// materializes the transpose; the packing loops absorb it.
struct MatMulPlan {
  int64_t m, k, n;
  int64_t rs_a, cs_a;      // Row/column element strides of a's matrices.
  int64_t rs_b, cs_b;
  Shape batch_shape;       // Broadcast batch dims of the output.
  int64_t batch_count;
  // True when the operand's batches are broadcast-shared across output
  // batches (its gradient then races across batches unless the backward
  // serializes the batch loop).
  bool a_shared = false, b_shared = false;
  // For each output batch index: element offset (relative to data()) of the
  // operand's matrix.
  std::vector<int64_t> a_batch_offset;
  std::vector<int64_t> b_batch_offset;
};

Shape BatchShapeOf(const Shape& s) {
  std::vector<int64_t> dims = s.dims();
  dims.resize(dims.size() - 2);
  return Shape(dims);
}

// Element offset of operand t's matrix for every output batch index, built
// from t's actual batch-dimension strides (0 where t broadcasts).
std::vector<int64_t> BatchOffsets(const TensorImpl& t,
                                  const Shape& batch_shape) {
  const int nb = batch_shape.ndim();
  std::vector<int64_t> strides(nb, 0);
  const int nbt = t.shape.ndim() - 2;
  for (int i = 0; i < nbt; ++i) {
    const int out_d = nb - 1 - i;
    const int in_d = nbt - 1 - i;
    strides[out_d] = (t.shape.dims()[in_d] == 1) ? 0 : t.strides[in_d];
  }
  std::vector<int64_t> offsets;
  FillOffsets(batch_shape.dims(), strides, 0, nb, &offsets);
  return offsets;
}

MatMulPlan PlanMatMul(const TensorImpl& a, const TensorImpl& b) {
  STSM_CHECK_GE(a.shape.ndim(), 2) << "MatMul lhs must be >= 2-D";
  STSM_CHECK_GE(b.shape.ndim(), 2) << "MatMul rhs must be >= 2-D";
  MatMulPlan plan;
  plan.m = a.shape[-2];
  plan.k = a.shape[-1];
  STSM_CHECK_EQ(b.shape[-2], plan.k)
      << "MatMul inner-dim mismatch:" << a.shape.ToString() << "@"
      << b.shape.ToString();
  plan.n = b.shape[-1];
  plan.rs_a = a.strides[a.shape.ndim() - 2];
  plan.cs_a = a.strides[a.shape.ndim() - 1];
  plan.rs_b = b.strides[b.shape.ndim() - 2];
  plan.cs_b = b.strides[b.shape.ndim() - 1];

  const Shape batch_a = BatchShapeOf(a.shape);
  const Shape batch_b = BatchShapeOf(b.shape);
  plan.batch_shape = Shape::Broadcast(batch_a, batch_b);
  plan.batch_count = plan.batch_shape.numel();
  plan.a_batch_offset = BatchOffsets(a, plan.batch_shape);
  plan.b_batch_offset = BatchOffsets(b, plan.batch_shape);
  plan.a_shared = batch_a.numel() != plan.batch_count;
  plan.b_shared = batch_b.numel() != plan.batch_count;
  return plan;
}

// Runs run(blk, batch_begin, batch_end) over the (batch, row block) grid of
// one GEMM direction. Tasks are ordered batch-major, as the per-slice grid
// always was; inside one ParallelFor chunk, the consecutive batches of a row
// block that read the same A matrix (equal `a_offset`) form one run, which
// the caller hands to PackedGemmShared as one slice list. A broadcast A (an
// adjacency against every [B, T] slice) is thus packed once per run; a
// partially broadcast one groups by offset, and an unshared one degenerates
// to runs of one. Every (batch, block) task has exactly one owner, so the
// result does not depend on the chunking.
template <typename Run>
void ForEachSharedRun(int64_t batches, int64_t blocks,
                      const std::vector<int64_t>& a_offset, const Run& run) {
  ParallelFor(0, batches * blocks, [&](int64_t begin, int64_t end) {
    for (int64_t blk = 0; blk < blocks; ++blk) {
      // Batches whose task index batch * blocks + blk is in [begin, end).
      int64_t b0 = (begin - blk + blocks - 1) / blocks;
      const int64_t b_end = (end - blk + blocks - 1) / blocks;
      while (b0 < b_end) {
        int64_t b1 = b0 + 1;
        while (b1 < b_end && a_offset[b1] == a_offset[b0]) ++b1;
        run(blk, b0, b1);
        b0 = b1;
      }
    }
  });
}

// dB += A^T @ dC for every output batch, accumulated at B's strides. Row
// blocks run over k (the rows of dB). A shared B (a weight) takes its
// gradient from every batch, so one task owns a row block of EVERY batch and
// adds them in batch order; otherwise each task's A^T is packed once for
// its run of batches.
void MatMulGradB(const MatMulPlan& plan, const float* av, const float* gout,
                 float* gb) {
  const int64_t m = plan.m, k = plan.k, n = plan.n;
  const int64_t batches = plan.batch_count;
  const int64_t blocks = (k + kGemmRowBlock - 1) / kGemmRowBlock;
  if (plan.b_shared) {
    ParallelFor(0, blocks, [&](int64_t begin, int64_t end) {
      for (int64_t blk = begin; blk < end; ++blk) {
        const int64_t k0 = blk * kGemmRowBlock;
        const int64_t rows = std::min(kGemmRowBlock, k - k0);
        for (int64_t batch = 0; batch < batches; ++batch) {
          PackedGemm(rows, n, m,                                     //
                     av + plan.a_batch_offset[batch] + k0 * plan.cs_a,
                     plan.cs_a, plan.rs_a,                           // A^T
                     gout + batch * m * n, n, 1,                     //
                     gb + plan.b_batch_offset[batch] + k0 * plan.rs_b,
                     plan.rs_b, plan.cs_b,
                     /*accumulate=*/true);
        }
      }
    });
    return;
  }
  ForEachSharedRun(
      batches, blocks, plan.a_batch_offset,
      [&](int64_t blk, int64_t b0, int64_t b1) {
        const int64_t k0 = blk * kGemmRowBlock;
        const int64_t rows = std::min(kGemmRowBlock, k - k0);
        std::vector<GemmSlice> slices;
        slices.reserve(static_cast<size_t>(b1 - b0));
        for (int64_t batch = b0; batch < b1; ++batch) {
          slices.push_back(
              {gout + batch * m * n,
               gb + plan.b_batch_offset[batch] + k0 * plan.rs_b});
        }
        PackedGemmShared(rows, n, m,                                    //
                         av + plan.a_batch_offset[b0] + k0 * plan.cs_a,
                         DType::kF32, plan.cs_a, plan.rs_a,             // A^T
                         DType::kF32, n, 1, slices.data(), b1 - b0,     //
                         plan.rs_b, plan.cs_b, /*accumulate=*/true);
      });
}

class MatMulNode : public Node {
 public:
  MatMulNode(ImplPtr a, ImplPtr b, std::shared_ptr<MatMulPlan> plan)
      : Node({std::move(a), std::move(b)}), plan_(std::move(plan)) {}

  const char* name() const override { return "matmul"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* ai = inputs_[0].get();
    TensorImpl* bi = inputs_[1].get();
    const MatMulPlan& plan = *plan_;
    const int64_t m = plan.m, k = plan.k, n = plan.n;
    const int64_t batches = plan.batch_count;
    const float* gout = output->grad();
    const float* av = ai->data();
    const float* bv = bi->data();

    if (ai->requires_grad) {
      STSM_PROF_SCOPE("matmul.bwd_a");
      ai->EnsureGrad();
      float* ga = ai->grad();
      // dA = dC @ B^T, accumulated at A's strides (the grad buffer mirrors
      // the data layout, so a transposed-view operand scatters correctly).
      const int64_t blocks = (m + kGemmRowBlock - 1) / kGemmRowBlock;
      auto block = [&](int64_t batch, int64_t blk) {
        const int64_t i0 = blk * kGemmRowBlock;
        const int64_t rows = std::min(kGemmRowBlock, m - i0);
        PackedGemm(rows, k, n,                                     //
                   gout + (batch * m + i0) * n, n, 1,              //
                   bv + plan.b_batch_offset[batch], plan.cs_b,
                   plan.rs_b,                                      // B^T
                   ga + plan.a_batch_offset[batch] + i0 * plan.rs_a,
                   plan.rs_a, plan.cs_a,
                   /*accumulate=*/true);
      };
      if (plan.a_shared) {
        // A's batches are broadcast-shared: a thread owns a row block of
        // EVERY batch (serial inner loop) so accumulation never races.
        ParallelFor(0, blocks, [&](int64_t begin, int64_t end) {
          for (int64_t blk = begin; blk < end; ++blk) {
            for (int64_t batch = 0; batch < batches; ++batch) {
              block(batch, blk);
            }
          }
        });
      } else {
        ParallelFor(0, batches * blocks, [&](int64_t begin, int64_t end) {
          for (int64_t t = begin; t < end; ++t) block(t / blocks, t % blocks);
        });
      }
    }
    if (bi->requires_grad) {
      STSM_PROF_SCOPE("matmul.bwd_b");
      bi->EnsureGrad();
      MatMulGradB(plan, av, gout, bi->grad());
    }
  }

  void ReleaseSaved() override { plan_.reset(); }

 private:
  std::shared_ptr<MatMulPlan> plan_;
};

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  STSM_PROF_SCOPE("matmul.fwd");
  STSM_CHECK(a.defined() && b.defined());
  auto plan = std::make_shared<MatMulPlan>(PlanMatMul(*a.impl(), *b.impl()));

  std::vector<int64_t> out_dims = plan->batch_shape.dims();
  out_dims.push_back(plan->m);
  out_dims.push_back(plan->n);
  const Shape out_shape(out_dims);
  // PackedGemm overwrites its C block, so the output needs no zero-fill.
  ImplPtr result =
      internal::MakeResult(out_shape, {a.impl(), b.impl()}, /*zero=*/false);

  // Operands address through dtype-generic byte pointers: fp32 everywhere
  // except the no-grad serving path, where bf16 weights/adjacencies feed the
  // widen-in-the-pack GEMM (PackedGemmShared). The output is always fp32.
  const DType adt = a.dtype();
  const DType bdt = b.dtype();
  const char* ad = static_cast<const char*>(a.impl()->raw());
  const char* bd = static_cast<const char*>(b.impl()->raw());
  const int64_t aes = static_cast<int64_t>(ElementSize(adt));
  const int64_t bes = static_cast<int64_t>(ElementSize(bdt));
  float* out = result->data();
  const int64_t m = plan->m, k = plan->k, n = plan->n;

  // Forward: each (batch, row-block) task owns a disjoint block of C rows;
  // runs of batches that share one A matrix go through one packed GEMM.
  const int64_t blocks = (m + kGemmRowBlock - 1) / kGemmRowBlock;
  ForEachSharedRun(
      plan->batch_count, blocks, plan->a_batch_offset,
      [&](int64_t blk, int64_t b0, int64_t b1) {
        const int64_t i0 = blk * kGemmRowBlock;
        const int64_t rows = std::min(kGemmRowBlock, m - i0);
        std::vector<GemmSlice> slices;
        slices.reserve(static_cast<size_t>(b1 - b0));
        for (int64_t batch = b0; batch < b1; ++batch) {
          slices.push_back({bd + plan->b_batch_offset[batch] * bes,
                            out + (batch * m + i0) * n});
        }
        PackedGemmShared(
            rows, n, k,  //
            ad + (plan->a_batch_offset[b0] + i0 * plan->rs_a) * aes, adt,
            plan->rs_a, plan->cs_a, bdt, plan->rs_b, plan->cs_b,
            slices.data(), b1 - b0, n, 1, /*accumulate=*/false);
      });

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<MatMulNode>(a.impl(), b.impl(),
                                                   std::move(plan));
  }
  return Tensor(std::move(result));
}

namespace internal {

void AccumulateMatMulGradB(const Tensor& a, const Tensor& b,
                           const float* grad_out) {
  STSM_CHECK(a.defined() && b.defined());
  STSM_CHECK(a.dtype() == DType::kF32 && b.dtype() == DType::kF32);
  const MatMulPlan plan = PlanMatMul(*a.impl(), *b.impl());
  b.impl()->EnsureGrad();
  MatMulGradB(plan, a.data(), grad_out, b.impl()->grad());
}

}  // namespace internal

// ---- Dtype conversion ---------------------------------------------------------------

Tensor To(const Tensor& x, DType dtype) {
  STSM_CHECK(x.defined());
  if (x.dtype() == dtype) return x;  // Same handle; nothing to convert.
  STSM_PROF_SCOPE("dtype.to");
  // To() is a storage conversion, not math: it never records, and rounding a
  // tensor that autograd would otherwise track must be explicit. Detach()
  // first (or run under NoGradGuard, as the serving path does).
  STSM_CHECK(!internal::ShouldRecord({x.impl()}))
      << "To(" << DTypeName(dtype)
      << ") is not differentiable; Detach() the tensor or convert under "
         "NoGradGuard";
  const int64_t n = x.numel();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = x.shape();
  impl->strides = x.shape().Strides();  // Conversion output is compact.
  impl->storage = Storage::New(n, dtype, /*zero=*/false);
  const TensorImpl& src = *x.impl();
  if (dtype == DType::kBf16) {
    // fp32 -> bf16, round-to-nearest-even (tensor/dtype.h).
    uint16_t* dst = impl->storage->bf16_data();
    const float* s = src.data();
    if (src.is_contiguous()) {
      for (int64_t i = 0; i < n; ++i) dst[i] = Bf16FromF32(s[i]);
    } else {
      for (int64_t i = 0; i < n; ++i) {
        dst[i] = Bf16FromF32(s[src.PhysicalIndex(i)]);
      }
    }
  } else {
    // bf16 -> fp32 widening (exact).
    float* dst = impl->storage->data();
    const uint16_t* s = src.bf16_data();
    if (src.is_contiguous()) {
      for (int64_t i = 0; i < n; ++i) dst[i] = F32FromBf16(s[i]);
    } else {
      for (int64_t i = 0; i < n; ++i) {
        dst[i] = F32FromBf16(s[src.PhysicalIndex(i)]);
      }
    }
  }
  return Tensor(std::move(impl));
}

Tensor WidenToF32(const Tensor& x) {
  if (!x.defined() || x.dtype() == DType::kF32) return x;
  return To(x, DType::kF32);
}

// ---- NN primitives ------------------------------------------------------------------

namespace {

class SoftmaxNode : public Node {
 public:
  SoftmaxNode(ImplPtr x, DimSplit split, std::shared_ptr<const DimMap> map)
      : Node({std::move(x)}), s_(split), map_(std::move(map)) {}
  const char* name() const override { return "softmax"; }

 protected:
  void Apply(TensorImpl* output) override {
    TensorImpl* xi = inputs_[0].get();
    if (!xi->requires_grad) return;
    STSM_PROF_SCOPE("softmax.bwd");
    xi->EnsureGrad();
    const DimMap& m = *map_;
    // The output is always freshly allocated and contiguous; only the input
    // gradient needs the strided map.
    const float* y = output->data();
    const float* gout = output->grad();
    float* gx = xi->grad();
    for (int64_t o = 0; o < s_.outer; ++o) {
      for (int64_t i = 0; i < s_.inner; ++i) {
        const int64_t gbase = m.outer_off[o] + m.inner_off[i];
        double dot = 0.0;
        for (int64_t r = 0; r < s_.reduce; ++r) {
          const int64_t idx = (o * s_.reduce + r) * s_.inner + i;
          dot += static_cast<double>(gout[idx]) * y[idx];
        }
        for (int64_t r = 0; r < s_.reduce; ++r) {
          const int64_t idx = (o * s_.reduce + r) * s_.inner + i;
          gx[gbase + r * m.reduce_stride] +=
              (gout[idx] - static_cast<float>(dot)) * y[idx];
        }
      }
    }
  }

  void ReleaseSaved() override { map_.reset(); }

 private:
  DimSplit s_;
  std::shared_ptr<const DimMap> map_;
};

}  // namespace

Tensor Softmax(const Tensor& x, int dim) {
  STSM_PROF_SCOPE("softmax.fwd");
  STSM_CHECK(x.defined());
  const DimSplit s = SplitAtDim(x.shape(), dim);
  ImplPtr result = internal::MakeResult(x.shape(), {x.impl()}, /*zero=*/false);

  auto map = BuildDimMap(*x.impl(), s);
  const DimMap& m = *map;
  const float* xd = x.data();
  float* out = result->data();
  const simd::KernelTable* vk = simd::Active();
  std::vector<float>& scratch = TlGatherScratch();
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t i = 0; i < s.inner; ++i) {
      const int64_t xbase = m.outer_off[o] + m.inner_off[i];
      if (vk != nullptr) {
        // One kernel for every layout: unit-stride rows (last-dim softmax on
        // a contiguous tensor) run in place, everything else gathers and
        // scatters through scratch — so strided==contiguous stays bitwise.
        // The kernel declines non-finite and short rows; those fall through
        // to the scalar reference below.
        bool done = false;
        if (m.reduce_stride == 1 && s.inner == 1) {
          done = vk->softmax_row(xd + xbase, out + o * s.reduce, s.reduce);
        } else {
          scratch.resize(static_cast<size_t>(2 * s.reduce));
          float* row_in = scratch.data();
          float* row_out = scratch.data() + s.reduce;
          for (int64_t r = 0; r < s.reduce; ++r) {
            row_in[r] = xd[xbase + r * m.reduce_stride];
          }
          done = vk->softmax_row(row_in, row_out, s.reduce);
          if (done) {
            for (int64_t r = 0; r < s.reduce; ++r) {
              out[(o * s.reduce + r) * s.inner + i] = row_out[r];
            }
          }
        }
        if (done) continue;
      }
      float max_v = -std::numeric_limits<float>::infinity();
      for (int64_t r = 0; r < s.reduce; ++r) {
        max_v = std::max(max_v, xd[xbase + r * m.reduce_stride]);
      }
      double denom = 0.0;
      for (int64_t r = 0; r < s.reduce; ++r) {
        const float e = std::exp(xd[xbase + r * m.reduce_stride] - max_v);
        out[(o * s.reduce + r) * s.inner + i] = e;
        denom += e;
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t r = 0; r < s.reduce; ++r) {
        out[(o * s.reduce + r) * s.inner + i] *= inv;
      }
    }
  }

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<SoftmaxNode>(x.impl(), s, std::move(map));
  }
  return Tensor(std::move(result));
}

Tensor LogSoftmax(const Tensor& x, int dim) { return Log(Softmax(x, dim)); }

namespace {

// Per-thread scratch for Conv1dTime's repacked weights and dW
// accumulator: at most K * C_in * C_out floats, kept out of the pooled
// Storage so serving adds no pooled allocation per request. ParallelFor
// workers read (or, for dW, write disjoint rows of) the calling thread's
// buffer.
float* TlConvScratch(int slot, int64_t n) {
  thread_local std::vector<float> scratch[2];
  if (static_cast<int64_t>(scratch[slot].size()) < n) scratch[slot].resize(n);
  return scratch[slot].data();
}

// Copies a [C_out, C_in, K] conv weight (or its gradient) into the layout a
// vector kernel reads contiguously: [K][C_out][C_in] when out_major (dX,
// dW), else [K][C_in][C_out] (the forward).
void RepackConvWeight(const float* w, int64_t c_out, int64_t c_in,
                      int64_t kernel, bool out_major, float* packed) {
  for (int64_t co = 0; co < c_out; ++co) {
    for (int64_t ci = 0; ci < c_in; ++ci) {
      for (int64_t kk = 0; kk < kernel; ++kk) {
        const float v = w[(co * c_in + ci) * kernel + kk];
        if (out_major) {
          packed[(kk * c_out + co) * c_in + ci] = v;  // [K][C_out][C_in]
        } else {
          packed[(kk * c_in + ci) * c_out + co] = v;  // [K][C_in][C_out]
        }
      }
    }
  }
}

// Gradients of Conv1dTime over the `steps` computed output steps. Output
// step s is input time t0 + s (t0 = time - steps); the steps before t0 were
// never computed and contribute nothing. Under SIMD dispatch dX and dW run
// on rows_axpy with repacked weights and dW is split over (kk, co) owners;
// each gradient element still sees the scalar loops' terms in the same
// order.
class Conv1dNode : public Node {
 public:
  Conv1dNode(ImplPtr x, ImplPtr w, ImplPtr bias, int64_t batch, int64_t time,
             int64_t steps, int64_t nodes, int64_t c_in, int64_t c_out,
             int64_t kernel, int dilation)
      : Node(bias ? std::vector<ImplPtr>{std::move(x), std::move(w),
                                         std::move(bias)}
                  : std::vector<ImplPtr>{std::move(x), std::move(w)}),
        batch_(batch),
        time_(time),
        steps_(steps),
        nodes_(nodes),
        c_in_(c_in),
        c_out_(c_out),
        kernel_(kernel),
        dilation_(dilation) {}

  const char* name() const override { return "conv1d"; }

 protected:
  void Apply(TensorImpl* output) override {
    STSM_PROF_SCOPE("conv1d.bwd");
    TensorImpl* xi = inputs_[0].get();
    TensorImpl* wi = inputs_[1].get();
    TensorImpl* biasi = inputs_.size() > 2 ? inputs_[2].get() : nullptr;
    const int64_t batch = batch_, time = time_, steps = steps_,
                  nodes = nodes_, c_in = c_in_, c_out = c_out_,
                  kernel = kernel_;
    const int64_t t0 = time - steps;
    const int dilation = dilation_;
    const float* gout = output->grad();
    const float* xv = xi->data();
    const float* wv = wi->data();
    const simd::KernelTable* vk = simd::Active();

    if (biasi != nullptr && biasi->requires_grad) {
      biasi->EnsureGrad();
      float* gb = biasi->grad();
      const int64_t rows = batch * steps * nodes;
      if (vk != nullptr) {
        // Column sums in row order: one rows_axpy row with coefficient 1.
        const float one = 1.0f;
        vk->rows_axpy(&one, 0, 0, gout, gb, 1, rows, c_out);
      } else {
        for (int64_t idx = 0; idx < rows; ++idx) {
          const float* g_row = gout + idx * c_out;
          for (int64_t co = 0; co < c_out; ++co) gb[co] += g_row[co];
        }
      }
    }
    if (wi->requires_grad) {
      wi->EnsureGrad();
      float* gw = wi->grad();
      if (vk != nullptr) {
        WeightGradVector(vk, gout, xv, gw);
      } else {
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t s = 0; s < steps; ++s) {
            const float* g_bt = gout + (b * steps + s) * nodes * c_out;
            for (int64_t kk = 0; kk < kernel; ++kk) {
              const int64_t t_in = t0 + s - (kernel - 1 - kk) * dilation;
              if (t_in < 0) continue;
              const float* x_bt = xv + (b * time + t_in) * nodes * c_in;
              for (int64_t n = 0; n < nodes; ++n) {
                const float* x_row = x_bt + n * c_in;
                const float* g_row = g_bt + n * c_out;
                for (int64_t co = 0; co < c_out; ++co) {
                  const float g = g_row[co];
                  if (g == 0.0f) continue;
                  float* gw_row = gw + (co * c_in) * kernel;
                  for (int64_t ci = 0; ci < c_in; ++ci) {
                    gw_row[ci * kernel + kk] += g * x_row[ci];
                  }
                }
              }
            }
          }
        }
      }
    }
    if (xi->requires_grad) {
      xi->EnsureGrad();
      float* gx = xi->grad();
      // [K][C_out][C_in]: tap kk is the [C_out, C_in] matrix rows_axpy
      // combines.
      float* w_t = nullptr;
      if (vk != nullptr) {
        w_t = TlConvScratch(0, kernel * c_out * c_in);
        RepackConvWeight(wv, c_out, c_in, kernel, /*out_major=*/true, w_t);
      }
      // Parallel over batch: each thread owns a disjoint x[b] block.
      ParallelFor(0, batch, [&](int64_t begin, int64_t end) {
        for (int64_t b = begin; b < end; ++b) {
          for (int64_t s = 0; s < steps; ++s) {
            const float* g_bt = gout + (b * steps + s) * nodes * c_out;
            for (int64_t kk = 0; kk < kernel; ++kk) {
              const int64_t t_in = t0 + s - (kernel - 1 - kk) * dilation;
              if (t_in < 0) continue;
              float* gx_bt = gx + (b * time + t_in) * nodes * c_in;
              if (w_t != nullptr) {
                vk->rows_axpy(g_bt, c_out, 1, w_t + kk * c_out * c_in, gx_bt,
                              nodes, c_out, c_in);
                continue;
              }
              for (int64_t n = 0; n < nodes; ++n) {
                const float* g_row = g_bt + n * c_out;
                float* gx_row = gx_bt + n * c_in;
                for (int64_t co = 0; co < c_out; ++co) {
                  const float g = g_row[co];
                  if (g == 0.0f) continue;
                  const float* w_row = wv + (co * c_in) * kernel;
                  for (int64_t ci = 0; ci < c_in; ++ci) {
                    gx_row[ci] += g * w_row[ci * kernel + kk];
                  }
                }
              }
            }
          }
        }
      });
    }
  }

 private:
  // dW under SIMD dispatch. gw is copied into a [K][C_out][C_in] scratch,
  // where row (kk, co) takes its (b, s, n) terms in the scalar loop's order,
  // and is copied back. Rows have one owner each, so the split over
  // (kk, co) keeps every element's order.
  void WeightGradVector(const simd::KernelTable* vk, const float* gout,
                        const float* xv, float* gw) const {
    const int64_t batch = batch_, time = time_, steps = steps_,
                  nodes = nodes_, c_in = c_in_, c_out = c_out_,
                  kernel = kernel_;
    const int64_t t0 = time - steps;
    float* acc = TlConvScratch(1, kernel * c_out * c_in);
    RepackConvWeight(gw, c_out, c_in, kernel, /*out_major=*/true, acc);
    ParallelFor(0, kernel * c_out, [&](int64_t begin, int64_t end) {
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t s = 0; s < steps; ++s) {
          const float* g_bt = gout + (b * steps + s) * nodes * c_out;
          for (int64_t kk = begin / c_out; kk * c_out < end; ++kk) {
            const int64_t t_in = t0 + s - (kernel - 1 - kk) * dilation_;
            if (t_in < 0) continue;
            const float* x_bt = xv + (b * time + t_in) * nodes * c_in;
            const int64_t co_begin = std::max(begin - kk * c_out, int64_t{0});
            const int64_t co_end = std::min(end - kk * c_out, c_out);
            // Row co of this tap: += sum_n dY[n, co] * x[n, :].
            vk->rows_axpy(g_bt + co_begin, 1, c_out, x_bt,
                          acc + (kk * c_out + co_begin) * c_in,
                          co_end - co_begin, nodes, c_in);
          }
        }
      }
    });
    for (int64_t co = 0; co < c_out; ++co) {
      for (int64_t ci = 0; ci < c_in; ++ci) {
        for (int64_t kk = 0; kk < kernel; ++kk) {
          gw[(co * c_in + ci) * kernel + kk] =
              acc[(kk * c_out + co) * c_in + ci];
        }
      }
    }
  }

  int64_t batch_, time_, steps_, nodes_, c_in_, c_out_, kernel_;
  int dilation_;
};

}  // namespace

Tensor Conv1dTime(const Tensor& xin, const Tensor& win, const Tensor& bin,
                  int dilation, int64_t out_steps) {
  STSM_PROF_SCOPE("conv1d.fwd");
  STSM_CHECK(xin.defined() && win.defined());
  // The window kernel below addresses all three operands linearly.
  if (!xin.impl()->is_contiguous()) STSM_PROF_COUNT("contiguous.via_conv", 1);
  const Tensor x = Contiguous(xin);
  const Tensor weight = Contiguous(win);
  const Tensor bias = bin.defined() ? Contiguous(bin) : bin;
  STSM_CHECK_EQ(x.ndim(), 4) << "Conv1dTime expects [B, T, N, C_in]";
  STSM_CHECK_EQ(weight.ndim(), 3) << "weight must be [C_out, C_in, K]";
  STSM_CHECK_GE(dilation, 1);
  const int64_t batch = x.shape()[0];
  const int64_t time = x.shape()[1];
  const int64_t nodes = x.shape()[2];
  const int64_t c_in = x.shape()[3];
  const int64_t c_out = weight.shape()[0];
  STSM_CHECK_EQ(weight.shape()[1], c_in);
  const int64_t kernel = weight.shape()[2];
  if (bias.defined()) {
    STSM_CHECK_EQ(bias.numel(), c_out);
  }
  const int64_t steps = out_steps < 0 ? time : out_steps;
  STSM_CHECK(steps >= 1 && steps <= time)
      << "out_steps " << out_steps << " of " << time;
  const int64_t t0 = time - steps;

  const Shape out_shape({batch, steps, nodes, c_out});
  std::vector<ImplPtr> inputs = {x.impl(), weight.impl()};
  if (bias.defined()) inputs.push_back(bias.impl());
  const simd::KernelTable* vk = simd::Active();
  // The scalar kernel accumulates window contributions, so it must start
  // zeroed; the vector kernel writes every element.
  ImplPtr result =
      internal::MakeResult(out_shape, inputs, /*zero=*/vk == nullptr);

  const float* xd = x.data();
  const float* wd = weight.data();
  const float* biasd = bias.defined() ? bias.data() : nullptr;
  float* out = result->data();
  float* w_packed = nullptr;  // [K][C_in][C_out] for the vector kernel.
  if (vk != nullptr) {
    w_packed = TlConvScratch(0, kernel * c_in * c_out);
    RepackConvWeight(wd, c_out, c_in, kernel, /*out_major=*/false, w_packed);
  }

  // out[b,s,n,co] = bias[co]
  //   + sum_{kk,ci} w[co,ci,kk] * x[b, t0 + s - (K-1-kk)*dilation, n, ci]
  ParallelFor(0, batch * steps, [&](int64_t begin, int64_t end) {
    for (int64_t bs = begin; bs < end; ++bs) {
      const int64_t b = bs / steps;
      const int64_t t = t0 + bs % steps;
      float* out_bt = out + bs * nodes * c_out;
      if (w_packed != nullptr) {
        vk->conv_time_rows(xd + b * time * nodes * c_in, w_packed, biasd,
                           out_bt, t, dilation, kernel, nodes, c_in, c_out);
        continue;
      }
      if (biasd != nullptr) {
        for (int64_t n = 0; n < nodes; ++n) {
          for (int64_t co = 0; co < c_out; ++co) {
            out_bt[n * c_out + co] = biasd[co];
          }
        }
      }
      for (int64_t kk = 0; kk < kernel; ++kk) {
        const int64_t t_in = t - (kernel - 1 - kk) * dilation;
        if (t_in < 0) continue;  // Left zero-padding (causal).
        const float* x_bt = xd + (b * time + t_in) * nodes * c_in;
        for (int64_t n = 0; n < nodes; ++n) {
          const float* x_row = x_bt + n * c_in;
          float* out_row = out_bt + n * c_out;
          for (int64_t co = 0; co < c_out; ++co) {
            const float* w_row = wd + (co * c_in) * kernel;
            float acc = 0.0f;
            for (int64_t ci = 0; ci < c_in; ++ci) {
              acc += w_row[ci * kernel + kk] * x_row[ci];
            }
            out_row[co] += acc;
          }
        }
      }
    }
  });

  if (result->requires_grad) {
    result->grad_fn = std::make_shared<Conv1dNode>(
        x.impl(), weight.impl(), bias.defined() ? bias.impl() : nullptr,
        batch, time, steps, nodes, c_in, c_out, kernel, dilation);
  }
  return Tensor(std::move(result));
}

Tensor Dropout(const Tensor& x, float p, Rng* rng) {
  STSM_CHECK(x.defined());
  if (p <= 0.0f) return x;
  STSM_CHECK_LT(p, 1.0f);
  STSM_CHECK(rng != nullptr);
  const int64_t n = x.numel();
  std::vector<float> mask(n);
  const float scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  return Mul(x, Tensor::FromVector(x.shape(), std::move(mask)));
}

// ---- In-place ops -----------------------------------------------------------
//
// These mutate the target's buffer directly and never record autograd state,
// so the target must be graph-free (no grad_fn). That covers the intended
// call sites: optimizer parameter/velocity updates and gradient scaling
// through Tensor::GradView(), both of which operate on leaves.

namespace {

void CheckInPlaceTarget(const Tensor& x, const char* op) {
  STSM_CHECK(x.defined());
  STSM_CHECK(x.impl()->grad_fn == nullptr)
      << op << "requires a graph-free tensor; this one has a grad_fn";
}

}  // namespace

void AddScaledInPlace(Tensor x, const Tensor& y, float alpha) {
  STSM_PROF_SCOPE("add_scaled_inplace");
  CheckInPlaceTarget(x, "AddScaledInPlace");
  STSM_CHECK(y.defined());
  STSM_CHECK(x.shape() == y.shape())
      << "AddScaledInPlace shape mismatch:" << x.shape().ToString() << "vs"
      << y.shape().ToString();
  const int64_t n = x.numel();
  float* xd = x.data();
  const float* yd = y.data();
  if (x.impl()->is_contiguous() && y.impl()->is_contiguous()) {
    const simd::KernelTable* vk = simd::Active();
    if (vk != nullptr) {
      vk->axpy(xd, yd, alpha, n);
    } else {
      for (int64_t i = 0; i < n; ++i) xd[i] += alpha * yd[i];
    }
    return;
  }
  const IndexTable tx = BuildPhysTable(*x.impl());
  const IndexTable ty = BuildPhysTable(*y.impl());
  for (int64_t i = 0; i < n; ++i) {
    xd[PhysAt(tx, i)] += alpha * yd[PhysAt(ty, i)];
  }
}

void AddInPlace(Tensor x, const Tensor& y) {
  AddScaledInPlace(std::move(x), y, 1.0f);
}

void MulScalarInPlace(Tensor x, float value) {
  STSM_PROF_SCOPE("mul_scalar_inplace");
  CheckInPlaceTarget(x, "MulScalarInPlace");
  const int64_t n = x.numel();
  float* xd = x.data();
  if (x.impl()->is_contiguous()) {
    const simd::KernelTable* vk = simd::Active();
    if (vk != nullptr) {
      vk->scal(xd, value, n);
    } else {
      for (int64_t i = 0; i < n; ++i) xd[i] *= value;
    }
    return;
  }
  const IndexTable tx = BuildPhysTable(*x.impl());
  for (int64_t i = 0; i < n; ++i) xd[(*tx)[i]] *= value;
}

void ReluInPlace(Tensor x) {
  STSM_PROF_SCOPE("relu_inplace");
  CheckInPlaceTarget(x, "ReluInPlace");
  const int64_t n = x.numel();
  float* xd = x.data();
  if (x.impl()->is_contiguous()) {
    const simd::KernelTable* vk = simd::Active();
    if (vk != nullptr) {
      vk->relu_inplace(xd, n);
    } else {
      for (int64_t i = 0; i < n; ++i) xd[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
    }
    return;
  }
  const IndexTable tx = BuildPhysTable(*x.impl());
  for (int64_t i = 0; i < n; ++i) {
    float& v = xd[(*tx)[i]];
    v = v > 0.0f ? v : 0.0f;
  }
}

}  // namespace stsm
