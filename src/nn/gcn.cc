#include "nn/gcn.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/thread_pool.h"
#include "tensor/autograd.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace stsm {

namespace {

using ImplPtr = std::shared_ptr<TensorImpl>;

// One GCNL application: `slices` [nodes, in] matrices of P = Â·Z (Z's batch
// dimensions flattened), each mapped to [nodes, out].
struct GcnlDims {
  int64_t slices;
  int64_t nodes;
  int64_t in;
  int64_t out;

  int64_t rows() const { return slices * nodes; }
};

// Runs fn(rep, slice, i0, rows) for each rep < repeats over the (slice,
// kGemmRowBlock-row block) grid — MatMul's partition of a product whose left
// operand is not shared, so each GEMM below packs the same panels as the
// composed graph's MatMul did.
template <typename Fn>
void ForEachRowBlock(const GcnlDims& d, int64_t repeats, const Fn& fn) {
  const int64_t blocks = (d.nodes + kGemmRowBlock - 1) / kGemmRowBlock;
  const int64_t tasks = d.slices * blocks;
  ParallelFor(0, repeats * tasks, [&](int64_t begin, int64_t end) {
    for (int64_t t = begin; t < end; ++t) {
      const int64_t i0 = (t % blocks) * kGemmRowBlock;
      fn(t / tasks, (t % tasks) / blocks, i0,
         std::min(kGemmRowBlock, d.nodes - i0));
    }
  });
}

// g[i] += y[i] * z[i]: Mul's gradient kernel.
void MulAcc(const simd::KernelTable* vk, float* g, const float* y,
            const float* z, int64_t n) {
  if (vk != nullptr) {
    vk->mul_acc(g, y, z, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) g[i] += y[i] * z[i];
}

// gb[:] += gy[r, :] for r ascending: Add's gradient for a bias row.
void BiasGrad(const simd::KernelTable* vk, const float* gy, float* gb,
              int64_t rows, int64_t c) {
  if (vk != nullptr) {
    const float one = 1.0f;
    vk->rows_axpy(&one, 0, 0, gy, gb, 1, rows, c);
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < c; ++j) gb[j] += gy[r * c + j] * 1.0f;
  }
}

class GcnlNode : public autograd::Node {
 public:
  // inputs: {x, W_v, b_v, W_g, b_g}. `p` is Â·x, `value` is P·W_v + b_v and
  // `sig` is sigmoid(P·W_g + b_g), all contiguous.
  GcnlNode(std::vector<ImplPtr> inputs, Adjacency adj, Tensor p, Tensor value,
           Tensor sig, GcnlDims dims)
      : Node(std::move(inputs)),
        adj_(std::move(adj)),
        p_(std::move(p)),
        value_(std::move(value)),
        sig_(std::move(sig)),
        d_(dims) {}

  const char* name() const override { return "gcnl"; }

 protected:
  void Apply(TensorImpl* output) override {
    STSM_PROF_SCOPE("gcnl.bwd");
    TensorImpl* x = inputs_[0].get();
    TensorImpl* wv = inputs_[1].get();
    TensorImpl* bv = inputs_[2].get();
    TensorImpl* wg = inputs_[3].get();
    TensorImpl* bg = inputs_[4].get();
    const GcnlDims& d = d_;
    const int64_t total = d.rows() * d.out;
    const float* gout = output->grad();
    const float* s = sig_.data();
    const simd::KernelTable* vk = simd::Active();

    // Mul: each factor's gradient lands in a zeroed buffer, as in the
    // composed graph, so a -0 product still reads +0.
    Tensor dvalue_t = Tensor::Zeros(Shape({total}));
    Tensor dgate_t = Tensor::Zeros(Shape({total}));
    float* dvalue = dvalue_t.data();
    float* dgate = dgate_t.data();
    MulAcc(vk, dvalue, gout, s, total);
    MulAcc(vk, dgate, gout, value_.data(), total);
    // Sigmoid: 0 + dσ · σ(1 - σ), Sigmoid's backward into a zeroed buffer.
    for (int64_t i = 0; i < total; ++i) {
      dgate[i] = 0.0f + dgate[i] * (s[i] * (1.0f - s[i]));
    }

    if (bv->requires_grad) {
      bv->EnsureGrad();
      BiasGrad(vk, dvalue, bv->grad(), d.rows(), d.out);
    }
    if (bg->requires_grad) {
      bg->EnsureGrad();
      BiasGrad(vk, dgate, bg->grad(), d.rows(), d.out);
    }

    // dW += Pᵀ·dY slice by slice, in slice order (MatMul's shared-weight
    // backward); the value and gate gradients run against one packing of
    // each slice's Pᵀ.
    if (wv->requires_grad || wg->requires_grad) {
      GemmSlice targets[2];
      int64_t count = 0;
      const float* sources[2];
      if (wv->requires_grad) {
        wv->EnsureGrad();
        targets[count] = {nullptr, wv->grad()};
        sources[count++] = dvalue;
      }
      if (wg->requires_grad) {
        wg->EnsureGrad();
        targets[count] = {nullptr, wg->grad()};
        sources[count++] = dgate;
      }
      const float* p = p_.data();
      const int64_t blocks = (d.in + kGemmRowBlock - 1) / kGemmRowBlock;
      ParallelFor(0, blocks, [&](int64_t begin, int64_t end) {
        for (int64_t blk = begin; blk < end; ++blk) {
          const int64_t k0 = blk * kGemmRowBlock;
          const int64_t rows = std::min(kGemmRowBlock, d.in - k0);
          for (int64_t slice = 0; slice < d.slices; ++slice) {
            GemmSlice list[2];
            for (int64_t t = 0; t < count; ++t) {
              list[t] = {sources[t] + slice * d.nodes * d.out,
                         targets[t].c + k0 * d.out};
            }
            PackedGemmShared(rows, d.out, d.nodes,                     //
                             p + slice * d.nodes * d.in + k0,          //
                             DType::kF32, 1, d.in,                     // Pᵀ
                             DType::kF32, d.out, 1, list, count,       //
                             d.out, 1, /*accumulate=*/true);
          }
        }
      });
    }

    if (!x->requires_grad) return;
    // dP = dY·Wᵀ into zeroed buffers (MatMul's backward for its left
    // operand), then x.grad += Âᵀ·dP: gate first, as the graph walk ran the
    // composed graph's two propagation nodes.
    Tensor dpg_t = Tensor::Zeros(Shape({d.rows() * d.in}));
    Tensor dpv_t = Tensor::Zeros(Shape({d.rows() * d.in}));
    float* dp[2] = {dpg_t.data(), dpv_t.data()};
    const float* dy[2] = {dgate, dvalue};
    const float* w[2] = {wg->data(), wv->data()};
    ForEachRowBlock(d, 2, [&](int64_t which, int64_t slice, int64_t i0,
                              int64_t rows) {
      const int64_t r0 = slice * d.nodes + i0;
      PackedGemm(rows, d.in, d.out,                  //
                 dy[which] + r0 * d.out, d.out, 1,   //
                 w[which], 1, d.out,                 // Wᵀ
                 dp[which] + r0 * d.in, d.in, 1,
                 /*accumulate=*/true);
    });
    const Tensor x_handle(inputs_[0]);
    adj_.AccumulateInputGrad(x_handle, dp[0]);
    adj_.AccumulateInputGrad(x_handle, dp[1]);
  }

  void ReleaseSaved() override {
    adj_ = Adjacency();
    p_ = Tensor();
    value_ = Tensor();
    sig_ = Tensor();
  }

 private:
  Adjacency adj_;
  Tensor p_;
  Tensor value_;
  Tensor sig_;
  GcnlDims d_;
};

}  // namespace

GcnLayer::GcnLayer(int64_t in_features, int64_t out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::Uniform(Shape({in_features, out_features}), -bound, bound,
                            rng, /*requires_grad=*/true);
  bias_ = Tensor::Zeros(Shape({out_features}), /*requires_grad=*/true);
}

Tensor GcnLayer::Forward(const Adjacency& adj, const Tensor& x) const {
  STSM_PROF_SCOPE("gcn.fwd");
  STSM_CHECK(adj.defined());
  STSM_CHECK_EQ(adj.rows(), adj.cols());
  STSM_CHECK_EQ(x.shape()[-2], adj.rows());
  STSM_CHECK_EQ(x.shape()[-1], in_features_);
  // Â mixes the node dimension (MatMul or SpMM depending on the adjacency
  // representation); W mixes features. Batch dims broadcast. A bf16 weight
  // (serving) feeds the mixed-dtype GEMM; the bias widens at point of use.
  return Add(MatMul(adj.Apply(x), weight_), WidenToF32(bias_));
}

std::vector<Tensor> GcnLayer::Parameters() const { return {weight_, bias_}; }

GcnlLayer::GcnlLayer(int64_t in_features, int64_t out_features, Rng* rng)
    : value_(in_features, out_features, rng),
      gate_(in_features, out_features, rng) {}

Tensor GcnlLayer::Forward(const Adjacency& adj, const Tensor& x) const {
  STSM_PROF_SCOPE("gcnl.fwd");
  STSM_CHECK(adj.defined());
  STSM_CHECK_EQ(adj.rows(), adj.cols());
  const Tensor& wv = value_.weight();
  const Tensor& wg = gate_.weight();
  GcnlDims d;
  d.nodes = adj.rows();
  d.in = wv.shape()[0];
  d.out = wv.shape()[1];
  STSM_CHECK_EQ(x.shape()[-2], d.nodes);
  STSM_CHECK_EQ(x.shape()[-1], d.in);
  // One B operand layout and dtype serves both weights (bf16 when serving
  // a reduced-precision model; it widens inside the GEMM's packing).
  STSM_CHECK(wv.dtype() == wg.dtype());
  STSM_CHECK(wv.strides() == wg.strides());

  // Propagate once. The node below differentiates through Â itself, so the
  // product is not recorded.
  Tensor p;
  {
    NoGradGuard no_grad;
    p = adj.Apply(x);
  }
  d.slices = p.numel() / (d.nodes * d.in);
  std::vector<int64_t> out_dims = p.shape().dims();
  out_dims.back() = d.out;
  const Shape out_shape(std::move(out_dims));

  ImplPtr result = internal::MakeResult(
      out_shape,
      {x.impl(), wv.impl(), value_.bias().impl(), wg.impl(),
       gate_.bias().impl()},
      /*zero=*/false);
  const bool record = result->requires_grad;
  STSM_CHECK(!record || adj.is_sparse() || !adj.dense().requires_grad())
      << "GcnlLayer: the adjacency is a constant and gets no gradient";
  // Recording keeps value and σ(gate) for the backward; inference builds
  // the value in the output buffer and σ(gate) in scratch.
  Tensor value;
  if (record) value = Tensor(internal::MakeResult(out_shape, {}, false));
  Tensor sig(internal::MakeResult(out_shape, {}, false));
  float* out = result->data();
  float* val = record ? value.data() : out;
  float* sg = sig.data();
  const Tensor bias_v = WidenToF32(value_.bias());
  const Tensor bias_g = WidenToF32(gate_.bias());
  const float* bvd = bias_v.data();
  const float* bgd = bias_g.data();
  const float* pd = p.data();
  const void* wvd = wv.impl()->raw();
  const void* wgd = wg.impl()->raw();

  ForEachRowBlock(d, 1, [&](int64_t, int64_t slice, int64_t i0,
                            int64_t rows) {
    const int64_t r0 = slice * d.nodes + i0;
    const GemmSlice list[2] = {{wvd, val + r0 * d.out},
                               {wgd, sg + r0 * d.out}};
    PackedGemmShared(rows, d.out, d.in, pd + r0 * d.in, DType::kF32, d.in, 1,
                     wv.dtype(), wv.strides()[0], wv.strides()[1], list, 2,
                     d.out, 1, /*accumulate=*/false);
    // Eq. 7 on this block's rows: (P·W_v + b_v) ⊙ σ(P·W_g + b_g), each step
    // the same rounded operation as the Add, Sigmoid and Mul ops.
    for (int64_t r = r0; r < r0 + rows; ++r) {
      float* v = val + r * d.out;
      float* g = sg + r * d.out;
      float* o = out + r * d.out;
      for (int64_t j = 0; j < d.out; ++j) {
        v[j] = v[j] + bvd[j];
        g[j] = internal::Logistic(g[j] + bgd[j]);
        o[j] = v[j] * g[j];
      }
    }
  });

  if (record) {
    result->grad_fn = std::make_shared<GcnlNode>(
        std::vector<ImplPtr>{x.impl(), wv.impl(), value_.bias().impl(),
                             wg.impl(), gate_.bias().impl()},
        adj, std::move(p), std::move(value), sig, d);
  }
  return Tensor(std::move(result));
}

std::vector<Tensor> GcnlLayer::Parameters() const {
  return ConcatParameters({value_.Parameters(), gate_.Parameters()});
}

}  // namespace stsm
