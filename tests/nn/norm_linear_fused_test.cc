// LayerNorm's one-pass node and Linear's one-pass bias against the composed
// graphs they replace: LayerNorm as Mean, Sub, Square, Mean, Add, Sqrt, Div,
// Mul and Add over the layer's own gamma and beta, and Linear as
// Add(MatMul(x, W), b). Outputs and every gradient — the input (through a
// strided base), gamma, beta, W and b — must agree bit for bit, in both
// dispatch modes, for B in {1, 8}, and for a bf16-served forward.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "nn/precision.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

constexpr float kEpsilon = 1e-5f;

Tensor LayerNormComposed(const LayerNorm& norm, const Tensor& x) {
  const std::vector<Tensor> p = norm.Parameters();  // {gamma, beta}
  const int last = x.ndim() - 1;
  const Tensor mean = Mean(x, last, /*keepdim=*/true);
  const Tensor centered = Sub(x, mean);
  const Tensor variance = Mean(Square(centered), last, /*keepdim=*/true);
  const Tensor normalised = Div(centered, Sqrt(Add(variance, kEpsilon)));
  return Add(Mul(normalised, WidenToF32(p[0])), WidenToF32(p[1]));
}

Tensor LinearComposed(const Linear& linear, const Tensor& x) {
  const std::vector<Tensor> p = linear.Parameters();  // {weight, bias}
  if (!x.is_contiguous()) return Add(MatMul(x, p[0]), WidenToF32(p[1]));
  const Tensor flat =
      Reshape(x, Shape({x.numel() / x.shape()[-1], x.shape()[-1]}));
  std::vector<int64_t> out_dims = x.shape().dims();
  out_dims.back() = linear.out_features();
  return Reshape(Add(MatMul(flat, p[0]), WidenToF32(p[1])), Shape(out_dims));
}

void FillRandom(const Tensor& t, std::mt19937* rng, float lo, float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  float* d = t.impl()->data();
  for (int64_t i = 0; i < t.numel(); ++i) d[i] = dist(*rng);
}

void ExpectSameBits(const float* a, const float* b, int64_t n,
                    const std::string& what) {
  ASSERT_NE(a, nullptr) << what;
  ASSERT_NE(b, nullptr) << what;
  ASSERT_EQ(std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)), 0)
      << what;
}

struct Case {
  int64_t batch = 8;
  bool transposed = false;  // Input is a transpose view (last-dim stride T).
  bool specials = false;    // -0.0 in the input, NaN in the upstream weight.
};

std::string Describe(const Case& c, bool vec) {
  return "B=" + std::to_string(c.batch) +
         (c.transposed ? " transposed" : " time-slice") +
         (c.specials ? " specials" : "") + (vec ? " simd" : " scalar");
}

// The block under test: Linear -> LayerNorm -> Linear, plus a residual of
// the strided input, as a transformer block composes them.
struct Layers {
  Linear in;
  LayerNorm norm;
  Linear out;
};

struct Outcome {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

Outcome RunCase(bool fused, const Case& c, const Layers& l,
                const std::vector<float>& base_values,
                const std::vector<float>& upstream) {
  constexpr int64_t kTime = 6, kChannels = 16;
  for (const Module* m : {static_cast<const Module*>(&l.in),
                          static_cast<const Module*>(&l.norm),
                          static_cast<const Module*>(&l.out)}) {
    for (Tensor p : m->Parameters()) p.ZeroGrad();
  }
  // The input is a strided view of `base` either way: the last 4 of 6 + 2
  // time steps, or the transpose of a [B, C, T] base.
  const Shape base_shape = c.transposed
                               ? Shape({c.batch, kChannels, kTime})
                               : Shape({c.batch, kTime + 2, kChannels});
  Tensor base =
      Tensor::FromVector(base_shape, std::vector<float>(base_values))
          .set_requires_grad(true);
  const Tensor x =
      c.transposed ? Transpose(base, 1, 2) : Slice(base, 1, 2, kTime + 2);
  const auto norm = [&](const Tensor& t) {
    return fused ? l.norm.Forward(t) : LayerNormComposed(l.norm, t);
  };
  const auto linear = [&](const Linear& layer, const Tensor& t) {
    return fused ? layer.Forward(t) : LinearComposed(layer, t);
  };
  // LayerNorm and Linear straight on the strided input, then on contiguous
  // tensors; x feeds three consumers, so its gradient order is pinned by
  // the graph walk.
  const Tensor h = Add(Add(x, linear(l.out, norm(linear(l.in, norm(x))))),
                       linear(l.in, x));
  const Tensor w = Tensor::FromVector(h.shape(), std::vector<float>(upstream));
  Sum(Mul(h, w)).Backward();
  Outcome r;
  r.out.assign(h.data(), h.data() + h.numel());
  r.grads.emplace_back(base.grad_data(), base.grad_data() + base.numel());
  for (const Module* m : {static_cast<const Module*>(&l.in),
                          static_cast<const Module*>(&l.norm),
                          static_cast<const Module*>(&l.out)}) {
    for (const Tensor& p : m->Parameters()) {
      r.grads.emplace_back(p.grad_data(), p.grad_data() + p.numel());
    }
  }
  return r;
}

void CheckCase(const Case& c) {
  std::mt19937 rng(static_cast<uint32_t>(c.batch * 7 + c.transposed * 100 +
                                         c.specials * 1000));
  Rng init(3);
  const Layers l{Linear(16, 16, &init), LayerNorm(16), Linear(16, 16, &init)};
  // Non-trivial gamma, beta and biases.
  for (const Module* m : {static_cast<const Module*>(&l.in),
                          static_cast<const Module*>(&l.norm),
                          static_cast<const Module*>(&l.out)}) {
    for (const Tensor& p : m->Parameters()) FillRandom(p, &rng, -1.5f, 1.5f);
  }
  const int64_t base_numel = c.batch * 16 * (c.transposed ? 6 : 8);
  std::vector<float> base(static_cast<size_t>(base_numel));
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (float& v : base) v = dist(rng);
  std::vector<float> upstream(static_cast<size_t>(c.batch * 6 * 16));
  for (float& v : upstream) v = dist(rng);
  if (c.specials) {
    for (size_t i = 0; i < base.size(); i += 13) base[i] = -0.0f;
    for (size_t i = 0; i < upstream.size(); i += 7) upstream[i] = -0.0f;
    // One row of the input all zeros: variance 0, so sd = sqrt(eps).
    for (int64_t j = 0; j < 16; ++j) {
      base[static_cast<size_t>(c.transposed ? j * 6 : 2 * 16 + j)] = 0.0f;
    }
    upstream[upstream.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  }
  for (const bool vec : {false, true}) {
    if (vec && simd::Supported() == nullptr) continue;
    simd::SetDispatchForTesting(vec);
    const std::string what = Describe(c, vec);
    const Outcome fused = RunCase(true, c, l, base, upstream);
    const Outcome composed = RunCase(false, c, l, base, upstream);
    ExpectSameBits(fused.out.data(), composed.out.data(),
                   static_cast<int64_t>(fused.out.size()), what + " output");
    ASSERT_EQ(fused.grads.size(), composed.grads.size());
    for (size_t g = 0; g < fused.grads.size(); ++g) {
      ASSERT_EQ(fused.grads[g].size(), composed.grads[g].size());
      ExpectSameBits(fused.grads[g].data(), composed.grads[g].data(),
                     static_cast<int64_t>(fused.grads[g].size()),
                     what + " gradient " + std::to_string(g));
    }
  }
  simd::ResetDispatch();
}

TEST(NormLinearFusedTest, MatchesComposedGraphBitwise) {
  for (const int64_t batch : {1, 8}) {
    for (const bool transposed : {false, true}) {
      for (const bool specials : {false, true}) {
        Case c;
        c.batch = batch;
        c.transposed = transposed;
        c.specials = specials;
        CheckCase(c);
      }
    }
  }
}

TEST(NormLinearFusedTest, ParameterGradientsWithoutInputGradient) {
  // A constant input: only gamma, beta, W and b take gradients.
  std::mt19937 rng(9);
  Rng init(4);
  const LayerNorm norm(16);
  const Linear linear(16, 16, &init);
  for (const Tensor& p : norm.Parameters()) FillRandom(p, &rng, -1.0f, 1.0f);
  for (const Tensor& p : linear.Parameters()) FillRandom(p, &rng, -1.0f, 1.0f);
  const Tensor x = Tensor::Zeros(Shape({3, 5, 16}));
  FillRandom(x, &rng, -2.0f, 2.0f);
  std::vector<std::vector<float>> grads[2];
  for (const bool fused : {true, false}) {
    for (Tensor p : norm.Parameters()) p.ZeroGrad();
    for (Tensor p : linear.Parameters()) p.ZeroGrad();
    const Tensor y = fused ? linear.Forward(norm.Forward(x))
                           : LinearComposed(linear, LayerNormComposed(norm, x));
    Sum(Mul(y, y)).Backward();
    for (const Tensor& p : norm.Parameters()) {
      grads[fused].emplace_back(p.grad_data(), p.grad_data() + p.numel());
    }
    for (const Tensor& p : linear.Parameters()) {
      grads[fused].emplace_back(p.grad_data(), p.grad_data() + p.numel());
    }
  }
  for (size_t g = 0; g < grads[0].size(); ++g) {
    ExpectSameBits(grads[0][g].data(), grads[1][g].data(),
                   static_cast<int64_t>(grads[0][g].size()),
                   "gradient " + std::to_string(g));
  }
}

TEST(NormLinearFusedTest, Bf16ServedForwardMatchesComposed) {
  // CastModuleForServing rounds the parameters to bf16; the nodes widen
  // gamma, beta and the bias per element, the composed graph through
  // WidenToF32. Both dispatch modes, contiguous and strided input.
  std::mt19937 rng(17);
  Rng init(5);
  LayerNorm norm(16);
  Linear linear(16, 16, &init);
  for (const Tensor& p : norm.Parameters()) FillRandom(p, &rng, -1.5f, 1.5f);
  for (const Tensor& p : linear.Parameters()) FillRandom(p, &rng, -1.5f, 1.5f);
  CastModuleForServing(&norm, DType::kBf16);
  CastModuleForServing(&linear, DType::kBf16);
  NoGradGuard no_grad;
  for (const int64_t batch : {1, 8}) {
    const Tensor base = Tensor::Zeros(Shape({batch, 16, 12}));
    FillRandom(base, &rng, -2.0f, 2.0f);
    for (const bool strided : {false, true}) {
      const Tensor x =
          strided ? Transpose(base, 1, 2) : Contiguous(Transpose(base, 1, 2));
      for (const bool vec : {false, true}) {
        if (vec && simd::Supported() == nullptr) continue;
        simd::SetDispatchForTesting(vec);
        const Tensor fused = linear.Forward(norm.Forward(x));
        const Tensor composed =
            LinearComposed(linear, LayerNormComposed(norm, x));
        ASSERT_EQ(fused.shape(), composed.shape());
        ExpectSameBits(fused.data(), composed.data(), fused.numel(),
                       "B=" + std::to_string(batch) +
                           (strided ? " strided" : " contiguous") +
                           (vec ? " simd" : " scalar"));
      }
    }
  }
  simd::ResetDispatch();
}

}  // namespace
}  // namespace stsm
