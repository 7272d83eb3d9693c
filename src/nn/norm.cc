#include "nn/norm.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/prof.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace stsm {

namespace {

using ImplPtr = std::shared_ptr<TensorImpl>;

// The rows LayerNorm normalises: row r of a (possibly strided) [..., C]
// input starts at physical offset start(r) and steps by `stride`.
struct NormRows {
  int64_t rows = 0;
  int64_t c = 0;
  int64_t stride = 1;
  bool contiguous = true;

  explicit NormRows(const TensorImpl& x)
      : rows(x.shape.numel() / x.shape[-1]),
        c(x.shape[-1]),
        stride(x.strides.back()),
        contiguous(x.is_contiguous()) {}

  int64_t start(const TensorImpl& x, int64_t r) const {
    return contiguous ? r * c : x.PhysicalIndex(r * c);
  }
};

// A row's elements as a unit-stride array: the row itself, or `scratch`
// holding a copy of it.
const float* RowOf(const float* base, const NormRows& g,
                   std::vector<float>* scratch) {
  if (g.stride == 1) return base;
  for (int64_t j = 0; j < g.c; ++j) (*scratch)[j] = base[j * g.stride];
  return scratch->data();
}

// The sum Sum(x, -1) takes of one row: the lane-split kernel under SIMD
// dispatch, the ordered double sum otherwise.
double RowSum(const simd::KernelTable* vk, const float* row, int64_t n) {
  if (vk != nullptr) return vk->sum(row, n);
  double acc = 0.0;
  for (int64_t j = 0; j < n; ++j) acc += row[j];
  return acc;
}

// Backward of the one-node LayerNorm. Every gradient is the one the composed
// graph (Mean, Sub, Square, Mean, Add, Sqrt, Div, Mul, Add) accumulates, op
// for op: each intermediate gradient starts at +0.0 and takes its terms in
// the graph's order, and x's gradient takes all of Sub's terms before all of
// Sum's, so an input whose elements share storage still sums in that order.
// The forward's per-row mean and standard deviation are kept; the centred
// and normalised rows are recomputed from x, bit for bit.
class LayerNormNode : public autograd::Node {
 public:
  // inputs: {x, gamma, beta}. stats: [rows, 2] (mean, sd) per row.
  LayerNormNode(ImplPtr x, ImplPtr gamma, ImplPtr beta, Tensor stats)
      : Node({std::move(x), std::move(gamma), std::move(beta)}),
        stats_(std::move(stats)) {}

  const char* name() const override { return "layer_norm"; }

 protected:
  void Apply(TensorImpl* output) override {
    STSM_PROF_SCOPE("layer_norm.bwd");
    TensorImpl* x = inputs_[0].get();
    TensorImpl* gamma = inputs_[1].get();
    TensorImpl* beta = inputs_[2].get();
    const NormRows g(*x);
    const int64_t c = g.c;
    const float cf = static_cast<float>(c);
    const float* xd = x->data();
    const float* gam = gamma->data();
    const float* stats = stats_.data();
    const float* gout = output->grad();
    float* ggamma = nullptr;
    float* gbeta = nullptr;
    if (gamma->requires_grad) {
      gamma->EnsureGrad();
      ggamma = gamma->grad();
    }
    if (beta->requires_grad) {
      beta->EnsureGrad();
      gbeta = beta->grad();
    }
    const bool need_x = x->requires_grad;
    // dcen for every element and dS1 (the gradient of the row sum) per row,
    // applied to x once all rows are done.
    Tensor dcen_t;
    Tensor dsum_t;
    if (need_x) {
      dcen_t = Tensor(internal::MakeResult(Shape({g.rows * c}), {}, false));
      dsum_t = Tensor(internal::MakeResult(Shape({g.rows}), {}, false));
    }
    std::vector<float> scratch(static_cast<size_t>(c));
    std::vector<float> cen(static_cast<size_t>(c));
    for (int64_t r = 0; r < g.rows; ++r) {
      const float* go = gout + r * c;
      const float mean = stats[2 * r];
      const float sd = stats[2 * r + 1];
      const float* xr = RowOf(xd + g.start(*x, r), g, &scratch);
      for (int64_t j = 0; j < c; ++j) cen[j] = xr[j] - mean;
      // Add(prod, beta): beta's rows in order; prod's gradient 0 + go.
      if (gbeta != nullptr) {
        for (int64_t j = 0; j < c; ++j) gbeta[j] += go[j] * 1.0f;
      }
      // Mul(nrm, gamma): gamma takes dprod * nrm.
      if (ggamma != nullptr) {
        for (int64_t j = 0; j < c; ++j) {
          const float dprod = 0.0f + go[j] * 1.0f;
          ggamma[j] += dprod * (cen[j] / sd);
        }
      }
      if (!need_x) continue;
      float* dcen = dcen_t.data() + r * c;
      // Div(cen, sd): cen takes dnrm / sd, sd the row sum of
      // dnrm * (-cen / sd²).
      const float inv_sd = 1.0f / sd;
      float dsd = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        const float dprod = 0.0f + go[j] * 1.0f;
        const float dnrm = 0.0f + dprod * gam[j];
        dcen[j] = 0.0f + dnrm * inv_sd;
        dsd += dnrm * (-cen[j] / (sd * sd));
      }
      // Sqrt, Add(eps), Div(C), Sum: one value per row.
      const float dve = 0.0f + dsd * (sd > 0.0f ? 0.5f / sd : 0.0f);
      const float dvar = 0.0f + dve * 1.0f;
      const float dsum_sq = 0.0f + dvar * (1.0f / cf);
      const float dsq = 0.0f + dsum_sq;
      // Square(cen) adds to cen's gradient; Sub(x, mean) hands it to x and
      // its negated row sum to the mean.
      float dmean = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        dcen[j] += dsq * (2.0f * cen[j]);
        dmean += dcen[j] * -1.0f;
      }
      dsum_t.data()[r] = 0.0f + dmean * (1.0f / cf);
    }
    if (!need_x) return;
    x->EnsureGrad();
    float* gx = x->grad();
    const float* dcen = dcen_t.data();
    const float* dsum = dsum_t.data();
    for (int64_t r = 0; r < g.rows; ++r) {
      float* row = gx + g.start(*x, r);
      const float* d = dcen + r * c;
      for (int64_t j = 0; j < c; ++j) row[j * g.stride] += d[j] * 1.0f;
    }
    for (int64_t r = 0; r < g.rows; ++r) {
      float* row = gx + g.start(*x, r);
      for (int64_t j = 0; j < c; ++j) row[j * g.stride] += dsum[r];
    }
  }

  void ReleaseSaved() override { stats_ = Tensor(); }

 private:
  Tensor stats_;
};

}  // namespace

LayerNorm::LayerNorm(int64_t features, float epsilon)
    : features_(features), epsilon_(epsilon) {
  gamma_ = Tensor::Ones(Shape({features}), /*requires_grad=*/true);
  beta_ = Tensor::Zeros(Shape({features}), /*requires_grad=*/true);
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  STSM_PROF_SCOPE("layer_norm.fwd");
  STSM_CHECK_EQ(x.shape()[-1], features_);
  const NormRows g(*x.impl());
  const int64_t c = g.c;
  const float cf = static_cast<float>(c);
  ImplPtr result = internal::MakeResult(
      x.shape(), {x.impl(), gamma_.impl(), beta_.impl()}, /*zero=*/false);
  const bool record = result->requires_grad;
  Tensor stats;
  if (record) {
    stats = Tensor(internal::MakeResult(Shape({g.rows, 2}), {}, false));
  }
  // Scale/shift widen bf16 serving weights (identity handles for fp32).
  const Tensor gamma_f32 = WidenToF32(gamma_);
  const Tensor beta_f32 = WidenToF32(beta_);
  const float* gam = gamma_f32.data();
  const float* bet = beta_f32.data();
  const simd::KernelTable* vk = simd::Active();
  const float* xd = x.data();
  float* out = result->data();
  std::vector<float> scratch(static_cast<size_t>(c));
  std::vector<float> cen(static_cast<size_t>(c));
  std::vector<float> sq(static_cast<size_t>(c));
  // Per row, the composed graph's ops in its order, each element the same
  // rounded operation: mean = Sum / C; cen = x - mean; var = Sum(cen²) / C;
  // sd = sqrt(var + eps); y = cen / sd * gamma + beta. Under SIMD dispatch
  // the elementwise steps run on the ops' own kernels (bitwise the scalar
  // loops), which matters most for the division.
  for (int64_t r = 0; r < g.rows; ++r) {
    const float* xr = RowOf(xd + g.start(*x.impl(), r), g, &scratch);
    const float mean = static_cast<float>(RowSum(vk, xr, c)) / cf;
    if (vk != nullptr) {
      vk->sub_scalar(xr, cen.data(), c, mean);
      vk->square(cen.data(), sq.data(), c, 0.0f);
    } else {
      for (int64_t j = 0; j < c; ++j) {
        cen[j] = xr[j] - mean;
        sq[j] = cen[j] * cen[j];
      }
    }
    const float var = static_cast<float>(RowSum(vk, sq.data(), c)) / cf;
    const float sd = std::sqrt(var + epsilon_);
    float* y = out + r * c;
    if (vk != nullptr) {
      vk->div_scalar(cen.data(), y, c, sd);
      vk->mul(y, gam, y, c);
      vk->add(y, bet, y, c);
    } else {
      for (int64_t j = 0; j < c; ++j) {
        const float nrm = cen[j] / sd;
        const float scaled = nrm * gam[j];
        y[j] = scaled + bet[j];
      }
    }
    if (record) {
      stats.data()[2 * r] = mean;
      stats.data()[2 * r + 1] = sd;
    }
  }

  if (record) {
    result->grad_fn = std::make_shared<LayerNormNode>(
        x.impl(), gamma_.impl(), beta_.impl(), std::move(stats));
  }
  return Tensor(std::move(result));
}

std::vector<Tensor> LayerNorm::Parameters() const { return {gamma_, beta_}; }

}  // namespace stsm
