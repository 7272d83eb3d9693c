#include "nn/conv.h"

#include <cmath>

#include "common/check.h"
#include "tensor/ops.h"

namespace stsm {

TemporalConv::TemporalConv(int64_t in_channels, int64_t out_channels,
                           int64_t kernel_size, int dilation, Rng* rng,
                           bool use_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation) {
  STSM_CHECK_GT(in_channels, 0);
  STSM_CHECK_GT(out_channels, 0);
  STSM_CHECK_GT(kernel_size, 0);
  STSM_CHECK_GE(dilation, 1);
  const float fan_in = static_cast<float>(in_channels * kernel_size);
  const float bound = std::sqrt(1.0f / fan_in);
  weight_ = Tensor::Uniform(Shape({out_channels, in_channels, kernel_size}),
                            -bound, bound, rng, /*requires_grad=*/true);
  if (use_bias) {
    bias_ = Tensor::Zeros(Shape({out_channels}), /*requires_grad=*/true);
  }
}

Tensor TemporalConv::Forward(const Tensor& x, int64_t out_steps) const {
  STSM_CHECK_EQ(x.shape()[-1], in_channels_);
  // Conv1dTime walks raw fp32 — bf16 serving weights widen at the point of
  // use (the kernel tensor is tiny; identity handles for fp32).
  return Conv1dTime(x, WidenToF32(weight_), WidenToF32(bias_), dilation_,
                    out_steps);
}

std::vector<Tensor> TemporalConv::Parameters() const {
  if (bias_.defined()) return {weight_, bias_};
  return {weight_};
}

}  // namespace stsm
