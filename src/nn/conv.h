// Dilated causal temporal convolution layer over [B, T, N, C] tensors.

#ifndef STSM_NN_CONV_H_
#define STSM_NN_CONV_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace stsm {

// Wraps Conv1dTime (tensor/ops.h): a causal dilated 1-D convolution along the
// time axis with left zero-padding. This is the building block of the TCN in
// STSM Eq. (5).
class TemporalConv : public Module {
 public:
  TemporalConv(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               int dilation, Rng* rng, bool use_bias = true);

  // x: [B, T, N, in_channels] -> [B, S, N, out_channels]: the last S =
  // out_steps outputs (all T when out_steps is negative).
  Tensor Forward(const Tensor& x, int64_t out_steps = -1) const;

  std::vector<Tensor> Parameters() const override;

  int dilation() const { return dilation_; }
  int64_t kernel_size() const { return kernel_size_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int dilation_;
  Tensor weight_;  // [out, in, K]
  Tensor bias_;    // [out]
};

}  // namespace stsm

#endif  // STSM_NN_CONV_H_
