#include "nn/dropout.h"

#include "tensor/ops.h"

namespace stsm {

DropoutLayer::DropoutLayer(float p, uint64_t seed) : p_(p), rng_(seed) {}

Tensor DropoutLayer::Forward(const Tensor& x) const {
  if (!active()) return x;
  return Dropout(x, p_, &rng_);
}

}  // namespace stsm
