// Inverted dropout as a module: active only in training mode, identity in
// eval mode — the train/eval distinction served models rely on.

#ifndef STSM_NN_DROPOUT_H_
#define STSM_NN_DROPOUT_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace stsm {

// Wraps the stsm::Dropout op (tensor/ops.h; named *Layer to stay distinct
// from it): at training time zeroes entries with probability `p` and scales
// survivors by 1/(1-p); in eval mode (or at p <= 0) returns the input
// unchanged, so inference is deterministic and allocation-free.
class DropoutLayer : public Module {
 public:
  // `seed` initialises the module-owned mask stream; two modules with the
  // same seed draw identical masks.
  explicit DropoutLayer(float p, uint64_t seed = 1);

  Tensor Forward(const Tensor& x) const;

  std::vector<Tensor> Parameters() const override { return {}; }

  float p() const { return p_; }
  // True when Forward draws a mask: training mode with p > 0.
  bool active() const { return is_training() && p_ > 0.0f; }

 private:
  float p_;
  // Forward draws a fresh mask per call; mutable keeps the signature
  // aligned with every other layer's const Forward.
  mutable Rng rng_;
};

}  // namespace stsm

#endif  // STSM_NN_DROPOUT_H_
