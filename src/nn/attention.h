// Multi-head self-attention over the time axis and a transformer encoder
// block, used by the STSM-trans variant (Section 5.2.5).

#ifndef STSM_NN_ATTENTION_H_
#define STSM_NN_ATTENTION_H_

#include "common/rng.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/norm.h"
#include "tensor/tensor.h"

namespace stsm {

// Scaled dot-product multi-head self-attention along dimension -2 of a
// [..., T, C] tensor (every leading dimension is treated as batch).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t model_dim, int num_heads, Rng* rng);

  // x: [B, T, C] -> [B, Q, C]: the outputs at the last Q = `query_steps`
  // positions (all T by default), each attending over all T keys. Every
  // output equals the matching row of the full-window result bitwise.
  Tensor Forward(const Tensor& x, int64_t query_steps = -1) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override;

 private:
  int64_t model_dim_;
  int num_heads_;
  int64_t head_dim_;
  Linear query_, key_, value_, output_;
};

// Pre-norm transformer encoder block: x + MHSA(LN(x)), then x + FFN(LN(x)),
// with (inverted) dropout on both residual branches when `dropout` > 0 and
// the module is in training mode.
class TransformerEncoderBlock : public Module {
 public:
  TransformerEncoderBlock(int64_t model_dim, int num_heads, int64_t ffn_dim,
                          Rng* rng, float dropout = 0.0f);

  Tensor Forward(const Tensor& x) const;

  // x: [B, T, C] -> [B, 1, C], bitwise the last step of Forward(x) at a
  // fraction of its cost: LayerNorm, keys and values run over all T steps;
  // the query, scores, softmax, output projection and FFN over the last
  // step only. Inference only — run under NoGradGuard with dropout
  // inactive (checked): under grad mode the pruned Linear weight gradients
  // would sum their rows in different k-blocks than Forward's.
  Tensor ForwardLast(const Tensor& x) const;

  bool dropout_active() const { return dropout_.active(); }

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override;

 private:
  MultiHeadSelfAttention attention_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  Linear ffn1_;
  Linear ffn2_;
  DropoutLayer dropout_;
};

}  // namespace stsm

#endif  // STSM_NN_ATTENTION_H_
