#include "nn/attention.h"

#include <cmath>

#include "common/check.h"
#include "common/prof.h"
#include "tensor/ops.h"

namespace stsm {

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t model_dim,
                                               int num_heads, Rng* rng)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      query_(model_dim, model_dim, rng),
      key_(model_dim, model_dim, rng),
      value_(model_dim, model_dim, rng),
      output_(model_dim, model_dim, rng) {
  STSM_CHECK_EQ(head_dim_ * num_heads, model_dim)
      << "model_dim must be divisible by num_heads";
}

Tensor MultiHeadSelfAttention::Forward(const Tensor& x,
                                       int64_t query_steps) const {
  STSM_PROF_SCOPE("attention.fwd");
  STSM_CHECK_EQ(x.ndim(), 3) << "attention expects [B, T, C]";
  STSM_CHECK_EQ(x.shape()[-1], model_dim_);
  const int64_t batch = x.shape()[0];
  const int64_t time = x.shape()[1];
  if (query_steps < 0) query_steps = time;
  STSM_CHECK(query_steps >= 1 && query_steps <= time);

  auto split_heads = [&](const Tensor& t) {
    // [B, S, C] -> [B, H, S, Dh].
    return Transpose(Reshape(t, Shape({batch, t.shape()[1], num_heads_,
                                       head_dim_})),
                     1, 2);
  };
  const Tensor queries =
      query_steps == time ? x : Slice(x, 1, time - query_steps, time);
  const Tensor q = split_heads(query_.Forward(queries));
  const Tensor k = split_heads(key_.Forward(x));
  const Tensor v = split_heads(value_.Forward(x));

  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const Tensor scores =
      Mul(MatMul(q, Transpose(k, -1, -2)), scale);     // [B, H, Q, T]
  const Tensor weights = Softmax(scores, -1);
  const Tensor context = MatMul(weights, v);           // [B, H, Q, Dh]
  const Tensor merged = Reshape(Transpose(context, 1, 2),
                                Shape({batch, query_steps, model_dim_}));
  return output_.Forward(merged);
}

std::vector<Tensor> MultiHeadSelfAttention::Parameters() const {
  return ConcatParameters({query_.Parameters(), key_.Parameters(),
                           value_.Parameters(), output_.Parameters()});
}

std::vector<Module*> MultiHeadSelfAttention::Children() {
  return CollectChildren({&query_, &key_, &value_, &output_});
}

TransformerEncoderBlock::TransformerEncoderBlock(int64_t model_dim,
                                                 int num_heads,
                                                 int64_t ffn_dim, Rng* rng,
                                                 float dropout)
    : attention_(model_dim, num_heads, rng),
      norm1_(model_dim),
      norm2_(model_dim),
      ffn1_(model_dim, ffn_dim, rng),
      ffn2_(ffn_dim, model_dim, rng),
      // Fixed seed: drawing from `rng` here would shift the init stream of
      // every module constructed after this block and change existing
      // deterministic results.
      dropout_(dropout, /*seed=*/0x9e3779b97f4a7c15ULL ^
                            static_cast<uint64_t>(model_dim)) {}

Tensor TransformerEncoderBlock::Forward(const Tensor& x) const {
  STSM_PROF_SCOPE("transformer.fwd");
  const Tensor attended =
      Add(x, dropout_.Forward(attention_.Forward(norm1_.Forward(x))));
  const Tensor ffn_out =
      ffn2_.Forward(Relu(ffn1_.Forward(norm2_.Forward(attended))));
  return Add(attended, dropout_.Forward(ffn_out));
}

Tensor TransformerEncoderBlock::ForwardLast(const Tensor& x) const {
  STSM_PROF_SCOPE("transformer.fwd_last");
  STSM_CHECK(!GradModeEnabled() && !dropout_.active())
      << "ForwardLast is inference-only";
  const int64_t time = x.shape()[1];
  const Tensor attended =
      Add(Slice(x, 1, time - 1, time),
          attention_.Forward(norm1_.Forward(x), /*query_steps=*/1));
  const Tensor ffn_out =
      ffn2_.Forward(Relu(ffn1_.Forward(norm2_.Forward(attended))));
  return Add(attended, ffn_out);
}

std::vector<Tensor> TransformerEncoderBlock::Parameters() const {
  return ConcatParameters({attention_.Parameters(), norm1_.Parameters(),
                           norm2_.Parameters(), ffn1_.Parameters(),
                           ffn2_.Parameters()});
}

std::vector<Module*> TransformerEncoderBlock::Children() {
  return CollectChildren(
      {&attention_, &norm1_, &norm2_, &ffn1_, &ffn2_, &dropout_});
}

}  // namespace stsm
