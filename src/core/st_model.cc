#include "core/st_model.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace stsm {
namespace {

// The last `steps` time steps of a [B, T, ...] tensor (a view; x itself
// when that is all of it).
Tensor LastSteps(const Tensor& x, int64_t steps) {
  const int64_t time = x.shape()[1];
  return steps == time ? x : Slice(x, 1, time - steps, time);
}

}  // namespace

StBlock::StBlock(int64_t channels, const StsmConfig& config, Rng* rng)
    : temporal_module_(config.temporal_module) {
  if (temporal_module_ == TemporalModule::kTcn) {
    // Stacked dilated convolutions with exponential dilation 2^j (Eq. 5).
    for (int j = 0; j < 2; ++j) {
      tcn_stack_.push_back(std::make_unique<TemporalConv>(
          channels, channels, config.tcn_kernel, /*dilation=*/1 << j, rng));
    }
  } else {
    transformer_ = std::make_unique<TransformerEncoderBlock>(
        channels, config.attention_heads, 2 * channels, rng, config.dropout);
    fusion_spatial_ = std::make_unique<Linear>(channels, channels, rng);
    fusion_temporal_ =
        std::make_unique<Linear>(channels, channels, rng, /*use_bias=*/false);
  }
  gcn_layers_.reserve(config.gcn_layers_per_block);
  for (int q = 0; q < config.gcn_layers_per_block; ++q) {
    gcn_layers_.emplace_back(channels, channels, rng);
  }
}

int64_t StBlock::InputSteps(int64_t keep, int64_t time) const {
  if (temporal_module_ != TemporalModule::kTcn) return time;
  // A causal conv of kernel k and dilation d widens the field by (k−1)·d:
  // 1 + 1 + 2 = 4 steps for the default stack (kernel 2, dilations 1, 2).
  int64_t field = 1;
  for (const auto& conv : tcn_stack_) {
    field += (conv->kernel_size() - 1) * conv->dilation();
  }
  return std::min(time, keep + field - 1);
}

std::vector<int64_t> StBlock::ConvSteps(int64_t keep, int64_t time) const {
  std::vector<int64_t> steps(tcn_stack_.size());
  int64_t need = keep;
  for (size_t j = tcn_stack_.size(); j-- > 0;) {
    steps[j] = std::min(time, need);
    need += (tcn_stack_[j]->kernel_size() - 1) * tcn_stack_[j]->dilation();
  }
  return steps;
}

Tensor StBlock::TemporalBranch(const Tensor& x, int64_t steps) const {
  if (temporal_module_ == TemporalModule::kTcn) {
    const std::vector<int64_t> conv_steps = ConvSteps(steps, x.shape()[1]);
    Tensor h = x;
    for (size_t j = 0; j < tcn_stack_.size(); ++j) {
      h = tcn_stack_[j]->Forward(h, conv_steps[j]);
      if (GradModeEnabled()) {
        h = Relu(h);
      } else {
        // Inference: the conv output is graph-free and exclusively ours, so
        // clamp it in place instead of allocating a new activation.
        ReluInPlace(h);
      }
    }
    return h;
  }
  // Transformer over time: [B, T, N, C] -> [B, N, T, C] -> [B*N, T, C].
  const int64_t batch = x.shape()[0];
  const int64_t time = x.shape()[1];
  const int64_t nodes = x.shape()[2];
  const int64_t channels = x.shape()[3];
  Tensor h = Transpose(x, 1, 2);
  h = Reshape(h, Shape({batch * nodes, time, channels}));
  if (steps == time) {
    h = transformer_->Forward(h);
  } else {
    STSM_CHECK_EQ(steps, 1);
    h = transformer_->ForwardLast(h);
  }
  h = Reshape(h, Shape({batch, nodes, steps, channels}));
  return Transpose(h, 1, 2);
}

Tensor StBlock::SpatialBranch(const Tensor& x, const Adjacency& adj) const {
  // Eq. 8/9: stack gated GCN layers, elementwise-max over layer outputs.
  Tensor h = x;
  Tensor aggregated;
  for (const GcnlLayer& layer : gcn_layers_) {
    h = layer.Forward(adj, h);
    aggregated = aggregated.defined() ? Maximum(aggregated, h) : h;
  }
  return aggregated;
}

Tensor StBlock::Forward(const Tensor& x, const Adjacency& adj_spatial,
                        const Adjacency& adj_temporal, int64_t keep) const {
  const int64_t time = x.shape()[1];
  if (keep < 0) keep = time;
  STSM_CHECK(keep >= 1 && keep <= time) << "keep " << keep << " of " << time;
  // STSM-trans prunes at inference only: under grad mode the fusion, FFN
  // and projection Linear weight gradients sum their [B*N*steps] rows in
  // kGemmKc-row k-blocks, and fewer rows move the block boundaries.
  const bool prune =
      temporal_module_ == TemporalModule::kTcn ||
      (keep == 1 && !GradModeEnabled() && !transformer_->dropout_active());
  const int64_t steps = prune ? keep : time;

  const Tensor h_temporal = TemporalBranch(x, steps);
  // Eq. 11: max over the two adjacency variants. The GCN branch is
  // per-step, so it runs on the computed steps only.
  const Tensor x_steps = LastSteps(x, steps);
  const Tensor h_spatial = Maximum(SpatialBranch(x_steps, adj_spatial),
                                   SpatialBranch(x_steps, adj_temporal));
  if (temporal_module_ == TemporalModule::kTcn) {
    return Add(h_spatial, h_temporal);  // Eq. 12.
  }
  // Gated fusion for STSM-trans.
  const Tensor gate = Sigmoid(Add(fusion_spatial_->Forward(h_spatial),
                                  fusion_temporal_->Forward(h_temporal)));
  return LastSteps(
      Add(Mul(gate, h_spatial), Mul(Sub(1.0f, gate), h_temporal)), keep);
}

std::vector<Module*> StBlock::Children() {
  std::vector<Module*> children;
  for (const auto& conv : tcn_stack_) children.push_back(conv.get());
  for (Module* child : CollectChildren({transformer_.get(),
                                        fusion_spatial_.get(),
                                        fusion_temporal_.get()})) {
    children.push_back(child);
  }
  for (GcnlLayer& layer : gcn_layers_) children.push_back(&layer);
  return children;
}

std::vector<Tensor> StBlock::Parameters() const {
  std::vector<Tensor> params;
  for (const auto& conv : tcn_stack_) {
    const auto p = conv->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  if (transformer_ != nullptr) {
    const auto p = transformer_->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const auto* fusion :
       {fusion_spatial_.get(), fusion_temporal_.get()}) {
    if (fusion != nullptr) {
      const auto p = fusion->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
  }
  for (const GcnlLayer& layer : gcn_layers_) {
    const auto p = layer.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

StModel::StModel(const StsmConfig& config, Rng* rng)
    : config_(config),
      phi1_(1, config.hidden_dim, rng),
      phi2_(3, config.hidden_dim, rng),
      // Fixed seed: see TransformerEncoderBlock — the shared init stream
      // must not depend on whether dropout is configured.
      input_dropout_(config.dropout, /*seed=*/0xd10u ^ config.seed),
      head1_(config.hidden_dim, config.hidden_dim, rng),
      head2_(config.hidden_dim, config.horizon, rng) {
  blocks_.reserve(config.num_blocks);
  for (int l = 0; l < config.num_blocks; ++l) {
    blocks_.push_back(std::make_unique<StBlock>(config.hidden_dim, config, rng));
  }
}

StModel::Output StModel::Forward(const Tensor& x, const Tensor& time_features,
                                 const Adjacency& adj_spatial,
                                 const Adjacency& adj_temporal) const {
  STSM_CHECK_EQ(x.ndim(), 4);
  STSM_CHECK_EQ(x.shape()[3], 1);
  STSM_CHECK_EQ(x.shape()[1], config_.input_length);
  const int64_t batch = x.shape()[0];
  const int64_t time = x.shape()[1];
  const int64_t nodes = x.shape()[2];

  // Eq. 4: H^0 = phi1(X) * phi2(TE). The time embedding is shared across
  // nodes, so it broadcasts over the node dimension.
  const Tensor h_obs = phi1_.Forward(x);  // [B, T, N, C'].
  const Tensor h_time =
      Unsqueeze(phi2_.Forward(time_features), 2);  // [B, T, 1, C'].
  Tensor h = input_dropout_.Forward(Mul(h_obs, h_time));

  // Receptive-field windows: walk back from the one step the output reads.
  // Block l produces keep[l] trailing steps from InputSteps(keep[l]) input
  // steps — at the defaults, STSM-TCN's last block keeps 1 step of a 4-step
  // input and the one before keeps 4 of 7.
  std::vector<int64_t> keep(blocks_.size());
  int64_t steps = 1;
  for (size_t l = blocks_.size(); l-- > 0;) {
    keep[l] = steps;
    steps = blocks_[l]->InputSteps(steps, time);
  }
  // Sliced after the dropout, so its mask is still drawn over every step.
  h = LastSteps(h, steps);
  for (size_t l = 0; l < blocks_.size(); ++l) {
    h = blocks_[l]->Forward(h, adj_spatial, adj_temporal, keep[l]);
  }

  // Final features: the last block's output at the last input time step
  // (the H^{t+T',L} of Eq. 16). It does not summarise the whole window:
  // STSM-TCN reads only the blocks' combined receptive field, input steps
  // T−7…T−1 at the defaults; STSM-trans attends over all T steps.
  const Tensor last =
      Reshape(h, Shape({batch, nodes, config_.hidden_dim}));  // [B, N, C'].

  // Output head (Eq. 13): two linear maps with an inner ReLU produce all T'
  // horizon values per node at once. No output activation — targets are
  // z-scored and may be negative.
  Tensor out = head2_.Forward(Relu(head1_.Forward(last)));  // [B, N, T'].
  if (config_.input_skip) {
    // Persistence skip: the head predicts the correction on top of the
    // last input value (see config.h).
    const Tensor last_value =
        Reshape(Slice(x, 1, time - 1, time), Shape({batch, nodes, 1}));
    out = Add(out, last_value);
  }
  out = Unsqueeze(Transpose(out, 1, 2), -1);                // [B, T', N, 1].

  Output output;
  output.predictions = out;
  output.final_features = last;
  return output;
}

std::vector<Module*> StModel::Children() {
  std::vector<Module*> children = {&phi1_, &phi2_, &input_dropout_, &head1_,
                                   &head2_};
  for (const auto& block : blocks_) children.push_back(block.get());
  return children;
}

std::vector<Tensor> StModel::Parameters() const {
  std::vector<Tensor> params = ConcatParameters(
      {phi1_.Parameters(), phi2_.Parameters(), head1_.Parameters(),
       head2_.Parameters()});
  for (const auto& block : blocks_) {
    const auto p = block->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

ProjectionHead::ProjectionHead(int64_t channels, Rng* rng)
    : inner_(channels, channels, rng), outer_(channels, channels, rng) {}

Tensor ProjectionHead::Forward(const Tensor& final_features) const {
  STSM_CHECK_EQ(final_features.ndim(), 3);
  // Eq. 16: sum over nodes, then phi(ReLU(phi(.))).
  const Tensor pooled = Sum(final_features, 1);  // [B, C'].
  return outer_.Forward(Relu(inner_.Forward(pooled)));
}

std::vector<Tensor> ProjectionHead::Parameters() const {
  return ConcatParameters({inner_.Parameters(), outer_.Parameters()});
}

}  // namespace stsm
