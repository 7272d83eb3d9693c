// The spatial-temporal network of STSM (Section 3.4, Eq. 4-13) and the
// graph-level projection head used for contrastive learning (Eq. 16).
//
// All tensors are laid out [B, T, N, C]: batch of windows, time steps,
// nodes, channels. The same network weights are applied to the training
// graph G_o / G_o^m and the full test graph G — the graph only enters
// through the adjacency matrices passed to Forward, which is what makes the
// model inductive over nodes.

#ifndef STSM_CORE_ST_MODEL_H_
#define STSM_CORE_ST_MODEL_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/gcn.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace stsm {

// One ST block (Fig. 3): a temporal branch (dilated TCN, Eq. 5, or a
// transformer encoder for STSM-trans) in parallel with a spatial branch of
// stacked gated GCN layers (Eq. 7-9) evaluated under both the spatial and
// the temporal-similarity adjacency, max-aggregated (Eq. 11), combined with
// the temporal branch (Eq. 12; gated fusion for STSM-trans).
class StBlock : public Module {
 public:
  StBlock(int64_t channels, const StsmConfig& config, Rng* rng);

  // x: [B, T, N, C]; adjacencies are [N, N] (pre-normalised), dense or CSR.
  // Returns the block output at the last `keep` time steps, [B, keep, N, C]
  // (all T by default), bitwise equal to those steps of the full-window
  // output. STSM-TCN computes only what they read: each conv its
  // ConvSteps() window, the GCN branches the kept steps. STSM-trans prunes
  // only keep == 1 at inference (no grad, dropout inactive); otherwise it
  // runs the full window and slices.
  Tensor Forward(const Tensor& x, const Adjacency& adj_spatial,
                 const Adjacency& adj_temporal, int64_t keep = -1) const;

  // Trailing input steps (at most `time`) that the last `keep` output steps
  // depend on: keep + Σ(k−1)·d for the causal dilated TCN, the whole
  // window for the transformer.
  int64_t InputSteps(int64_t keep, int64_t time) const;

  // Output steps each TCN conv computes, in stack order, for the last
  // `keep` block outputs of a `time`-step input: walking back from the
  // last conv, conv j keeps min(time, need) steps, then need grows by
  // (k−1)·d_j. At the defaults: 6 and 4 of 7 steps in the first block,
  // 3 and 1 of 4 in the second. Empty for the transformer.
  std::vector<int64_t> ConvSteps(int64_t keep, int64_t time) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override;

 private:
  // The temporal branch's last `steps` output steps (Eq. 5): the TCN with
  // each conv over its ConvSteps() window; the transformer over all T
  // (steps == T) or its inference-only last-step path (steps == 1).
  Tensor TemporalBranch(const Tensor& x, int64_t steps) const;
  Tensor SpatialBranch(const Tensor& x, const Adjacency& adj) const;

  TemporalModule temporal_module_;
  std::vector<std::unique_ptr<TemporalConv>> tcn_stack_;
  std::unique_ptr<TransformerEncoderBlock> transformer_;
  // Gated fusion (Zheng et al. GMAN), STSM-trans only:
  // z = sigmoid(Ws Hs + Wt Ht), out = z * Hs + (1 - z) * Ht.
  std::unique_ptr<Linear> fusion_spatial_;
  std::unique_ptr<Linear> fusion_temporal_;
  std::vector<GcnlLayer> gcn_layers_;  // Shared across both adjacencies.
};

// The full forecasting network: input fusion with the time embedding
// (Eq. 4), L stacked ST blocks, and the output head (Eq. 13).
class StModel : public Module {
 public:
  StModel(const StsmConfig& config, Rng* rng);

  struct Output {
    Tensor predictions;     // [B, T', N, 1].
    Tensor final_features;  // [B, N, C'] — last block, last time step.
  };

  // x: [B, T, N, 1]; time_features: [B, T, 3] (see TimeOfDayFeatures).
  // Adjacencies may be dense tensors or SparseCsr (city-scale graphs).
  // Both outputs come from the last block's last time step, so every block
  // computes only the steps that one reads (StBlock::InputSteps).
  Output Forward(const Tensor& x, const Tensor& time_features,
                 const Adjacency& adj_spatial,
                 const Adjacency& adj_temporal) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override;

 private:
  // Builds the full-window reference forward the pruned one is tested
  // against.
  friend class StModelTestPeer;

  StsmConfig config_;
  Linear phi1_;  // Observation projection (Eq. 4).
  Linear phi2_;  // Time-embedding projection (Eq. 4).
  DropoutLayer input_dropout_;  // config.dropout on the fused embedding.
  std::vector<std::unique_ptr<StBlock>> blocks_;
  Linear head1_;  // phi3 of Eq. 13.
  Linear head2_;  // phi4 of Eq. 13 -> horizon outputs.
};

// Graph-level projection head (Eq. 16): sum-pools node features and applies
// phi(ReLU(phi(.))) to produce the representation used by InfoNCE.
class ProjectionHead : public Module {
 public:
  ProjectionHead(int64_t channels, Rng* rng);

  // [B, N, C'] -> [B, C'].
  Tensor Forward(const Tensor& final_features) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override { return {&inner_, &outer_}; }

 private:
  Linear inner_;
  Linear outer_;
};

}  // namespace stsm

#endif  // STSM_CORE_ST_MODEL_H_
