// Differential tests for receptive-field pruning in StModel::Forward: every
// consumer reads only the last block's last time step, so the pruned
// forward computes only the steps that step depends on. It must reproduce
// the full-window forward — every block over all T steps, then the last
// step sliced — bitwise: predictions and final features at inference for
// both temporal modules, and for STSM-TCN also the training loss and every
// parameter gradient, on the dense and the CSR adjacency paths. STSM-trans
// keeps the full-window graph under grad mode.

#include <cstring>
#include <string>
#include <vector>

#include "core/st_model.h"
#include "gtest/gtest.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace stsm {

// The pre-pruning StModel::Forward, kept as the reference.
class StModelTestPeer {
 public:
  static StModel::Output FullWindowForward(const StModel& model,
                                           const Tensor& x,
                                           const Tensor& time_features,
                                           const Adjacency& adj_spatial,
                                           const Adjacency& adj_temporal) {
    const int64_t batch = x.shape()[0];
    const int64_t time = x.shape()[1];
    const int64_t nodes = x.shape()[2];
    const Tensor h_obs = model.phi1_.Forward(x);
    const Tensor h_time = Unsqueeze(model.phi2_.Forward(time_features), 2);
    Tensor h = model.input_dropout_.Forward(Mul(h_obs, h_time));
    for (const auto& block : model.blocks_) {
      h = block->Forward(h, adj_spatial, adj_temporal, /*keep=*/time);
    }
    const Tensor last =
        Reshape(Slice(h, 1, time - 1, time),
                Shape({batch, nodes, model.config_.hidden_dim}));
    Tensor out = model.head2_.Forward(Relu(model.head1_.Forward(last)));
    if (model.config_.input_skip) {
      out = Add(out, Reshape(Slice(x, 1, time - 1, time),
                             Shape({batch, nodes, 1})));
    }
    StModel::Output output;
    output.predictions = Unsqueeze(Transpose(out, 1, 2), -1);
    output.final_features = last;
    return output;
  }
};

namespace {

// Bitwise image of a tensor's logical elements.
std::vector<float> Image(const Tensor& t) {
  const Tensor c = t.Clone();
  return std::vector<float>(c.data(), c.data() + c.numel());
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int64_t DifferingEntries(const std::vector<float>& a,
                         const std::vector<float>& b) {
  int64_t count = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++count;
  }
  return count;
}

// Row-normalised random graph with self loops and ~10% density.
Tensor RandomAdjacency(int64_t nodes, uint64_t seed) {
  Rng rng(seed);
  Tensor a = Tensor::Uniform(Shape({nodes, nodes}), 0.0f, 1.0f, &rng);
  float* d = a.data();
  for (int64_t i = 0; i < nodes; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < nodes; ++j) {
      float& v = d[i * nodes + j];
      if (i != j && v < 0.9f) v = 0.0f;
      sum += v;
    }
    for (int64_t j = 0; j < nodes; ++j) d[i * nodes + j] /= sum;
  }
  return a;
}

struct Case {
  TemporalModule module;
  bool sparse;
  int64_t nodes;
  int64_t batch;

  std::string Name() const {
    return std::string(module == TemporalModule::kTcn ? "tcn" : "trans") +
           (sparse ? "/csr" : "/dense") + "/N" + std::to_string(nodes) +
           "/B" + std::to_string(batch);
  }
};

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (TemporalModule module :
       {TemporalModule::kTcn, TemporalModule::kTransformer}) {
    for (bool sparse : {false, true}) {
      for (int64_t nodes : {84, 256}) {
        for (int64_t batch : {1, 8}) {
          cases.push_back({module, sparse, nodes, batch});
        }
      }
    }
  }
  return cases;
}

struct Inputs {
  Tensor x;
  Tensor time_features;
  Tensor target;
  Adjacency adj_spatial;
  Adjacency adj_temporal;
};

Inputs MakeInputs(const StsmConfig& config, const Case& c, uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.x = Tensor::Uniform(Shape({c.batch, config.input_length, c.nodes, 1}),
                         -1, 1, &rng);
  in.time_features = Tensor::Uniform(
      Shape({c.batch, config.input_length, 3}), -1, 1, &rng);
  in.target = Tensor::Uniform(Shape({c.batch, config.horizon, c.nodes, 1}),
                              -1, 1, &rng);
  const Tensor a_s = RandomAdjacency(c.nodes, seed + 1);
  const Tensor a_t = RandomAdjacency(c.nodes, seed + 2);
  in.adj_spatial = c.sparse ? Adjacency(SparseCsr::FromDense(a_s))
                            : Adjacency(a_s);
  in.adj_temporal = c.sparse ? Adjacency(SparseCsr::FromDense(a_t))
                             : Adjacency(a_t);
  return in;
}

StsmConfig ConfigFor(TemporalModule module) {
  StsmConfig config;  // T = 12, C' = 16, two blocks: the paper defaults.
  config.temporal_module = module;
  return config;
}

TEST(StModelPruneTest, InferenceMatchesFullWindowBitwise) {
  for (const Case& c : AllCases()) {
    SCOPED_TRACE(c.Name());
    const StsmConfig config = ConfigFor(c.module);
    Rng init(41);
    const StModel model(config, &init);
    const Inputs in = MakeInputs(config, c, 42);
    NoGradGuard no_grad;
    const StModel::Output full = StModelTestPeer::FullWindowForward(
        model, in.x, in.time_features, in.adj_spatial, in.adj_temporal);
    const StModel::Output pruned = model.Forward(
        in.x, in.time_features, in.adj_spatial, in.adj_temporal);
    ASSERT_EQ(pruned.predictions.shape(), full.predictions.shape());
    ASSERT_EQ(pruned.final_features.shape(), full.final_features.shape());
    EXPECT_TRUE(SameBits(Image(pruned.predictions), Image(full.predictions)));
    EXPECT_TRUE(
        SameBits(Image(pruned.final_features), Image(full.final_features)));
  }
}

// Loss = MSE (Eq. 14) plus a term on the final features (what InfoNCE
// reads), then every parameter gradient after one backward.
struct TrainStep {
  std::vector<float> loss;
  std::vector<std::vector<float>> grads;
};

TrainStep RunTrainStep(const StModel& model, const Inputs& in, bool pruned) {
  for (Tensor p : model.Parameters()) p.ZeroGrad();
  const StModel::Output out =
      pruned ? model.Forward(in.x, in.time_features, in.adj_spatial,
                             in.adj_temporal)
             : StModelTestPeer::FullWindowForward(model, in.x,
                                                  in.time_features,
                                                  in.adj_spatial,
                                                  in.adj_temporal);
  Tensor loss = Add(MseLoss(out.predictions, in.target),
                    Mul(Mean(Square(out.final_features)), 0.1f));
  loss.Backward();
  TrainStep step;
  step.loss = Image(loss);
  for (const Tensor& p : model.Parameters()) {
    step.grads.push_back(Image(p.GradTensor()));
  }
  return step;
}

TEST(StModelPruneTest, TcnTrainingLossAndGradientsMatchBitwise) {
  for (const Case& c : AllCases()) {
    if (c.module != TemporalModule::kTcn) continue;
    SCOPED_TRACE(c.Name());
    const StsmConfig config = ConfigFor(c.module);
    Rng init(43);
    const StModel model(config, &init);
    const Inputs in = MakeInputs(config, c, 44);
    const TrainStep full = RunTrainStep(model, in, /*pruned=*/false);
    const TrainStep pruned = RunTrainStep(model, in, /*pruned=*/true);
    EXPECT_TRUE(SameBits(pruned.loss, full.loss));
    ASSERT_EQ(pruned.grads.size(), full.grads.size());
    for (size_t i = 0; i < full.grads.size(); ++i) {
      EXPECT_EQ(DifferingEntries(pruned.grads[i], full.grads[i]), 0)
          << "parameter " << i;
    }
  }
}

TEST(StModelPruneTest, TcnTrainingWithDropoutMatchesBitwise) {
  // The input dropout mask is drawn over the full window before the slice,
  // so two identically seeded models draw the same mask.
  StsmConfig config = ConfigFor(TemporalModule::kTcn);
  config.dropout = 0.3f;
  Rng init_full(45);
  Rng init_pruned(45);
  const StModel full_model(config, &init_full);
  const StModel pruned_model(config, &init_pruned);
  const Inputs in = MakeInputs(config, {TemporalModule::kTcn, true, 84, 8}, 46);
  const TrainStep full = RunTrainStep(full_model, in, /*pruned=*/false);
  const TrainStep pruned = RunTrainStep(pruned_model, in, /*pruned=*/true);
  EXPECT_TRUE(SameBits(pruned.loss, full.loss));
  for (size_t i = 0; i < full.grads.size(); ++i) {
    EXPECT_EQ(DifferingEntries(pruned.grads[i], full.grads[i]), 0)
        << "parameter " << i;
  }
}

TEST(StModelPruneTest, TransTrainingKeepsFullWindowGraph) {
  // Under grad mode STSM-trans does not prune: at N = 84 a pruned graph
  // would regroup its Linear weight-gradient sums.
  const Case c{TemporalModule::kTransformer, true, 84, 8};
  const StsmConfig config = ConfigFor(c.module);
  Rng init(48);
  const StModel model(config, &init);
  const Inputs in = MakeInputs(config, c, 49);
  const TrainStep full = RunTrainStep(model, in, /*pruned=*/false);
  const TrainStep pruned = RunTrainStep(model, in, /*pruned=*/true);
  EXPECT_TRUE(SameBits(pruned.loss, full.loss));
  for (size_t i = 0; i < full.grads.size(); ++i) {
    EXPECT_EQ(DifferingEntries(pruned.grads[i], full.grads[i]), 0)
        << "parameter " << i;
  }
}

TEST(StModelPruneTest, InputStepsFollowTheConvStack) {
  StsmConfig config = ConfigFor(TemporalModule::kTcn);
  Rng rng(47);
  const StBlock tcn(config.hidden_dim, config, &rng);
  // Kernel 2, dilations 1 and 2: one output step reads 1 + 1 + 2 inputs.
  EXPECT_EQ(tcn.InputSteps(1, 12), 4);
  EXPECT_EQ(tcn.InputSteps(4, 12), 7);
  EXPECT_EQ(tcn.InputSteps(4, 6), 6);  // Capped at T.
  config.tcn_kernel = 3;
  const StBlock wide(config.hidden_dim, config, &rng);
  EXPECT_EQ(wide.InputSteps(1, 12), 7);  // 1 + 2·1 + 2·2.
  config.temporal_module = TemporalModule::kTransformer;
  const StBlock trans(config.hidden_dim, config, &rng);
  EXPECT_EQ(trans.InputSteps(1, 12), 12);  // Attention reads every step.
}

TEST(StModelPruneTest, ConvWindowsWalkBackThroughEachConv) {
  StsmConfig config = ConfigFor(TemporalModule::kTcn);
  Rng rng(50);
  const StBlock tcn(config.hidden_dim, config, &rng);
  // StModel's windows at T = 12: the first block keeps 4 of 7 input steps,
  // the second 1 of 4. Each conv computes only what the next one reads:
  // 6 + 4 + 3 + 1 = 14 step outputs instead of 7 + 7 + 4 + 4 = 22.
  EXPECT_EQ(tcn.ConvSteps(4, 7), (std::vector<int64_t>{6, 4}));
  EXPECT_EQ(tcn.ConvSteps(1, 4), (std::vector<int64_t>{3, 1}));
  EXPECT_EQ(tcn.InputSteps(4, 12), 7);
  EXPECT_EQ(tcn.InputSteps(1, 12), 4);
  // Capped at the input length when the field reaches past it.
  EXPECT_EQ(tcn.ConvSteps(3, 4), (std::vector<int64_t>{4, 3}));
  EXPECT_EQ(tcn.ConvSteps(12, 12), (std::vector<int64_t>{12, 12}));
  config.tcn_kernel = 3;
  const StBlock wide(config.hidden_dim, config, &rng);
  EXPECT_EQ(wide.ConvSteps(1, 12), (std::vector<int64_t>{5, 1}));  // +2·2.
  config.temporal_module = TemporalModule::kTransformer;
  const StBlock trans(config.hidden_dim, config, &rng);
  EXPECT_TRUE(trans.ConvSteps(1, 12).empty());
}

}  // namespace
}  // namespace stsm
