// Equation-anchored tests for the spatial-temporal network (Section 3.4).

#include "core/st_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace stsm {
namespace {

StsmConfig SmallModelConfig() {
  StsmConfig config;
  config.input_length = 6;
  config.horizon = 4;
  config.hidden_dim = 8;
  config.num_blocks = 2;
  config.gcn_layers_per_block = 2;
  return config;
}

Tensor RandomInput(int batch, int time, int nodes, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Uniform(Shape({batch, time, nodes, 1}), -1, 1, &rng);
}

Tensor RandomTime(int batch, int time, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Uniform(Shape({batch, time, 3}), -1, 1, &rng);
}

TEST(StModelTest, OutputShapes) {
  const StsmConfig config = SmallModelConfig();
  Rng rng(1);
  const StModel model(config, &rng);
  const int nodes = 5;
  const Tensor adj = Tensor::Eye(nodes);
  const StModel::Output out =
      model.Forward(RandomInput(3, 6, nodes, 2), RandomTime(3, 6, 3), adj,
                    adj);
  EXPECT_EQ(out.predictions.shape(), Shape({3, 4, nodes, 1}));
  EXPECT_EQ(out.final_features.shape(), Shape({3, nodes, 8}));
}

TEST(StModelTest, InductiveAcrossGraphSizes) {
  // The same weights must run on graphs of different size (train on G_o,
  // test on G) — the property Section 3.5 relies on.
  const StsmConfig config = SmallModelConfig();
  Rng rng(3);
  const StModel model(config, &rng);
  const StModel::Output small = model.Forward(
      RandomInput(2, 6, 4, 4), RandomTime(2, 6, 5), Tensor::Eye(4),
      Tensor::Eye(4));
  const StModel::Output large = model.Forward(
      RandomInput(2, 6, 9, 6), RandomTime(2, 6, 7), Tensor::Eye(9),
      Tensor::Eye(9));
  EXPECT_EQ(small.predictions.shape()[2], 4);
  EXPECT_EQ(large.predictions.shape()[2], 9);
}

TEST(StModelTest, Eq4TimeEmbeddingModulatesOutput) {
  // H^0 = phi1(X) * phi2(TE): changing only the time features must change
  // the predictions (rush hour vs midnight contexts differ).
  const StsmConfig config = SmallModelConfig();
  Rng rng(8);
  const StModel model(config, &rng);
  const Tensor x = RandomInput(1, 6, 4, 9);
  const Tensor adj = Tensor::Eye(4);
  const StModel::Output a =
      model.Forward(x, RandomTime(1, 6, 10), adj, adj);
  const StModel::Output b =
      model.Forward(x, RandomTime(1, 6, 11), adj, adj);
  double diff = 0;
  for (int64_t i = 0; i < a.predictions.numel(); ++i) {
    diff += std::fabs(a.predictions.data()[i] - b.predictions.data()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(StModelTest, AdjacencyMattersForPredictions) {
  // Swapping the spatial adjacency changes the GCN branch (Eq. 6-11).
  const StsmConfig config = SmallModelConfig();
  Rng rng(12);
  const StModel model(config, &rng);
  const Tensor x = RandomInput(1, 6, 4, 13);
  const Tensor tf = RandomTime(1, 6, 14);
  const Tensor eye = Tensor::Eye(4);
  Tensor dense = Tensor::Full(Shape({4, 4}), 0.25f);
  const StModel::Output a = model.Forward(x, tf, eye, eye);
  const StModel::Output b = model.Forward(x, tf, dense, eye);
  double diff = 0;
  for (int64_t i = 0; i < a.predictions.numel(); ++i) {
    diff += std::fabs(a.predictions.data()[i] - b.predictions.data()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST(StModelTest, PersistenceSkipAnchorsOutput) {
  // With the input skip enabled, predictions track a constant input's
  // level far better than random-init outputs otherwise would.
  StsmConfig with_skip = SmallModelConfig();
  with_skip.input_skip = true;
  StsmConfig without_skip = SmallModelConfig();
  without_skip.input_skip = false;
  Rng rng_a(15);
  Rng rng_b(15);
  const StModel model_skip(with_skip, &rng_a);
  const StModel model_plain(without_skip, &rng_b);

  const Tensor x = Tensor::Full(Shape({1, 6, 3, 1}), 5.0f);
  const Tensor tf = Tensor::Zeros(Shape({1, 6, 3}));
  const Tensor adj = Tensor::Eye(3);
  const float skip_out =
      model_skip.Forward(x, tf, adj, adj).predictions.at({0, 0, 0, 0});
  const float plain_out =
      model_plain.Forward(x, tf, adj, adj).predictions.at({0, 0, 0, 0});
  EXPECT_LT(std::fabs(skip_out - 5.0f), std::fabs(plain_out - 5.0f));
}

TEST(StModelTest, ParameterCountsDifferByVariant) {
  Rng rng(16);
  const StsmConfig tcn_config = SmallModelConfig();
  StsmConfig trans_config = SmallModelConfig();
  trans_config.temporal_module = TemporalModule::kTransformer;
  const StModel tcn_model(tcn_config, &rng);
  const StModel trans_model(trans_config, &rng);
  EXPECT_GT(trans_model.NumParameters(), tcn_model.NumParameters());
}

TEST(StModelTest, GradientsReachAllParameters) {
  const StsmConfig config = SmallModelConfig();
  Rng rng(17);
  const StModel model(config, &rng);
  const Tensor adj = Tensor::Full(Shape({4, 4}), 0.25f);
  const StModel::Output out = model.Forward(
      RandomInput(2, 6, 4, 18), RandomTime(2, 6, 19), adj, adj);
  Mean(Square(out.predictions)).Backward();
  int with_grad = 0, total = 0;
  for (const Tensor& p : model.Parameters()) {
    ++total;
    for (int64_t i = 0; i < p.numel(); ++i) {
      if (p.grad_data()[i] != 0.0f) {
        ++with_grad;
        break;
      }
    }
  }
  // Nearly all parameters should receive gradient (head + blocks + input
  // projections). Allow a couple of dead gates.
  EXPECT_GE(with_grad, total - 2);
}

TEST(StModelTest, SparseAdjacencyMatchesDenseForward) {
  // Table 4 guarantee of the CSR refactor: swapping the dense adjacencies
  // for their CSR form changes only the flop order of the node mixing, so
  // predictions agree within float accumulation tolerance.
  const StsmConfig config = SmallModelConfig();
  Rng rng(30);
  const StModel model(config, &rng);
  const int nodes = 6;
  Rng adj_rng(31);
  Tensor dense_s = Tensor::Uniform(Shape({nodes, nodes}), 0, 0.4f, &adj_rng);
  Tensor dense_t = Tensor::Uniform(Shape({nodes, nodes}), 0, 0.4f, &adj_rng);
  for (Tensor* adj : {&dense_s, &dense_t}) {
    for (int64_t i = 0; i < adj->numel(); ++i) {
      if (adj->data()[i] < 0.2f) adj->data()[i] = 0.0f;  // Prune to sparse.
    }
  }
  const Tensor x = RandomInput(2, 6, nodes, 32);
  const Tensor tf = RandomTime(2, 6, 33);

  const StModel::Output dense_out = model.Forward(x, tf, dense_s, dense_t);
  const StModel::Output sparse_out =
      model.Forward(x, tf, Adjacency(SparseCsr::FromDense(dense_s)),
                    Adjacency(SparseCsr::FromDense(dense_t)));
  ASSERT_EQ(dense_out.predictions.shape(), sparse_out.predictions.shape());
  for (int64_t i = 0; i < dense_out.predictions.numel(); ++i) {
    const float d = dense_out.predictions.data()[i];
    const float s = sparse_out.predictions.data()[i];
    EXPECT_NEAR(s, d, 1e-5f * std::max(1.0f, std::fabs(d))) << "element " << i;
  }
}

TEST(StModelTest, TcnOutputReadsOnlyItsReceptiveField) {
  // The last time step does not summarise the whole window: with kernel 2
  // and dilations 1 and 2 per block, two blocks read input steps T-7..T-1.
  // Perturbing everything earlier (values and time features) must leave
  // predictions and final features bitwise unchanged; perturbing step T-7
  // must not.
  const StsmConfig config;  // T = 12, two TCN blocks.
  const int64_t time = config.input_length;
  Rng rng(34);
  const StModel model(config, &rng);
  const int nodes = 5;
  Rng adj_rng(35);
  const Tensor adj = Tensor::Uniform(Shape({nodes, nodes}), 0, 0.4f, &adj_rng);
  const Tensor x = RandomInput(2, time, nodes, 36);
  const Tensor tf = RandomTime(2, time, 37);
  auto perturbed = [&](const Tensor& t, int64_t end_step) {
    Tensor copy = t.Clone();
    const int64_t per_step = t.numel() / (t.shape()[0] * time);
    for (int64_t b = 0; b < t.shape()[0]; ++b) {
      for (int64_t i = 0; i < end_step * per_step; ++i) {
        copy.data()[b * time * per_step + i] += 0.5f;
      }
    }
    return copy;
  };
  auto same = [](const Tensor& a, const Tensor& b) {
    const Tensor ca = a.Clone();
    const Tensor cb = b.Clone();
    return std::memcmp(ca.data(), cb.data(), ca.numel() * sizeof(float)) == 0;
  };
  const StModel::Output base = model.Forward(x, tf, adj, adj);
  const StModel::Output outside = model.Forward(
      perturbed(x, time - 7), perturbed(tf, time - 7), adj, adj);
  EXPECT_TRUE(same(base.predictions, outside.predictions));
  EXPECT_TRUE(same(base.final_features, outside.final_features));
  const StModel::Output inside = model.Forward(
      perturbed(x, time - 6), perturbed(tf, time - 6), adj, adj);
  EXPECT_FALSE(same(base.predictions, inside.predictions));
}

TEST(StBlockTest, Eq12ResidualCombination) {
  // With a zero adjacency the spatial branch contributes only gated-bias
  // terms; the block must still produce finite output of the right shape.
  const StsmConfig config = SmallModelConfig();
  Rng rng(20);
  const StBlock block(8, config, &rng);
  Rng data_rng(21);
  const Tensor x = Tensor::Uniform(Shape({2, 6, 4, 8}), -1, 1, &data_rng);
  const Tensor zero_adj = Tensor::Zeros(Shape({4, 4}));
  const Tensor y = block.Forward(x, zero_adj, zero_adj);
  EXPECT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(ProjectionHeadTest, Eq16PoolsOverNodes) {
  Rng rng(22);
  const ProjectionHead head(8, &rng);
  Rng data_rng(23);
  const Tensor features = Tensor::Uniform(Shape({3, 5, 8}), -1, 1, &data_rng);
  const Tensor z = head.Forward(features);
  EXPECT_EQ(z.shape(), Shape({3, 8}));
  // Permuting nodes must not change the pooled representation.
  Tensor permuted = Tensor::Zeros(Shape({3, 5, 8}));
  const int perm[5] = {4, 2, 0, 3, 1};
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t n = 0; n < 5; ++n) {
      for (int64_t c = 0; c < 8; ++c) {
        permuted.set({b, n, c}, features.at({b, perm[n], c}));
      }
    }
  }
  const Tensor z_permuted = head.Forward(permuted);
  for (int64_t i = 0; i < z.numel(); ++i) {
    EXPECT_NEAR(z.data()[i], z_permuted.data()[i], 1e-5);
  }
}

}  // namespace
}  // namespace stsm
