// The fused GCNL node (one propagation, one value|gate GEMM, one backward)
// against the composed graph it replaces: Mul(GCN_v(A, Z), Sigmoid(GCN_g(A,
// Z))) built from the layer's own GcnLayer halves. Outputs and every
// gradient — Z (through a strided base), W_v, b_v, W_g, b_g — must agree bit
// for bit, in both dispatch modes, on the dense and the CSR route.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/gcn.h"
#include "nn/precision.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

std::vector<float> RandomValues(int64_t n, std::mt19937* rng, float lo,
                                float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = dist(*rng);
  return v;
}

// A row-normalised random adjacency with self-loops, about `density` dense.
Tensor RandomAdjacency(int64_t n, float density, std::mt19937* rng) {
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  std::vector<float> a(static_cast<size_t>(n * n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      if (i == j || u(*rng) < density) {
        a[i * n + j] = u(*rng) + 0.1f;
        sum += a[i * n + j];
      }
    }
    for (int64_t j = 0; j < n; ++j) a[i * n + j] /= sum;
  }
  return Tensor::FromVector(Shape({n, n}), std::move(a));
}

Tensor GcnlComposed(const GcnlLayer& layer, const Adjacency& adj,
                    const Tensor& x) {
  return Mul(layer.value().Forward(adj, x),
             Sigmoid(layer.gate().Forward(adj, x)));
}

Tensor Apply(bool fused, const GcnlLayer& layer, const Adjacency& adj,
             const Tensor& x) {
  return fused ? layer.Forward(adj, x) : GcnlComposed(layer, adj, x);
}

struct Case {
  bool sparse = false;
  int64_t nodes = 84;
  int64_t batch = 8;
  int64_t time = 4;
  int64_t steps = 4;  // < time: the layer reads a time-slice view.
  bool residual = false;
  bool specials = false;
};

std::string Describe(const Case& c, bool vec) {
  return std::string(c.sparse ? "csr" : "dense") + " N=" +
         std::to_string(c.nodes) + " B=" + std::to_string(c.batch) +
         " steps=" + std::to_string(c.steps) + "/" + std::to_string(c.time) +
         (c.residual ? " residual" : "") + (c.specials ? " specials" : "") +
         (vec ? " simd" : " scalar");
}

struct Outcome {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

Outcome RunCase(bool fused, const Case& c, const GcnlLayer& l1,
                const GcnlLayer& l2, const Adjacency& adj,
                const std::vector<float>& xv, const std::vector<float>& wv) {
  const int64_t ch = 16;
  for (Tensor p : l1.Parameters()) p.ZeroGrad();
  for (Tensor p : l2.Parameters()) p.ZeroGrad();
  Tensor base =
      Tensor::FromVector(Shape({c.batch, c.time, c.nodes, ch}),
                         std::vector<float>(xv))
          .set_requires_grad(true);
  // The last `steps` time steps, as the ST block slices them.
  const Tensor x = Slice(base, 1, c.time - c.steps, c.time);
  Tensor h = Apply(fused, l1, adj, x);
  if (c.residual) {
    // x feeds two GCNLs and a residual Add: the accumulation order into
    // x's gradient is pinned by the graph walk.
    h = Add(Add(h, x), Apply(fused, l2, adj, x));
  } else {
    // A second layer on the first's contiguous output.
    h = Apply(fused, l2, adj, h);
  }
  const Tensor w = Tensor::FromVector(h.shape(), std::vector<float>(wv));
  Sum(Mul(h, w)).Backward();
  Outcome r;
  r.out.assign(h.data(), h.data() + h.numel());
  r.grads.emplace_back(base.grad_data(), base.grad_data() + base.numel());
  for (const GcnlLayer* layer : {&l1, &l2}) {
    for (const Tensor& p : layer->Parameters()) {
      r.grads.emplace_back(p.grad_data(), p.grad_data() + p.numel());
    }
  }
  return r;
}

void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

void CheckCase(const Case& c) {
  std::mt19937 rng(static_cast<uint32_t>(c.nodes * 31 + c.batch * 7 +
                                         c.steps + c.residual * 1000 +
                                         c.specials * 5000 + c.sparse));
  Rng init(11);
  const GcnlLayer l1(16, 16, &init);
  const GcnlLayer l2(16, 16, &init);
  const Tensor dense = RandomAdjacency(c.nodes, 0.3f, &rng);
  const Adjacency adj = c.sparse ? Adjacency(SparseCsr::FromDense(dense))
                                 : Adjacency(dense);
  const int64_t x_numel = c.batch * c.time * c.nodes * 16;
  std::vector<float> xv = RandomValues(x_numel, &rng, -2.0f, 2.0f);
  std::vector<float> wv =
      RandomValues(c.batch * c.steps * c.nodes * 16, &rng, -1.0f, 1.0f);
  if (c.specials) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t i = 0; i < x_numel; i += 37) xv[i] = -0.0f;
    for (int64_t i = 0; i < x_numel; i += 16 * 5) xv[i] = 0.0f;
    xv[static_cast<size_t>(x_numel / 2)] = nan;
    for (size_t i = 0; i < wv.size(); i += 11) wv[i] = -0.0f;
    for (size_t i = 3; i < wv.size(); i += 13) wv[i] = 0.0f;
  }
  for (bool vec : {false, true}) {
    if (vec && simd::Supported() == nullptr) continue;
    simd::SetDispatchForTesting(vec);
    const Outcome fused = RunCase(true, c, l1, l2, adj, xv, wv);
    const Outcome composed = RunCase(false, c, l1, l2, adj, xv, wv);
    simd::ResetDispatch();
    const std::string what = Describe(c, vec);
    ExpectSameBits(fused.out, composed.out, what + " output");
    ASSERT_EQ(fused.grads.size(), composed.grads.size());
    const char* names[] = {"x",   "l1.W_v", "l1.b_v", "l1.W_g", "l1.b_g",
                           "l2.W_v", "l2.b_v", "l2.W_g", "l2.b_g"};
    for (size_t t = 0; t < fused.grads.size(); ++t) {
      ExpectSameBits(fused.grads[t], composed.grads[t],
                     what + " grad " + names[t]);
    }
  }
}

TEST(GcnlTest, FusedMatchesComposedGraph) {
  for (bool sparse : {false, true}) {
    for (int64_t nodes : {84, 256}) {
      for (int64_t batch : {1, 8}) {
        Case c;
        c.sparse = sparse;
        c.nodes = nodes;
        c.batch = batch;
        c.time = 3;
        c.steps = batch == 1 ? 3 : 2;  // Contiguous input and a view.
        CheckCase(c);
      }
    }
  }
}

TEST(GcnlTest, FusedMatchesComposedWithSharedInputAndResidual) {
  for (bool sparse : {false, true}) {
    Case c;
    c.sparse = sparse;
    c.batch = 2;
    c.time = 4;
    c.steps = 3;
    c.residual = true;
    CheckCase(c);
  }
}

TEST(GcnlTest, FusedMatchesComposedOnSignedZerosAndNaN) {
  for (bool sparse : {false, true}) {
    Case c;
    c.sparse = sparse;
    c.batch = 2;
    c.time = 2;
    c.steps = 2;
    c.specials = true;
    CheckCase(c);
  }
}

TEST(GcnlTest, FusedMatchesComposedOnNonRowMajorSparseInput) {
  // A transposed view is not batch-row-major, so the CSR route compacts it;
  // the fused backward must scatter like the composed Contiguous node.
  std::mt19937 rng(5);
  Rng init(3);
  const GcnlLayer layer(6, 5, &init);
  const int64_t n = 9;
  const Adjacency adj(SparseCsr::FromDense(RandomAdjacency(n, 0.4f, &rng)));
  const std::vector<float> xv = RandomValues(2 * 6 * n, &rng, -1.0f, 1.0f);
  const std::vector<float> wv = RandomValues(2 * n * 5, &rng, -1.0f, 1.0f);
  std::vector<std::vector<float>> runs;
  for (bool fused : {true, false}) {
    for (Tensor p : layer.Parameters()) p.ZeroGrad();
    Tensor base = Tensor::FromVector(Shape({2, 6, n}), std::vector<float>(xv))
                      .set_requires_grad(true);
    const Tensor x = Transpose(base, 1, 2);
    // x also reaches the loss directly, so its gradient is non-zero before
    // the GCNL's contribution lands.
    const Tensor h = Apply(fused, layer, adj, x);
    const Tensor w = Tensor::FromVector(h.shape(), std::vector<float>(wv));
    Add(Sum(Mul(h, w)), Sum(Mul(x, x))).Backward();
    std::vector<float> all(h.data(), h.data() + h.numel());
    all.insert(all.end(), base.grad_data(), base.grad_data() + base.numel());
    for (const Tensor& p : layer.Parameters()) {
      all.insert(all.end(), p.grad_data(), p.grad_data() + p.numel());
    }
    runs.push_back(std::move(all));
  }
  ExpectSameBits(runs[0], runs[1], "transposed csr input");
}

TEST(GcnlTest, FusedServingForwardMatchesComposedInBf16) {
  std::mt19937 rng(9);
  Rng init(21);
  GcnlLayer layer(16, 16, &init);
  CastModuleForServing(&layer, DType::kBf16);
  const int64_t n = 84;
  const Tensor dense = RandomAdjacency(n, 0.3f, &rng);
  const Tensor x = Tensor::FromVector(
      Shape({8, 1, n, 16}), RandomValues(8 * n * 16, &rng, -2.0f, 2.0f));
  for (const Adjacency& adj :
       {Adjacency(dense), Adjacency(SparseCsr::FromDense(dense))}) {
    NoGradGuard no_grad;
    const Tensor fused = layer.Forward(adj, x);
    const Tensor composed = GcnlComposed(layer, adj, x);
    ExpectSameBits(std::vector<float>(fused.data(),
                                      fused.data() + fused.numel()),
                   std::vector<float>(composed.data(),
                                      composed.data() + composed.numel()),
                   adj.is_sparse() ? "bf16 csr" : "bf16 dense");
  }
}

TEST(GcnlTest, FusedLayerIsOneGraphNode) {
  Rng init(2);
  const GcnlLayer layer(4, 4, &init);
  const Adjacency adj(Tensor::Eye(5));
  const Tensor x =
      Tensor::Ones(Shape({2, 5, 4})).set_requires_grad(true);
  const uint64_t before = autograd::NodesCreated();
  const Tensor h = layer.Forward(adj, x);
  EXPECT_EQ(autograd::NodesCreated() - before, 1u);
  EXPECT_STREQ(h.impl()->grad_fn->name(), "gcnl");
}

}  // namespace
}  // namespace stsm
