// Property-based differential fuzz for the SIMD kernel dispatch: randomized
// shapes, strides (transposes/slices), and values drive every vectorized op
// through BOTH dispatch paths — forward and backward — and compare. Seeded
// and deterministic; skips cleanly on machines without SIMD kernels.
//
// Comparison tiers match the contract in tensor/simd.h:
//  - elementwise, Max/Min, Spmm (values AND routed gradients): bitwise
//  - Sum/SumDim/Softmax/MatMul (reassociated flop order): tight ULP / scaled
//    absolute tolerance, on outputs and on input gradients

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

int64_t UlpDiff(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) {
    return Bits(a) == Bits(b) ? 0 : std::numeric_limits<int64_t>::max();
  }
  auto ordered = [](float v) {
    const auto u = static_cast<int64_t>(Bits(v));
    return (u & 0x80000000) ? (0x80000000 - u) : u;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

// One differential run: `build` constructs fresh leaf inputs (same values
// every call — callers close over stored vectors) and returns a scalar loss
// plus the leaves whose gradients should be compared. The harness executes
// it under scalar dispatch, then under SIMD dispatch, and hands both results
// to `compare`.
struct RunResult {
  std::vector<float> output;               // forward values being compared
  std::vector<std::vector<float>> grads;   // per-leaf input gradients
};

RunResult RunOnce(
    bool vectorized,
    const std::function<std::pair<Tensor, std::vector<Tensor>>()>& build) {
  simd::SetDispatchForTesting(vectorized);
  auto [out, leaves] = build();
  RunResult r;
  Tensor loss = Sum(out);
  r.output.assign(out.data(), out.data() + out.numel());
  loss.Backward();
  for (const Tensor& leaf : leaves) {
    r.grads.emplace_back(leaf.grad_data(),
                         leaf.grad_data() + leaf.numel());
  }
  simd::ResetDispatch();
  return r;
}

void ExpectBitwise(const RunResult& a, const RunResult& b, const char* what) {
  ASSERT_EQ(a.output.size(), b.output.size()) << what;
  for (size_t i = 0; i < a.output.size(); ++i) {
    ASSERT_EQ(Bits(a.output[i]), Bits(b.output[i]))
        << what << " forward [" << i << "]: " << a.output[i] << " vs "
        << b.output[i];
  }
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t t = 0; t < a.grads.size(); ++t) {
    ASSERT_EQ(a.grads[t].size(), b.grads[t].size()) << what;
    for (size_t i = 0; i < a.grads[t].size(); ++i) {
      ASSERT_EQ(Bits(a.grads[t][i]), Bits(b.grads[t][i]))
          << what << " grad " << t << " [" << i << "]";
    }
  }
}

void ExpectClose(const RunResult& a, const RunResult& b, const char* what,
                 int64_t max_ulp, float abs_floor) {
  ASSERT_EQ(a.output.size(), b.output.size()) << what;
  for (size_t i = 0; i < a.output.size(); ++i) {
    ASSERT_TRUE(UlpDiff(a.output[i], b.output[i]) <= max_ulp ||
                std::fabs(a.output[i] - b.output[i]) <= abs_floor)
        << what << " forward [" << i << "]: " << a.output[i] << " vs "
        << b.output[i];
  }
  ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
  for (size_t t = 0; t < a.grads.size(); ++t) {
    ASSERT_EQ(a.grads[t].size(), b.grads[t].size()) << what;
    for (size_t i = 0; i < a.grads[t].size(); ++i) {
      ASSERT_TRUE(UlpDiff(a.grads[t][i], b.grads[t][i]) <= max_ulp ||
                  std::fabs(a.grads[t][i] - b.grads[t][i]) <= abs_floor)
          << what << " grad " << t << " [" << i << "]: " << a.grads[t][i]
          << " vs " << b.grads[t][i];
    }
  }
}

// Random shape with numel spanning sub-lane (tail-only) through multi-vector.
Shape RandomShape(std::mt19937* rng, int max_dims = 4, int64_t max_dim = 9) {
  std::uniform_int_distribution<int> nd(1, max_dims);
  std::uniform_int_distribution<int64_t> dim(1, max_dim);
  std::vector<int64_t> dims(nd(*rng));
  for (auto& d : dims) d = dim(*rng);
  return Shape(dims);
}

std::vector<float> RandomValues(int64_t n, std::mt19937* rng, float lo,
                                float hi) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = dist(*rng);
  return v;
}

class SimdDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (simd::Supported() == nullptr) {
      GTEST_SKIP() << "no SIMD kernels on this machine";
    }
  }
  void TearDown() override { simd::ResetDispatch(); }
};

// ---- Elementwise chains: bitwise forward AND backward -----------------------

TEST_F(SimdDifferentialTest, ElementwiseChainsBitwise) {
  std::mt19937 rng(20240808);
  for (int trial = 0; trial < 40; ++trial) {
    const Shape shape = RandomShape(&rng);
    const auto av = RandomValues(shape.numel(), &rng, -2.0f, 2.0f);
    const auto bv = RandomValues(shape.numel(), &rng, 0.5f, 2.0f);
    const int which = trial % 8;
    auto build = [&]() {
      Tensor a = Tensor::FromVector(shape, std::vector<float>(av))
                     .set_requires_grad(true);
      Tensor b = Tensor::FromVector(shape, std::vector<float>(bv))
                     .set_requires_grad(true);
      Tensor out;
      switch (which) {
        case 0: out = Add(Mul(a, b), b); break;
        case 1: out = Div(a, b); break;
        case 2: out = Maximum(a, Neg(b)); break;
        case 3: out = Minimum(Square(a), b); break;
        case 4: out = Relu(Sub(a, b)); break;
        case 5: out = LeakyRelu(Mul(a, b), 0.05f); break;
        case 6: out = Sqrt(Abs(Mul(a, b))); break;
        default: out = Mul(Add(a, 0.5f), Div(b, 2.0f)); break;
      }
      return std::make_pair(out, std::vector<Tensor>{a, b});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    ExpectBitwise(scalar, vec, "elementwise chain");
  }
}

// ---- Suffix broadcasts (bias adds): bitwise forward AND backward -------------

// a [rows..., c] against b [c] or [1, c], in either argument order, with c
// on both sides of the 8-wide vector tile. Under both dispatch modes the
// row path must reproduce the index-table path, which a strided copy of
// the suffix operand forces, bit for bit.
TEST_F(SimdDifferentialTest, SuffixBroadcastBinaryBitwise) {
  std::mt19937 rng(20251019);
  for (int trial = 0; trial < 48; ++trial) {
    std::uniform_int_distribution<int64_t> dim(1, 6);
    std::uniform_int_distribution<int64_t> width(1, 21);
    const int64_t d0 = dim(rng), d1 = dim(rng);
    const int64_t c = trial % 4 == 0 ? 16 : width(rng);
    const Shape big({d0, d1, c});
    const Shape small = trial % 3 == 0 ? Shape({1, c}) : Shape({c});
    const auto av = RandomValues(big.numel(), &rng, -2.0f, 2.0f);
    const auto bv = RandomValues(small.numel(), &rng, 0.5f, 2.0f);
    const int which = trial % 6;
    const bool swapped = trial % 2 == 1;
    auto build_for = [&](bool strided) {
      return [&, strided]() {
        Tensor a = Tensor::FromVector(big, std::vector<float>(av))
                       .set_requires_grad(true);
        Tensor b = Tensor::FromVector(small, std::vector<float>(bv))
                       .set_requires_grad(true);
        Tensor bb = b;
        if (strided) {
          // Column 0 of a [c, 2] copy: the same values at stride 2.
          const Tensor flat = Reshape(b, Shape({c}));
          bb = Select(Concat({Unsqueeze(flat, -1), Unsqueeze(flat, -1)}, -1),
                      1, 0);
          if (small.ndim() == 2) bb = Unsqueeze(bb, 0);
        }
        const Tensor lhs = swapped ? bb : a;
        const Tensor rhs = swapped ? a : bb;
        Tensor out;
        switch (which) {
          case 0: out = Add(lhs, rhs); break;
          case 1: out = Sub(lhs, rhs); break;
          case 2: out = Mul(lhs, rhs); break;
          case 3: out = Div(lhs, rhs); break;
          case 4: out = Maximum(lhs, rhs); break;
          default: out = Minimum(lhs, rhs); break;
        }
        // Weighting the output gives every gradient row a different value.
        out = Mul(out, Tensor::FromVector(out.shape(), std::vector<float>(av)));
        return std::make_pair(out, std::vector<Tensor>{a, b});
      };
    };
    const RunResult rows_scalar = RunOnce(false, build_for(false));
    ExpectBitwise(rows_scalar, RunOnce(true, build_for(false)),
                  "suffix broadcast rows");
    ExpectBitwise(rows_scalar, RunOnce(false, build_for(true)),
                  "rows vs index table");
    ExpectBitwise(rows_scalar, RunOnce(true, build_for(true)),
                  "rows vs index table, vector dispatch");
  }
}

// Maximum and Minimum, whose gradients run on select_ge_acc under vector
// dispatch: every row width 1-21, full-shape and suffix operands in both
// argument orders, over ±0, ±Inf, NaN and exact ties.
TEST_F(SimdDifferentialTest, MaximumMinimumGradientsBitwiseWithSpecials) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {0.0f, -0.0f, inf, -inf, nan, 1.0f};
  std::mt19937 rng(20261019);
  for (int64_t c = 1; c <= 21; ++c) {
    const Shape big({3, c});
    auto av = RandomValues(big.numel(), &rng, -2.0f, 2.0f);
    auto wv = RandomValues(big.numel(), &rng, -2.0f, 2.0f);
    for (size_t i = 0; i < av.size(); i += 3) {
      av[i] = specials[(i / 3 + c) % specials.size()];
    }
    wv[static_cast<size_t>(c) % wv.size()] = inf;
    for (bool suffix : {false, true}) {
      const Shape small = suffix ? Shape({c}) : big;
      auto bv = RandomValues(small.numel(), &rng, -2.0f, 2.0f);
      for (size_t i = 0; i < bv.size(); ++i) {
        if (i % 4 == 1) bv[i] = specials[(i + c) % specials.size()];
        if (i % 4 == 2) bv[i] = av[i];  // An exact tie with row 0.
      }
      for (bool maximum : {true, false}) {
        for (bool swapped : {false, true}) {
          auto build = [&]() {
            Tensor a = Tensor::FromVector(big, std::vector<float>(av))
                           .set_requires_grad(true);
            Tensor b = Tensor::FromVector(small, std::vector<float>(bv))
                           .set_requires_grad(true);
            const Tensor& lhs = swapped ? b : a;
            const Tensor& rhs = swapped ? a : b;
            Tensor out = maximum ? Maximum(lhs, rhs) : Minimum(lhs, rhs);
            // Weighting the output gives the gradients distinct values.
            out = Mul(out, Tensor::FromVector(big, std::vector<float>(wv)));
            return std::make_pair(out, std::vector<Tensor>{a, b});
          };
          SCOPED_TRACE(testing::Message()
                       << (maximum ? "Maximum" : "Minimum") << " c=" << c
                       << " suffix=" << suffix << " swapped=" << swapped);
          ExpectBitwise(RunOnce(false, build), RunOnce(true, build),
                        "maximum/minimum");
        }
      }
    }
  }
}

// ---- Conv1dTime: bitwise forward AND backward --------------------------------

TEST_F(SimdDifferentialTest, Conv1dTimeBitwiseOverShapesWindowsAndViews) {
  std::mt19937 rng(1019);
  for (int trial = 0; trial < 40; ++trial) {
    std::uniform_int_distribution<int64_t> small(1, 4);
    std::uniform_int_distribution<int64_t> chan(1, 20);
    std::uniform_int_distribution<int64_t> len(1, 8);
    const int64_t batch = small(rng), time = len(rng), nodes = small(rng);
    const int64_t c_in = chan(rng), c_out = chan(rng);
    const int64_t kernel = small(rng) % 3 + 1;
    const int dilation = static_cast<int>(small(rng) % 3 + 1);
    std::uniform_int_distribution<int64_t> steps_dist(1, time);
    const int64_t steps = steps_dist(rng);
    const bool transposed = trial % 3 == 0;  // x arrives as a strided view
    const Shape base_shape = transposed ? Shape({batch, nodes, time, c_in})
                                        : Shape({batch, time, nodes, c_in});
    const auto xv = RandomValues(base_shape.numel(), &rng, -2.0f, 2.0f);
    const auto wv = RandomValues(c_out * c_in * kernel, &rng, -1.0f, 1.0f);
    const auto bv = RandomValues(c_out, &rng, -1.0f, 1.0f);
    const auto dyv =
        RandomValues(batch * steps * nodes * c_out, &rng, -1.0f, 1.0f);
    auto build = [&]() {
      Tensor base = Tensor::FromVector(base_shape, std::vector<float>(xv))
                        .set_requires_grad(true);
      Tensor w = Tensor::FromVector(Shape({c_out, c_in, kernel}),
                                    std::vector<float>(wv))
                     .set_requires_grad(true);
      Tensor b = Tensor::FromVector(Shape({c_out}), std::vector<float>(bv))
                     .set_requires_grad(true);
      const Tensor x = transposed ? Transpose(base, 1, 2) : base;
      Tensor out = Conv1dTime(x, w, b, dilation, steps);
      out = Mul(out, Tensor::FromVector(out.shape(), std::vector<float>(dyv)));
      return std::make_pair(out, std::vector<Tensor>{base, w, b});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    ExpectBitwise(scalar, vec, "conv1d");
  }
}

// ---- Strided / transposed / sliced views ------------------------------------

TEST_F(SimdDifferentialTest, StridedViewsBitwiseElementwise) {
  std::mt19937 rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    // Build a 3-D base, then view it via transpose and/or slice; the strided
    // operand exercises the scalar fallback path inside the op while the
    // other operand may still be contiguous — results must not depend on
    // which internal path ran.
    std::uniform_int_distribution<int64_t> dim(2, 7);
    const int64_t d0 = dim(rng), d1 = dim(rng), d2 = dim(rng);
    const Shape base_shape({d0, d1, d2});
    const auto av = RandomValues(base_shape.numel(), &rng, -2.0f, 2.0f);
    const int mode = trial % 3;
    auto build = [&]() {
      Tensor base = Tensor::FromVector(base_shape, std::vector<float>(av))
                        .set_requires_grad(true);
      Tensor view;
      switch (mode) {
        case 0: view = Transpose(base, 0, 2); break;
        case 1: view = Slice(base, 1, 0, std::max<int64_t>(1, d1 - 1)); break;
        default: view = Transpose(Slice(base, 2, 1, d2), 0, 1); break;
      }
      Tensor out = Mul(Relu(view), Add(view, 1.0f));
      return std::make_pair(out, std::vector<Tensor>{base});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    ExpectBitwise(scalar, vec, "strided elementwise");
  }
}

// ---- Reductions -------------------------------------------------------------

TEST_F(SimdDifferentialTest, MaxMinBitwiseIncludingTiesAndViews) {
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const Shape shape = RandomShape(&rng, 3, 11);
    // Quantized values create cross-lane ties; argmax routing must still be
    // identical, which the gradient comparison proves.
    std::uniform_int_distribution<int> q(-4, 4);
    std::vector<float> av(static_cast<size_t>(shape.numel()));
    for (float& v : av) v = static_cast<float>(q(rng)) * 0.25f;
    std::uniform_int_distribution<int> dim_dist(0, shape.ndim() - 1);
    const int dim = dim_dist(rng);
    const bool is_max = trial % 2 == 0;
    const bool transposed = shape.ndim() >= 2 && trial % 3 == 0;
    auto build = [&]() {
      Tensor a = Tensor::FromVector(shape, std::vector<float>(av))
                     .set_requires_grad(true);
      Tensor x = transposed ? Transpose(a, 0, shape.ndim() - 1) : a;
      const int d = dim % x.ndim();
      Tensor out = is_max ? Max(x, d, false) : Min(x, d, false);
      return std::make_pair(out, std::vector<Tensor>{a});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    ExpectBitwise(scalar, vec, is_max ? "max" : "min");
  }
}

TEST_F(SimdDifferentialTest, SumAndSumDimTightUlp) {
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    const Shape shape = RandomShape(&rng, 3, 17);
    const auto av = RandomValues(shape.numel(), &rng, -3.0f, 3.0f);
    std::uniform_int_distribution<int> dim_dist(0, shape.ndim() - 1);
    const int dim = dim_dist(rng);
    const bool full = trial % 2 == 0;
    const bool transposed = shape.ndim() >= 2 && trial % 3 == 0;
    auto build = [&]() {
      Tensor a = Tensor::FromVector(shape, std::vector<float>(av))
                     .set_requires_grad(true);
      Tensor x = transposed ? Transpose(a, 0, shape.ndim() - 1) : a;
      Tensor out = full ? Sum(x) : Sum(x, dim % x.ndim(), false);
      return std::make_pair(out, std::vector<Tensor>{a});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    // Double accumulation on both sides, reassociated: results agree to a
    // couple ULP after the final float rounding. Sum's backward adds the
    // incoming gradient verbatim, so gradients stay bitwise — covered by
    // the 0-ULP-or-floor bound on grads via max_ulp here.
    ExpectClose(scalar, vec, full ? "sum" : "sum_dim", 2, 1e-30f);
  }
}

TEST_F(SimdDifferentialTest, SoftmaxUlpBoundedForwardAndBackward) {
  std::mt19937 rng(5150);
  for (int trial = 0; trial < 30; ++trial) {
    const Shape shape = RandomShape(&rng, 3, 13);
    const auto av = RandomValues(shape.numel(), &rng, -6.0f, 6.0f);
    std::uniform_int_distribution<int> dim_dist(0, shape.ndim() - 1);
    const int dim = dim_dist(rng);
    const bool transposed = shape.ndim() >= 2 && trial % 4 == 0;
    // Weight the loss so softmax's backward has a non-trivial Jacobian
    // product (Sum alone would make y^T(g - (g.y)1) collapse to 0). The
    // weights are frozen outside build() so both dispatch runs see them.
    const auto frozen_w = RandomValues(shape.numel(), &rng, 0.0f, 1.0f);
    auto frozen_build = [&]() {
      Tensor a = Tensor::FromVector(shape, std::vector<float>(av))
                     .set_requires_grad(true);
      Tensor x = transposed ? Transpose(a, 0, shape.ndim() - 1) : a;
      Tensor w = Tensor::FromVector(x.shape(), std::vector<float>(frozen_w));
      Tensor out = Mul(Softmax(x, dim % x.ndim()), w);
      return std::make_pair(out, std::vector<Tensor>{a});
    };
    const RunResult scalar = RunOnce(false, frozen_build);
    const RunResult vec = RunOnce(true, frozen_build);
    // Polynomial exp vs libm: outputs within tens of ULP; gradients pick up
    // one more rounding through the Jacobian product.
    ExpectClose(scalar, vec, "softmax", 128, 1e-6f);
  }
}

// ---- MatMul -----------------------------------------------------------------

TEST_F(SimdDifferentialTest, MatMulScaledToleranceWithTransposes) {
  std::mt19937 rng(60607);
  for (int trial = 0; trial < 25; ++trial) {
    std::uniform_int_distribution<int64_t> dim(1, 24);
    const int64_t m = dim(rng), k = dim(rng), n = dim(rng);
    const auto av = RandomValues(m * k, &rng, -1.0f, 1.0f);
    const auto bv = RandomValues(k * n, &rng, -1.0f, 1.0f);
    const int mode = trial % 3;  // plain / A^T view / B^T view
    auto build = [&]() {
      Tensor a, b;
      if (mode == 1) {
        a = Tensor::FromVector(Shape({k, m}), std::vector<float>(av))
                .set_requires_grad(true);
      } else {
        a = Tensor::FromVector(Shape({m, k}), std::vector<float>(av))
                .set_requires_grad(true);
      }
      if (mode == 2) {
        b = Tensor::FromVector(Shape({n, k}), std::vector<float>(bv))
                .set_requires_grad(true);
      } else {
        b = Tensor::FromVector(Shape({k, n}), std::vector<float>(bv))
                .set_requires_grad(true);
      }
      const Tensor lhs = mode == 1 ? Transpose(a, 0, 1) : a;
      const Tensor rhs = mode == 2 ? Transpose(b, 0, 1) : b;
      Tensor out = MatMul(lhs, rhs);
      return std::make_pair(out, std::vector<Tensor>{a, b});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    // FMA + 6x16 tiles reassociate the dot products; with inputs in [-1,1]
    // the error scales with k. Backward runs two more GEMMs => same bound
    // with one extra factor.
    const float tol = 1e-6f * static_cast<float>(k + 8);
    ASSERT_EQ(scalar.output.size(), vec.output.size());
    for (size_t i = 0; i < scalar.output.size(); ++i) {
      ASSERT_NEAR(scalar.output[i], vec.output[i], tol)
          << "matmul fwd mode=" << mode << " m=" << m << " k=" << k
          << " n=" << n;
    }
    for (size_t t = 0; t < scalar.grads.size(); ++t) {
      const float gtol = 1e-6f * static_cast<float>(m + n + k + 8);
      for (size_t i = 0; i < scalar.grads[t].size(); ++i) {
        ASSERT_NEAR(scalar.grads[t][i], vec.grads[t][i], gtol)
            << "matmul grad " << t << " mode=" << mode;
      }
    }
  }
}

// ---- Spmm -------------------------------------------------------------------

// Random CSR shapes and densities, 0-2 leading batch dims, and inputs that
// are contiguous, a transposed view or a column slice (Spmm compacts them
// differentiably, so the gradient flows back into the strided base). Output
// and input gradient must match bit for bit across dispatch.
TEST_F(SimdDifferentialTest, SpmmBitwiseOverBatchDimsAndStridedInputs) {
  std::mt19937 rng(8086);
  for (int trial = 0; trial < 40; ++trial) {
    std::uniform_int_distribution<int64_t> dim(1, 40);
    const int64_t n = dim(rng), m = dim(rng), c = dim(rng);
    std::uniform_real_distribution<float> density_dist(0.0f, 0.6f);
    std::bernoulli_distribution keep(density_dist(rng));
    std::uniform_real_distribution<float> value(-2.0f, 2.0f);
    std::vector<int32_t> row_ptr = {0};
    std::vector<int32_t> col_idx;
    std::vector<float> values;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        if (!keep(rng)) continue;
        col_idx.push_back(static_cast<int32_t>(j));
        values.push_back(value(rng));
      }
      row_ptr.push_back(static_cast<int32_t>(col_idx.size()));
    }
    const SparseCsr a = SparseCsr::FromParts(n, m, row_ptr, col_idx, values);

    std::uniform_int_distribution<int> batch_rank(0, 2);
    std::uniform_int_distribution<int64_t> batch_dim(1, 3);
    std::vector<int64_t> batch(static_cast<size_t>(batch_rank(rng)));
    for (auto& d : batch) d = batch_dim(rng);
    const int mode = trial % 3;  // contiguous / transposed / column slice
    std::vector<int64_t> base_dims = batch;
    if (mode == 1) {
      base_dims.insert(base_dims.end(), {c, m});
    } else {
      base_dims.insert(base_dims.end(), {m, mode == 2 ? c + 3 : c});
    }
    const Shape base_shape(base_dims);
    const auto xv = RandomValues(base_shape.numel(), &rng, -2.0f, 2.0f);
    std::vector<int64_t> out_dims = batch;
    out_dims.insert(out_dims.end(), {n, c});
    const Shape out_shape(out_dims);
    const auto wv = RandomValues(out_shape.numel(), &rng, -1.0f, 1.0f);
    const int last = static_cast<int>(base_dims.size()) - 1;
    auto build = [&]() {
      Tensor base = Tensor::FromVector(base_shape, std::vector<float>(xv))
                        .set_requires_grad(true);
      Tensor x;
      switch (mode) {
        case 1: x = Transpose(base, last - 1, last); break;
        case 2: x = Slice(base, last, 2, 2 + c); break;
        default: x = base; break;
      }
      // Weighting the output gives every row of dY a different value.
      const Tensor w = Tensor::FromVector(out_shape, std::vector<float>(wv));
      Tensor out = Mul(Spmm(a, x), w);
      return std::make_pair(out, std::vector<Tensor>{base});
    };
    const RunResult scalar = RunOnce(false, build);
    const RunResult vec = RunOnce(true, build);
    ExpectBitwise(scalar, vec, "spmm");
  }
}

// ---- Special values through tensor-level dispatch ---------------------------

TEST_F(SimdDifferentialTest, SpecialValuesIdenticalAcrossDispatch) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> soup = {0.0f, -0.0f, nan,  inf,   -inf, 1e-41f,
                                   1.0f, -1.0f, 2.5f, -2.5f, nan,  -0.0f};
  const Shape shape({static_cast<int64_t>(soup.size())});
  auto run = [&](bool vec) {
    simd::SetDispatchForTesting(vec);
    Tensor x = Tensor::FromVector(shape, std::vector<float>(soup));
    std::vector<Tensor> outs = {
        Relu(x),           Maximum(x, Neg(x)), Minimum(x, Neg(x)),
        Max(x, 0, false),  Min(x, 0, false),   Softmax(x, 0),
        Add(x, 1.0f),      Abs(x),
    };
    std::vector<std::vector<float>> vals;
    for (const Tensor& t : outs) {
      vals.emplace_back(t.data(), t.data() + t.numel());
    }
    simd::ResetDispatch();
    return vals;
  };
  const auto scalar = run(false);
  const auto vec = run(true);
  ASSERT_EQ(scalar.size(), vec.size());
  for (size_t t = 0; t < scalar.size(); ++t) {
    ASSERT_EQ(scalar[t].size(), vec[t].size()) << "op " << t;
    for (size_t i = 0; i < scalar[t].size(); ++i) {
      if (std::isnan(scalar[t][i])) {
        // NaN-producing arithmetic may differ in payload, never in NaN-ness.
        EXPECT_TRUE(std::isnan(vec[t][i])) << "op " << t << " [" << i << "]";
      } else {
        EXPECT_EQ(Bits(scalar[t][i]), Bits(vec[t][i]))
            << "op " << t << " [" << i << "]: " << scalar[t][i] << " vs "
            << vec[t][i];
      }
    }
  }
}

}  // namespace
}  // namespace stsm
