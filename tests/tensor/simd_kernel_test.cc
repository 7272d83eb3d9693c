// Differential tests for the SIMD kernel table (tensor/simd.h): every
// vectorized kernel runs against its scalar reference across edge sizes,
// remainder tiles, and special values. Bitwise equality is asserted wherever
// the dispatch contract promises it (elementwise, max/min, in-place); sum,
// softmax, and GEMM — which change the flop order — get tight ULP / scaled
// tolerances. On machines without AVX2 the differential cases skip and the
// dispatch-state tests still run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

// Restores the env+CPUID dispatch decision when a test body returns.
struct DispatchGuard {
  ~DispatchGuard() { simd::ResetDispatch(); }
};

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ULP distance between two floats of the same sign regime; NaNs compare
// equal only to bitwise-identical NaNs.
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

std::vector<float> RandomVec(int64_t n, std::mt19937* rng, float lo = -2.0f,
                             float hi = 2.0f) {
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = dist(*rng);
  return v;
}

void ExpectBitwiseVec(const std::vector<float>& a, const std::vector<float>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << " diverges at [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

// Special-value soup covering the classic masked-lane bugs: NaN, ±Inf, ±0.0,
// denormals, and values on both sides of zero, long enough to hit the vector
// body AND the scalar tail.
std::vector<float> SpecialValues() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const float sub = 1e-41f;  // subnormal
  return {0.0f, -0.0f, 1.0f,  -1.0f, nan,   inf,  -inf,  den,
          -den, sub,   -sub,  0.5f,  -0.5f, 2.0f, -2.0f, 100.0f,
          nan,  -inf,  -0.0f, den,   3.5f};
}

// ---- Dispatch state ---------------------------------------------------------

TEST(SimdDispatch, SupportedHasGeometryAndIsa) {
  const simd::KernelTable* t = simd::Supported();
  if (t == nullptr) GTEST_SKIP() << "no SIMD kernels on this machine";
  EXPECT_STREQ(t->isa, "avx2+fma");
  EXPECT_GE(t->gemm_mr, 1);
  EXPECT_GE(t->gemm_nr, 8);
  EXPECT_LE(t->gemm_mr, kGemmMaxMr);
  EXPECT_LE(t->gemm_nr, kGemmMaxNr);
}

TEST(SimdDispatch, SetForTestingTogglesActive) {
  DispatchGuard guard;
  simd::SetDispatchForTesting(false);
  EXPECT_EQ(simd::Active(), nullptr);
  simd::SetDispatchForTesting(true);
  EXPECT_EQ(simd::Active(), simd::Supported());
  simd::ResetDispatch();
  // Default honors the env; tests run without STSM_SIMD=off in this binary's
  // matrix lane, but either value must be one of the two legal states.
  const simd::KernelTable* active = simd::Active();
  EXPECT_TRUE(active == nullptr || active == simd::Supported());
}

// ---- Elementwise kernels: bitwise across sizes ------------------------------

class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = simd::Supported();
    if (table_ == nullptr) GTEST_SKIP() << "no SIMD kernels on this machine";
  }
  void TearDown() override { simd::ResetDispatch(); }

  const simd::KernelTable* table_ = nullptr;
  std::mt19937 rng_{20240807};
};

TEST_F(SimdKernelTest, BinaryKernelsBitwiseAtEverySize) {
  struct Case {
    const char* name;
    simd::BinaryKernel kernel;
    float (*ref)(float, float);
  };
  const Case cases[] = {
      {"add", table_->add, [](float x, float y) { return x + y; }},
      {"sub", table_->sub, [](float x, float y) { return x - y; }},
      {"mul", table_->mul, [](float x, float y) { return x * y; }},
      {"div", table_->div, [](float x, float y) { return x / y; }},
      {"maximum", table_->maximum,
       [](float x, float y) { return x >= y ? x : y; }},
      {"minimum", table_->minimum,
       [](float x, float y) { return x <= y ? x : y; }},
  };
  // 0..17 covers empty, pure-tail, one vector, vector+tail; 64 the body.
  for (const Case& c : cases) {
    for (int64_t n = 0; n <= 17; ++n) {
      const auto a = RandomVec(n, &rng_);
      const auto b = RandomVec(n, &rng_, 0.5f, 2.0f);
      std::vector<float> got(static_cast<size_t>(n), -7.0f);
      std::vector<float> want(static_cast<size_t>(n), -7.0f);
      c.kernel(a.data(), b.data(), got.data(), n);
      for (int64_t i = 0; i < n; ++i) want[i] = c.ref(a[i], b[i]);
      ExpectBitwiseVec(got, want, c.name);
    }
  }
}

TEST_F(SimdKernelTest, UnaryKernelsBitwiseAtEverySize) {
  struct Case {
    const char* name;
    simd::UnaryKernel kernel;
    float p;
    float (*ref)(float, float);
  };
  const Case cases[] = {
      {"neg", table_->neg, 0.0f, [](float v, float) { return -v; }},
      {"relu", table_->relu, 0.0f,
       [](float v, float) { return v > 0.0f ? v : 0.0f; }},
      {"leaky_relu", table_->leaky_relu, 0.01f,
       [](float v, float p) { return v > 0.0f ? v : p * v; }},
      {"square", table_->square, 0.0f, [](float v, float) { return v * v; }},
      {"abs", table_->abs, 0.0f, [](float v, float) { return std::fabs(v); }},
      {"add_scalar", table_->add_scalar, 0.37f,
       [](float v, float p) { return v + p; }},
      {"sub_scalar", table_->sub_scalar, 0.37f,
       [](float v, float p) { return v - p; }},
      {"mul_scalar", table_->mul_scalar, 1.7f,
       [](float v, float p) { return v * p; }},
      {"div_scalar", table_->div_scalar, 1.7f,
       [](float v, float p) { return v / p; }},
  };
  for (const Case& c : cases) {
    for (int64_t n = 0; n <= 17; ++n) {
      const auto x = RandomVec(n, &rng_);
      std::vector<float> got(static_cast<size_t>(n), -7.0f);
      std::vector<float> want(static_cast<size_t>(n), -7.0f);
      c.kernel(x.data(), got.data(), n, c.p);
      for (int64_t i = 0; i < n; ++i) want[i] = c.ref(x[i], c.p);
      ExpectBitwiseVec(got, want, c.name);
    }
  }
}

TEST_F(SimdKernelTest, SqrtBitwiseIncludingNegatives) {
  // sqrt of a negative is NaN in both paths; vsqrtps and std::sqrt are both
  // IEEE correctly-rounded so even the NaN-free lanes must match exactly.
  std::vector<float> x = RandomVec(19, &rng_, -1.0f, 4.0f);
  std::vector<float> got(x.size()), want(x.size());
  table_->sqrt(x.data(), got.data(), static_cast<int64_t>(x.size()), 0.0f);
  for (size_t i = 0; i < x.size(); ++i) want[i] = std::sqrt(x[i]);
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "sqrt(" << x[i] << ")";
    } else {
      EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "sqrt(" << x[i] << ")";
    }
  }
}

TEST_F(SimdKernelTest, InPlaceKernelsBitwise) {
  for (int64_t n : {0, 1, 7, 8, 9, 16, 23}) {
    const auto x0 = RandomVec(n, &rng_);
    const auto y = RandomVec(n, &rng_);
    std::vector<float> got = x0, want = x0;
    table_->axpy(got.data(), y.data(), 0.9f, n);
    for (int64_t i = 0; i < n; ++i) want[i] += 0.9f * y[i];
    ExpectBitwiseVec(got, want, "axpy");

    got = x0;
    want = x0;
    table_->scal(got.data(), -1.3f, n);
    for (int64_t i = 0; i < n; ++i) want[i] *= -1.3f;
    ExpectBitwiseVec(got, want, "scal");

    got = x0;
    want = x0;
    table_->relu_inplace(got.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] = want[i] > 0.0f ? want[i] : 0.0f;
    ExpectBitwiseVec(got, want, "relu_inplace");
  }
}

// ---- Special values through the exact kernels -------------------------------

TEST_F(SimdKernelTest, ElementwiseSpecialValuesBitwise) {
  const std::vector<float> sv = SpecialValues();
  const int64_t n = static_cast<int64_t>(sv.size());
  // Pair every special value against a rotation of the same soup so each
  // lane sees NaN-vs-number, Inf-vs-Inf, -0-vs-+0, denormal-vs-denormal...
  std::vector<float> b(sv.size());
  for (size_t i = 0; i < sv.size(); ++i) b[i] = sv[(i + 7) % sv.size()];

  struct Case {
    const char* name;
    simd::BinaryKernel kernel;
    float (*ref)(float, float);
  };
  const Case cases[] = {
      {"maximum", table_->maximum,
       [](float x, float y) { return x >= y ? x : y; }},
      {"minimum", table_->minimum,
       [](float x, float y) { return x <= y ? x : y; }},
      {"add", table_->add, [](float x, float y) { return x + y; }},
      {"mul", table_->mul, [](float x, float y) { return x * y; }},
      {"div", table_->div, [](float x, float y) { return x / y; }},
  };
  for (const Case& c : cases) {
    std::vector<float> got(sv.size()), want(sv.size());
    c.kernel(sv.data(), b.data(), got.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] = c.ref(sv[i], b[i]);
    for (int64_t i = 0; i < n; ++i) {
      if (std::isnan(want[i])) {
        // NaN payload may legally differ between scalar FP ops and vector
        // arithmetic for COMPUTED NaNs (x+y etc.); for select-style kernels
        // (max/min) the operand is propagated verbatim, which bitwise match
        // below still covers because the ref picks the same operand.
        EXPECT_TRUE(std::isnan(got[i])) << c.name << " at " << i;
      } else {
        EXPECT_EQ(Bits(got[i]), Bits(want[i]))
            << c.name << " at " << i << ": " << sv[i] << " vs " << b[i];
      }
    }
  }
}

TEST_F(SimdKernelTest, ReluMapsNanAndNegativeZeroToPositiveZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x = {nan,   -0.0f, 0.0f, -nan, 1.0f,
                                -1.0f, nan,   -0.0f, 2.0f};
  std::vector<float> got(x.size());
  table_->relu(x.data(), got.data(), static_cast<int64_t>(x.size()), 0.0f);
  for (size_t i = 0; i < x.size(); ++i) {
    const float want = x[i] > 0.0f ? x[i] : 0.0f;
    EXPECT_EQ(Bits(got[i]), Bits(want)) << "relu lane " << i;
  }
}

// ---- Row reductions ---------------------------------------------------------

TEST_F(SimdKernelTest, MaxMinRowBitwiseWithFirstIndexTies) {
  for (int64_t n : {8, 9, 15, 16, 17, 64, 100}) {
    // Quantized values force plenty of exact ties across lanes.
    std::vector<float> x(static_cast<size_t>(n));
    std::uniform_int_distribution<int> dist(-3, 3);
    for (float& v : x) v = static_cast<float>(dist(rng_)) * 0.5f;

    for (bool is_max : {true, false}) {
      float best_want = x[0];
      int64_t arg_want = 0;
      for (int64_t i = 1; i < n; ++i) {
        if (is_max ? (x[i] > best_want) : (x[i] < best_want)) {
          best_want = x[i];
          arg_want = i;
        }
      }
      float best_got = 0.0f;
      int64_t arg_got = -1;
      const bool ok = is_max ? table_->max_row(x.data(), n, &best_got, &arg_got)
                             : table_->min_row(x.data(), n, &best_got, &arg_got);
      ASSERT_TRUE(ok) << "finite row must not be declined, n=" << n;
      EXPECT_EQ(Bits(best_got), Bits(best_want)) << "n=" << n;
      EXPECT_EQ(arg_got, arg_want) << "n=" << n << " is_max=" << is_max;
    }
  }
}

TEST_F(SimdKernelTest, MaxMinRowHandlesSignedZeroAndDenormals) {
  std::vector<float> x = {-0.0f, 0.0f, -0.0f, 0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          -0.0f, 0.0f, 1e-41f, -1e-41f};
  const int64_t n = static_cast<int64_t>(x.size());
  for (bool is_max : {true, false}) {
    float best_want = x[0];
    int64_t arg_want = 0;
    for (int64_t i = 1; i < n; ++i) {
      if (is_max ? (x[i] > best_want) : (x[i] < best_want)) {
        best_want = x[i];
        arg_want = i;
      }
    }
    float best_got = 0.0f;
    int64_t arg_got = -1;
    const bool ok = is_max ? table_->max_row(x.data(), n, &best_got, &arg_got)
                           : table_->min_row(x.data(), n, &best_got, &arg_got);
    ASSERT_TRUE(ok);
    EXPECT_EQ(Bits(best_got), Bits(best_want)) << "is_max=" << is_max;
    EXPECT_EQ(arg_got, arg_want) << "is_max=" << is_max;
  }
}

TEST_F(SimdKernelTest, MaxMinRowDeclinesNanAndShortRows) {
  float best = 0.0f;
  int64_t arg = 0;
  std::vector<float> shorty = {1.0f, 2.0f, 3.0f};
  EXPECT_FALSE(table_->max_row(shorty.data(), 3, &best, &arg));

  std::vector<float> x = RandomVec(20, &rng_);
  x[13] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(table_->max_row(x.data(), 20, &best, &arg));
  EXPECT_FALSE(table_->min_row(x.data(), 20, &best, &arg));
  // NaN in the (scalar) tail is NOT declined: the ordered compare drops it,
  // exactly like the scalar scan when NaN is not at position 0.
  std::vector<float> y = RandomVec(19, &rng_);
  y[17] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(table_->max_row(y.data(), 19, &best, &arg));
  EXPECT_FALSE(std::isnan(best));
}

TEST_F(SimdKernelTest, SumWithinOneUlpOfOrderedReference) {
  for (int64_t n : {0, 1, 7, 8, 9, 33, 100, 1000}) {
    const auto x = RandomVec(n, &rng_, -10.0f, 10.0f);
    double want = 0.0;
    for (int64_t i = 0; i < n; ++i) want += static_cast<double>(x[i]);
    const double got = table_->sum(x.data(), n);
    // Both accumulate in double; only the association differs, so the final
    // float results agree to <= 1 ULP in practice for realistic rows.
    EXPECT_LE(UlpDiff(static_cast<float>(got), static_cast<float>(want)), 1)
        << "n=" << n << " got=" << got << " want=" << want;
  }
}

// ---- Softmax ----------------------------------------------------------------

TEST_F(SimdKernelTest, SoftmaxRowCloseToScalarAndSumsToOne) {
  for (int64_t n : {8, 9, 16, 31, 100}) {
    const auto x = RandomVec(n, &rng_, -8.0f, 8.0f);
    std::vector<float> got(static_cast<size_t>(n));
    ASSERT_TRUE(table_->softmax_row(x.data(), got.data(), n)) << "n=" << n;

    // Scalar reference (same algorithm ops.cc uses).
    float m = -std::numeric_limits<float>::infinity();
    for (int64_t i = 0; i < n; ++i) m = std::max(m, x[i]);
    std::vector<float> want(static_cast<size_t>(n));
    double denom = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      want[i] = std::exp(x[i] - m);
      denom += want[i];
    }
    const float inv = static_cast<float>(1.0 / denom);
    double got_sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      want[i] *= inv;
      got_sum += got[i];
      // Polynomial exp + lane-split denominator: tight ULP bound, with an
      // absolute floor for the tiny tail probabilities.
      EXPECT_TRUE(UlpDiff(got[i], want[i]) <= 64 ||
                  std::fabs(got[i] - want[i]) <= 1e-10f)
          << "n=" << n << " i=" << i << " got=" << got[i]
          << " want=" << want[i];
      EXPECT_GE(got[i], 0.0f);
    }
    EXPECT_NEAR(got_sum, 1.0, 1e-5) << "n=" << n;
  }
}

TEST_F(SimdKernelTest, SoftmaxRowDeclinesNonFiniteAndShortRows) {
  std::vector<float> y(32);
  std::vector<float> shorty = {1.0f, 2.0f};
  EXPECT_FALSE(table_->softmax_row(shorty.data(), y.data(), 2));

  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    for (size_t pos : {0u, 7u, 13u, 31u}) {  // vector body AND tail lanes
      auto x = RandomVec(32, &rng_);
      x[pos] = bad;
      EXPECT_FALSE(table_->softmax_row(x.data(), y.data(), 32))
          << "bad=" << bad << " at " << pos;
    }
  }
}

TEST_F(SimdKernelTest, SoftmaxRowHandlesExtremeSpreadAndDenormals) {
  // A spread wider than exp's flush threshold: the losing entries underflow
  // to 0 (scalar produces a denormal ~e^-100; both normalize to ~0) and the
  // winner takes everything. Also covers denormal INPUTS (fine for exp).
  std::vector<float> x = {-100.0f, 0.0f, -100.0f, -50.0f,
                          1e-41f,  -100.0f, -100.0f, -100.0f, -100.0f};
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<float> got(x.size());
  ASSERT_TRUE(table_->softmax_row(x.data(), got.data(), n));
  double sum = 0.0;
  for (float v : got) {
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-5);
  // The denormal input is ~0, tying with the max entry: the two split the
  // mass evenly and everything at -100 underflows to ~0.
  EXPECT_NEAR(got[1], 0.5f, 1e-5f);
  EXPECT_NEAR(got[4], 0.5f, 1e-5f);
  EXPECT_NEAR(got[0], 0.0f, 1e-20f);
}

// ---- GEMM remainder tiles ---------------------------------------------------

// Every m % MR and n % NR residue (for BOTH tile geometries: 6x16 vector,
// 4x8 scalar), crossed with k below / at / above KC, all checked against the
// naive triple loop. FMA + wider tiles change the flop order, so the oracle
// comparison is tolerance-based, scaled to k.
TEST_F(SimdKernelTest, PackedGemmRemainderTilesMatchNaive) {
  DispatchGuard guard;
  simd::SetDispatchForTesting(true);
  const int64_t mr = table_->gemm_mr;
  const int64_t nr = table_->gemm_nr;
  std::mt19937 rng(7);
  for (int64_t m_res = 0; m_res < mr; ++m_res) {
    for (int64_t n_res = 0; n_res < nr; ++n_res) {
      for (int64_t k : {1, 3, int(kGemmKc), int(kGemmKc) + 5}) {
        const int64_t m = mr + m_res;        // one full tile + residue
        const int64_t n = nr + n_res;
        const auto a = RandomVec(m * k, &rng);
        const auto b = RandomVec(k * n, &rng);
        std::vector<float> got(static_cast<size_t>(m * n), 0.0f);
        std::vector<float> want(static_cast<size_t>(m * n), 0.0f);
        PackedGemm(m, n, k, a.data(), k, 1, b.data(), n, 1, got.data(), n, 1,
                   /*accumulate=*/false);
        NaiveGemm(m, n, k, a.data(), k, 1, b.data(), n, 1, want.data(), n, 1,
                  /*accumulate=*/false);
        const float tol = 1e-5f * static_cast<float>(k);
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(got[i], want[i], tol)
              << "m=" << m << " n=" << n << " k=" << k << " at " << i;
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, PackedGemmDegenerateShapes) {
  DispatchGuard guard;
  for (bool vec : {true, false}) {
    simd::SetDispatchForTesting(vec);
    // k == 0 must zero (overwrite) or preserve (accumulate) C.
    std::vector<float> c = {5.0f, 6.0f};
    float a_dummy = 0.0f, b_dummy = 0.0f;
    PackedGemm(1, 2, 0, &a_dummy, 1, 1, &b_dummy, 2, 1, c.data(), 2, 1,
               /*accumulate=*/false);
    EXPECT_EQ(c[0], 0.0f);
    EXPECT_EQ(c[1], 0.0f);
    c = {5.0f, 6.0f};
    PackedGemm(1, 2, 0, &a_dummy, 1, 1, &b_dummy, 2, 1, c.data(), 2, 1,
               /*accumulate=*/true);
    EXPECT_EQ(c[0], 5.0f);
    EXPECT_EQ(c[1], 6.0f);

    // m == 0 / n == 0: no output, must not touch memory (or crash).
    PackedGemm(0, 2, 3, &a_dummy, 1, 1, &b_dummy, 2, 1, c.data(), 2, 1, false);
    PackedGemm(1, 0, 3, &a_dummy, 1, 1, &b_dummy, 2, 1, c.data(), 2, 1, false);
    EXPECT_EQ(c[0], 5.0f);

    // 1x1x1: the smallest real product.
    float a1 = 3.0f, b1 = -2.0f, c1 = 0.0f;
    PackedGemm(1, 1, 1, &a1, 1, 1, &b1, 1, 1, &c1, 1, 1, false);
    EXPECT_EQ(c1, -6.0f);
  }
}

TEST_F(SimdKernelTest, PackedGemmZeroColumnSkipExactOnSparseOperand) {
  DispatchGuard guard;
  simd::SetDispatchForTesting(true);
  // Adjacency-like A: mostly zero columns. The skip must not change results
  // for finite B (0 * finite == 0 in every grouping).
  std::mt19937 rng(11);
  const int64_t m = 13, n = 21, k = 40;
  auto a = RandomVec(m * k, &rng);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      if (kk % 5 != 0) a[i * k + kk] = 0.0f;
    }
  }
  const auto b = RandomVec(k * n, &rng);
  std::vector<float> got(static_cast<size_t>(m * n));
  std::vector<float> want(static_cast<size_t>(m * n));
  PackedGemm(m, n, k, a.data(), k, 1, b.data(), n, 1, got.data(), n, 1, false);
  NaiveGemm(m, n, k, a.data(), k, 1, b.data(), n, 1, want.data(), n, 1, false);
  for (int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4f) << "at " << i;
  }
}

// ---- Shared-operand GEMM ----------------------------------------------------

// Operands for the shared-operand GEMM checks: A with all-zero columns (the
// microkernel's skip) and signed zeros, B with ±0, ±Inf and NaN. A zero A
// column against an Inf or NaN in B is where the skip shows, so a shared
// call must group A rows into exactly the panels a per-slice call does.
struct SharedGemmOperands {
  int64_t m, n, k, slices;
  bool trans_a;
  std::vector<float> a;      // [m, k] row-major, or [k, m] when trans_a
  std::vector<float> b;      // [2 * slices, k, n + 2]: slice s is t = 2s+1
  std::vector<float> c;      // [slices, m, n + 1] initial values
  int64_t rs_a() const { return trans_a ? 1 : k; }
  int64_t cs_a() const { return trans_a ? m : 1; }
  int64_t rs_b() const { return n + 2; }
  const float* b_slice(int64_t s) const {
    return b.data() + (2 * s + 1) * k * (n + 2);
  }
  int64_t rs_c() const { return n + 1; }
  int64_t c_stride() const { return m * (n + 1); }
};

SharedGemmOperands MakeSharedGemmOperands(int64_t m, int64_t n, int64_t k,
                                          int64_t slices, bool trans_a,
                                          std::mt19937* rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  SharedGemmOperands op{m, n, k, slices, trans_a, {}, {}, {}};
  op.a = RandomVec(m * k, rng);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float& v = op.a[i * op.rs_a() + kk * op.cs_a()];
      if (kk % 3 == 0) v = 0.0f;            // all-zero column
      if ((i + kk) % 7 == 1) v = -0.0f;
    }
  }
  op.b = RandomVec(2 * slices * k * (n + 2), rng);
  const float specials[] = {0.0f, -0.0f, inf, -inf, nan};
  for (size_t i = 0; i < op.b.size(); i += 29) {
    op.b[i] = specials[(i / 29) % 5];
  }
  op.c = RandomVec(slices * op.c_stride(), rng);
  for (size_t i = 0; i < op.c.size(); i += 5) op.c[i] = -0.0f;
  return op;
}

// The reference: one PackedGemm per slice, as MatMul ran it before the
// shared-operand path.
std::vector<float> PerSliceGemm(const SharedGemmOperands& op,
                                bool accumulate) {
  std::vector<float> c = op.c;
  for (int64_t s = 0; s < op.slices; ++s) {
    PackedGemm(op.m, op.n, op.k, op.a.data(), op.rs_a(), op.cs_a(),
               op.b_slice(s), op.rs_b(), 1, c.data() + s * op.c_stride(),
               op.rs_c(), 1, accumulate);
  }
  return c;
}

// PackedGemmShared over slices [begin, end) of `op`, into `c`.
void SharedGemm(const SharedGemmOperands& op, int64_t begin, int64_t end,
                bool accumulate, std::vector<float>* c) {
  std::vector<GemmSlice> list;
  for (int64_t s = begin; s < end; ++s) {
    list.push_back({op.b_slice(s), c->data() + s * op.c_stride()});
  }
  PackedGemmShared(op.m, op.n, op.k, op.a.data(), DType::kF32, op.rs_a(),
                   op.cs_a(), DType::kF32, op.rs_b(), 1, list.data(),
                   end - begin, op.rs_c(), 1, accumulate);
}

void ExpectMemEqual(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

// Every m % MR and n % NR class, k below and above KC, A plain and
// transposed (MatMul's dX = Aᵀ·dY), strided B slices, accumulate on and
// off, both dispatch modes: the shared call equals the per-slice loop
// byte for byte.
TEST_F(SimdKernelTest, PackedGemmSharedMatchesPerSliceLoop) {
  DispatchGuard guard;
  std::mt19937 rng(2027);
  for (bool vec : {false, true}) {
    simd::SetDispatchForTesting(vec);
    const int64_t mr = vec ? table_->gemm_mr : kGemmMr;
    const int64_t nr = vec ? table_->gemm_nr : kGemmNr;
    for (int64_t m : {int64_t{1}, mr + 1, 3 * mr + 2, kGemmRowBlock}) {
      for (int64_t n : {nr - 3, nr + 5, 2 * nr + 1}) {
        for (int64_t k : {int64_t{9}, kGemmKc + 7}) {
          for (bool trans_a : {false, true}) {
            const auto op = MakeSharedGemmOperands(m, n, k, 5, trans_a, &rng);
            for (bool accumulate : {false, true}) {
              std::vector<float> got = op.c;
              SharedGemm(op, 0, op.slices, accumulate, &got);
              ExpectMemEqual(got, PerSliceGemm(op, accumulate),
                             "m=" + std::to_string(m) + " n=" +
                                 std::to_string(n) + " k=" +
                                 std::to_string(k) + " trans_a=" +
                                 std::to_string(trans_a) + " acc=" +
                                 std::to_string(accumulate) +
                                 (vec ? " simd" : " scalar"));
            }
          }
        }
      }
    }
  }
}

// The slice list split across 1-4 pool threads (each chunk one shared call
// with its own thread_local pack buffers) still equals the per-slice loop.
TEST_F(SimdKernelTest, PackedGemmSharedIndependentOfSplitAndThreads) {
  DispatchGuard guard;
  std::mt19937 rng(77);
  const auto op = MakeSharedGemmOperands(kGemmRowBlock - 1, 37, 84, 24,
                                         /*trans_a=*/true, &rng);
  for (bool vec : {false, true}) {
    simd::SetDispatchForTesting(vec);
    const std::vector<float> want = PerSliceGemm(op, /*accumulate=*/true);
    for (int threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      std::vector<float> got = op.c;
      pool.ParallelFor(0, op.slices, [&](int64_t begin, int64_t end) {
        SharedGemm(op, begin, end, /*accumulate=*/true, &got);
      });
      ExpectMemEqual(got, want,
                     std::to_string(threads) + " threads" +
                         (vec ? " simd" : " scalar"));
    }
  }
}

// MatMul's shared-operand forward and its dB = Aᵀ·dC backward, for a fully
// broadcast A and partially broadcast ones (several distinct A matrices,
// repeated consecutively or interleaved), against a B that is a time-slice
// view: output and B's gradient equal the per-slice PackedGemm loop.
TEST_F(SimdKernelTest, MatMulSharedOperandMatchesPerSliceGemm) {
  DispatchGuard guard;
  std::mt19937 rng(4242);
  const int64_t m = 70, k = 84, n = 19;  // two row blocks, one partial
  struct Layout {
    std::vector<int64_t> a_batch;  // A's batch dims (broadcast to [2, 3])
    const char* name;
  };
  const Layout layouts[] = {{{}, "shared"},
                            {{2, 1}, "grouped"},
                            {{1, 3}, "interleaved"},
                            {{2, 3}, "unshared"}};
  for (bool vec : {false, true}) {
    simd::SetDispatchForTesting(vec);
    for (const Layout& layout : layouts) {
      std::vector<int64_t> a_dims = layout.a_batch;
      a_dims.insert(a_dims.end(), {m, k});
      const Shape a_shape(a_dims);
      std::vector<float> av = RandomVec(a_shape.numel(), &rng);
      for (size_t i = 0; i < av.size(); i += 3) av[i] = 0.0f;
      const std::vector<float> bv = RandomVec(2 * 5 * k * n, &rng);
      const std::vector<float> wv = RandomVec(2 * 3 * m * n, &rng);

      const Tensor a = Tensor::FromVector(a_shape, std::vector<float>(av));
      Tensor b_base =
          Tensor::FromVector(Shape({2, 5, k, n}), std::vector<float>(bv))
              .set_requires_grad(true);
      const Tensor b = Slice(b_base, 1, 2, 5);  // [2, 3, k, n] view
      const Tensor out = MatMul(a, b);
      const Tensor w =
          Tensor::FromVector(Shape({2, 3, m, n}), std::vector<float>(wv));
      Sum(Mul(out, w)).Backward();

      // Reference: per output batch (i, j), A's matrix and B's view slice,
      // one PackedGemm per 64-row block, forward and dB.
      std::vector<float> want_out(static_cast<size_t>(2 * 3 * m * n));
      std::vector<float> want_gb(bv.size(), 0.0f);
      for (int64_t i = 0; i < 2; ++i) {
        for (int64_t j = 0; j < 3; ++j) {
          const int64_t ai = layout.a_batch.empty()
                                 ? 0
                                 : (layout.a_batch[0] == 2 ? i : 0) *
                                           layout.a_batch[1] +
                                       (layout.a_batch[1] == 3 ? j : 0);
          const float* am = av.data() + ai * m * k;
          const int64_t b_off = (i * 5 + 2 + j) * k * n;
          const int64_t batch = i * 3 + j;
          for (int64_t i0 = 0; i0 < m; i0 += kGemmRowBlock) {
            PackedGemm(std::min(kGemmRowBlock, m - i0), n, k, am + i0 * k, k,
                       1, bv.data() + b_off, n, 1,
                       want_out.data() + (batch * m + i0) * n, n, 1, false);
          }
          for (int64_t k0 = 0; k0 < k; k0 += kGemmRowBlock) {
            PackedGemm(std::min(kGemmRowBlock, k - k0), n, m, am + k0, 1, k,
                       wv.data() + batch * m * n, n, 1,
                       want_gb.data() + b_off + k0 * n, n, 1, true);
          }
        }
      }
      const std::string what =
          std::string(layout.name) + (vec ? " simd" : " scalar");
      ExpectMemEqual(std::vector<float>(out.data(), out.data() + out.numel()),
                     want_out, what + " forward");
      ExpectMemEqual(std::vector<float>(b_base.grad_data(),
                                        b_base.grad_data() + b_base.numel()),
                     want_gb, what + " dB");
    }
  }
}

// ---- Dispatch-path equivalence at the tensor level --------------------------

TEST_F(SimdKernelTest, TensorOpsBitwiseAcrossDispatch) {
  DispatchGuard guard;
  std::mt19937 rng(99);
  const Shape shape({3, 7, 5});  // 105 elements: vector body + tail
  const auto av = RandomVec(shape.numel(), &rng);
  const auto bv = RandomVec(shape.numel(), &rng, 0.5f, 2.0f);
  const Tensor a = Tensor::FromVector(shape, std::vector<float>(av));
  const Tensor b = Tensor::FromVector(shape, std::vector<float>(bv));

  auto run_all = [&](bool vec) {
    simd::SetDispatchForTesting(vec);
    std::vector<Tensor> outs;
    outs.push_back(Add(a, b));
    outs.push_back(Sub(a, b));
    outs.push_back(Mul(a, b));
    outs.push_back(Div(a, b));
    outs.push_back(Maximum(a, b));
    outs.push_back(Minimum(a, b));
    outs.push_back(Relu(a));
    outs.push_back(LeakyRelu(a, 0.1f));
    outs.push_back(Neg(a));
    outs.push_back(Square(a));
    outs.push_back(Abs(a));
    outs.push_back(Sqrt(Abs(a)));
    outs.push_back(Add(a, 0.25f));
    outs.push_back(Sub(a, 0.25f));
    outs.push_back(Mul(a, 1.75f));
    outs.push_back(Div(a, 1.75f));
    outs.push_back(Max(a, 1, false));
    outs.push_back(Min(a, 2, false));
    return outs;
  };
  const auto scalar_out = run_all(false);
  const auto vector_out = run_all(true);
  ASSERT_EQ(scalar_out.size(), vector_out.size());
  for (size_t t = 0; t < scalar_out.size(); ++t) {
    const int64_t n = scalar_out[t].numel();
    ASSERT_EQ(n, vector_out[t].numel()) << "op " << t;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(scalar_out[t].data()[i]), Bits(vector_out[t].data()[i]))
          << "op " << t << " element " << i;
    }
  }
}

// ---- CSR gather (spmm_rows) --------------------------------------------------

// The scalar SpMM kernels' exact loop (sparse.cc SpmmRowsKernel for the
// overwrite mode, SpmmBackwardKernel for the accumulate mode).
void ReferenceSpmmRows(const int32_t* row_ptr, const int32_t* col_idx,
                       const float* values, const float* x, float* y,
                       int64_t row_begin, int64_t row_end, int64_t c,
                       bool accumulate) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* yrow = y + i * c;
    if (!accumulate) std::fill(yrow, yrow + c, 0.0f);
    for (int32_t p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const float* xrow = x + static_cast<int64_t>(col_idx[p]) * c;
      for (int64_t cc = 0; cc < c; ++cc) yrow[cc] += values[p] * xrow[cc];
    }
  }
}

// 7 x 6 pattern with empty rows (0, 3), a one-nonzero row (1), an empty
// column (2) and rows of 2-5 nonzeros.
struct CsrPattern {
  int64_t rows = 7;
  int64_t cols = 6;
  std::vector<int32_t> row_ptr = {0, 0, 1, 5, 5, 8, 10, 15};
  std::vector<int32_t> col_idx = {3, 0, 1, 4, 5, 0, 3, 4, 1, 5, 0, 1, 3, 4, 5};
};

// Widths: every tail 1-17 (pure scalar tail, 8-tile, 16-tile + tails) plus
// 8-tile-only, two 16-tiles.
std::vector<int64_t> SpmmWidths() {
  std::vector<int64_t> widths;
  for (int64_t c = 1; c <= 17; ++c) widths.push_back(c);
  widths.push_back(24);
  widths.push_back(32);
  return widths;
}

// NaN outputs must be NaN on both paths; their payload is not compared: when
// two different NaNs meet in one add, x86 keeps the first operand's and the
// compiler chooses operand order for either path (the elementwise tests
// apply the same rule). Every other output is compared bit for bit.
void ExpectSameOrBothNan(const std::vector<float>& want,
                         const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << what << " at " << i;
    } else {
      ASSERT_EQ(Bits(want[i]), Bits(got[i]))
          << what << " diverges at [" << i << "]: " << want[i] << " vs "
          << got[i];
    }
  }
}

TEST_F(SimdKernelTest, SpmmRowsBitwiseAtEveryWidthBothModes) {
  const CsrPattern a;
  const auto values = RandomVec(a.row_ptr.back(), &rng_);
  for (int64_t c : SpmmWidths()) {
    SCOPED_TRACE(c);
    const auto x = RandomVec(a.cols * c, &rng_);
    const auto y0 = RandomVec(a.rows * c, &rng_);
    for (bool accumulate : {false, true}) {
      std::vector<float> got = y0, want = y0;
      table_->spmm_rows(a.row_ptr.data(), a.col_idx.data(), values.data(),
                        x.data(), got.data(), 0, a.rows, c, accumulate);
      ReferenceSpmmRows(a.row_ptr.data(), a.col_idx.data(), values.data(),
                        x.data(), want.data(), 0, a.rows, c, accumulate);
      ExpectBitwiseVec(got, want, accumulate ? "accumulate" : "overwrite");
    }
    // A sub-range leaves the rows outside it untouched.
    std::vector<float> got = y0;
    table_->spmm_rows(a.row_ptr.data(), a.col_idx.data(), values.data(),
                      x.data(), got.data(), 2, 5, c, false);
    for (int64_t i = 0; i < c * 2; ++i) ASSERT_EQ(Bits(got[i]), Bits(y0[i]));
    for (int64_t i = c * 5; i < c * a.rows; ++i) {
      ASSERT_EQ(Bits(got[i]), Bits(y0[i]));
    }
  }
}

// Forward Y = A X and backward dX = Aᵀ dY through Spmm, run under scalar
// and vector dispatch. Returns {Y, dX}; dY = w.
std::pair<std::vector<float>, std::vector<float>> SpmmForwardBackward(
    bool vectorized, const SparseCsr& a, const std::vector<float>& x,
    const std::vector<float>& w, int64_t c) {
  simd::SetDispatchForTesting(vectorized);
  Tensor xt = Tensor::FromVector(Shape({a.cols(), c}), std::vector<float>(x))
                  .set_requires_grad(true);
  const Tensor wt =
      Tensor::FromVector(Shape({a.rows(), c}), std::vector<float>(w));
  const Tensor y = Spmm(a, xt);
  Sum(Mul(y, wt)).Backward();
  std::pair<std::vector<float>, std::vector<float>> out{
      std::vector<float>(y.data(), y.data() + y.numel()),
      std::vector<float>(xt.grad_data(), xt.grad_data() + xt.numel())};
  simd::ResetDispatch();
  return out;
}

TEST_F(SimdKernelTest, SpmmForwardBackwardBitwiseAcrossDispatch) {
  DispatchGuard guard;
  const CsrPattern p;
  const SparseCsr a = SparseCsr::FromParts(
      p.rows, p.cols, p.row_ptr, p.col_idx, RandomVec(p.row_ptr.back(), &rng_));
  for (int64_t c : SpmmWidths()) {
    SCOPED_TRACE(c);
    const auto x = RandomVec(p.cols * c, &rng_);
    const auto w = RandomVec(p.rows * c, &rng_);
    const auto scalar = SpmmForwardBackward(false, a, x, w, c);
    const auto vector = SpmmForwardBackward(true, a, x, w, c);
    ExpectBitwiseVec(scalar.first, vector.first, "Y");
    ExpectBitwiseVec(scalar.second, vector.second, "dX");
    // The empty column's gradient row stays exactly zero.
    for (int64_t cc = 0; cc < c; ++cc) {
      ASSERT_EQ(Bits(vector.second[2 * c + cc]), Bits(0.0f));
    }
  }
}

TEST_F(SimdKernelTest, SpmmSpecialValuesAcrossDispatch) {
  DispatchGuard guard;
  const CsrPattern p;
  // ±0.0, denormals, ±Inf and NaN in the matrix values, the input and the
  // incoming gradient, rotated so each width sees different pairings.
  const std::vector<float> sv = SpecialValues();
  auto soup = [&](int64_t n, size_t offset) {
    std::vector<float> v(static_cast<size_t>(n));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = sv[(i * 5 + offset) % sv.size()];
    }
    return v;
  };
  const SparseCsr a = SparseCsr::FromParts(p.rows, p.cols, p.row_ptr,
                                           p.col_idx, soup(p.row_ptr.back(), 0));
  for (int64_t c : SpmmWidths()) {
    SCOPED_TRACE(c);
    const auto x = soup(p.cols * c, static_cast<size_t>(c));
    const auto w = soup(p.rows * c, static_cast<size_t>(c) + 3);
    const auto scalar = SpmmForwardBackward(false, a, x, w, c);
    const auto vector = SpmmForwardBackward(true, a, x, w, c);
    ExpectSameOrBothNan(scalar.first, vector.first, "Y");
    ExpectSameOrBothNan(scalar.second, vector.second, "dX");
  }
  // Finite special values alone (±0.0, denormals) have no NaN to excuse:
  // fully bitwise, including a -0.0 product landing on a +0.0 start.
  const float den = std::numeric_limits<float>::denorm_min();
  const std::vector<float> finite = {0.0f, -0.0f, den, -den, 1e-41f, -1e-41f,
                                     1.0f, -1.0f, 0.5f};
  auto finite_soup = [&](int64_t n, size_t offset) {
    std::vector<float> v(static_cast<size_t>(n));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = finite[(i * 5 + offset) % finite.size()];
    }
    return v;
  };
  const SparseCsr af = SparseCsr::FromParts(
      p.rows, p.cols, p.row_ptr, p.col_idx, finite_soup(p.row_ptr.back(), 1));
  for (int64_t c : SpmmWidths()) {
    SCOPED_TRACE(c);
    const auto x = finite_soup(p.cols * c, static_cast<size_t>(c));
    const auto w = finite_soup(p.rows * c, static_cast<size_t>(c) + 2);
    const auto scalar = SpmmForwardBackward(false, af, x, w, c);
    const auto vector = SpmmForwardBackward(true, af, x, w, c);
    ExpectBitwiseVec(scalar.first, vector.first, "Y finite specials");
    ExpectBitwiseVec(scalar.second, vector.second, "dX finite specials");
  }
}

// ---- Temporal convolution and gradient accumulators ------------------------

// Conv1dTime's scalar forward loop for one (b, t) slab, reading the weight
// in its own [C_out, C_in, K] layout: the oracle for conv_time_rows, which
// reads the [K][C_in][C_out] repack.
void ReferenceConvTimeRows(const float* x_b, const float* w, const float* bias,
                           float* y, int64_t t, int64_t dilation,
                           int64_t kernel, int64_t nodes, int64_t c_in,
                           int64_t c_out) {
  for (int64_t n = 0; n < nodes; ++n) {
    for (int64_t co = 0; co < c_out; ++co) {
      y[n * c_out + co] = bias != nullptr ? bias[co] : 0.0f;
    }
  }
  for (int64_t kk = 0; kk < kernel; ++kk) {
    const int64_t t_in = t - (kernel - 1 - kk) * dilation;
    if (t_in < 0) continue;
    for (int64_t n = 0; n < nodes; ++n) {
      const float* x_row = x_b + (t_in * nodes + n) * c_in;
      for (int64_t co = 0; co < c_out; ++co) {
        float acc = 0.0f;
        for (int64_t ci = 0; ci < c_in; ++ci) {
          acc += w[(co * c_in + ci) * kernel + kk] * x_row[ci];
        }
        y[n * c_out + co] += acc;
      }
    }
  }
}

std::vector<float> PackConvWeight(const std::vector<float>& w, int64_t c_out,
                                  int64_t c_in, int64_t kernel) {
  std::vector<float> packed(w.size());
  for (int64_t co = 0; co < c_out; ++co) {
    for (int64_t ci = 0; ci < c_in; ++ci) {
      for (int64_t kk = 0; kk < kernel; ++kk) {
        packed[(kk * c_in + ci) * c_out + co] =
            w[(co * c_in + ci) * kernel + kk];
      }
    }
  }
  return packed;
}

// Channel counts: every tail 1-17 on both sides (scalar tail, 8-tile,
// 16-tile + tails) plus 24 and 32.
TEST_F(SimdKernelTest, ConvTimeRowsBitwiseAtEveryWidth) {
  const int64_t time = 4, nodes = 3;
  for (int64_t c : SpmmWidths()) {
    for (int64_t c_in : {int64_t{1}, c}) {
      const int64_t c_out = c;
      for (int64_t kernel = 1; kernel <= 3; ++kernel) {
        SCOPED_TRACE("c_in " + std::to_string(c_in) + " c_out " +
                     std::to_string(c_out) + " K " + std::to_string(kernel));
        const auto x = RandomVec(time * nodes * c_in, &rng_);
        const auto w = RandomVec(c_out * c_in * kernel, &rng_);
        const auto bias = RandomVec(c_out, &rng_);
        const auto packed = PackConvWeight(w, c_out, c_in, kernel);
        for (int64_t dilation : {1, 2}) {
          for (int64_t t = 0; t < time; ++t) {
            for (const float* b : {bias.data(), static_cast<const float*>(nullptr)}) {
              std::vector<float> got(nodes * c_out, 7.0f);
              std::vector<float> want(nodes * c_out, 7.0f);
              table_->conv_time_rows(x.data(), packed.data(), b, got.data(), t,
                                     dilation, kernel, nodes, c_in, c_out);
              ReferenceConvTimeRows(x.data(), w.data(), b, want.data(), t,
                                    dilation, kernel, nodes, c_in, c_out);
              ExpectBitwiseVec(got, want, "conv_time_rows");
            }
          }
        }
      }
    }
  }
}

TEST_F(SimdKernelTest, ConvTimeRowsSpecialValues) {
  const int64_t time = 3, nodes = 2, kernel = 2;
  const std::vector<float> sv = SpecialValues();
  auto soup = [&](int64_t n, size_t offset) {
    std::vector<float> v(static_cast<size_t>(n));
    for (size_t i = 0; i < v.size(); ++i) v[i] = sv[(i * 5 + offset) % sv.size()];
    return v;
  };
  for (int64_t c : SpmmWidths()) {
    SCOPED_TRACE(c);
    const auto x = soup(time * nodes * c, static_cast<size_t>(c));
    const auto w = soup(c * c * kernel, static_cast<size_t>(c) + 1);
    const auto bias = soup(c, 2);
    const auto packed = PackConvWeight(w, c, c, kernel);
    for (int64_t t = 0; t < time; ++t) {
      std::vector<float> got(nodes * c), want(nodes * c);
      table_->conv_time_rows(x.data(), packed.data(), bias.data(), got.data(),
                             t, 1, kernel, nodes, c, c);
      ReferenceConvTimeRows(x.data(), w.data(), bias.data(), want.data(), t, 1,
                            kernel, nodes, c, c);
      ExpectSameOrBothNan(want, got, "conv_time_rows specials");
    }
  }
}

// rows_axpy against its axpy-chain definition, for the operand layouts its
// callers use (a row-major: dX; a transposed: dW; one stride-0 coefficient:
// the bias gradients), with zeros in a (skipped terms) and every width's
// tail.
TEST_F(SimdKernelTest, RowsAxpyBitwiseAtEveryWidthAllLayouts) {
  const std::vector<float> sv = SpecialValues();
  for (int64_t c : SpmmWidths()) {
    for (int layout = 0; layout < 3; ++layout) {
      const bool transposed = layout == 1;
      const bool broadcast = layout == 2;
      for (bool specials : {false, true}) {
        SCOPED_TRACE(std::to_string(c) + " layout " + std::to_string(layout) +
                     (specials ? " specials" : ""));
        const int64_t rows = broadcast ? 1 : 5, inner = 7;
        auto a = RandomVec(rows * inner, &rng_);
        auto b = RandomVec(inner * c, &rng_);
        for (size_t i = 0; i < a.size(); i += 4) a[i] = i % 8 ? -0.0f : 0.0f;
        if (specials) {
          for (size_t i = 1; i < b.size(); i += 6) b[i] = sv[i % sv.size()];
          for (size_t i = 2; i < a.size(); i += 9) a[i] = sv[i % sv.size()];
        }
        if (broadcast) a[0] = -1.0f;
        const int64_t a_row = broadcast ? 0 : (transposed ? 1 : inner);
        const int64_t a_col = broadcast ? 0 : (transposed ? rows : 1);
        const auto y0 = RandomVec(rows * c, &rng_);
        std::vector<float> got = y0, want = y0;
        table_->rows_axpy(a.data(), a_row, a_col, b.data(), got.data(), rows,
                          inner, c);
        for (int64_t i = 0; i < rows; ++i) {
          for (int64_t j = 0; j < inner; ++j) {
            const float s = a[i * a_row + j * a_col];
            if (s == 0.0f) continue;
            for (int64_t cc = 0; cc < c; ++cc) {
              want[i * c + cc] += s * b[j * c + cc];
            }
          }
        }
        ExpectSameOrBothNan(want, got, "rows_axpy");
      }
    }
  }
}

TEST_F(SimdKernelTest, MulAccBitwiseAtEverySize) {
  for (int64_t n = 0; n <= 41; ++n) {
    SCOPED_TRACE(n);
    const auto y = RandomVec(n, &rng_);
    const auto z = RandomVec(n, &rng_);
    const auto x0 = RandomVec(n, &rng_);
    std::vector<float> got = x0, want = x0;
    table_->mul_acc(got.data(), y.data(), z.data(), n);
    for (int64_t i = 0; i < n; ++i) want[i] += y[i] * z[i];
    ExpectBitwiseVec(got, want, "mul_acc");
  }
  const std::vector<float> sv = SpecialValues();
  const int64_t n = static_cast<int64_t>(sv.size());
  std::vector<float> y(sv), z(n), got(n), want(n);
  for (int64_t i = 0; i < n; ++i) {
    z[i] = sv[(i * 7 + 3) % n];
    got[i] = want[i] = sv[(i * 5 + 1) % n];
  }
  table_->mul_acc(got.data(), y.data(), z.data(), n);
  for (int64_t i = 0; i < n; ++i) want[i] += y[i] * z[i];
  ExpectSameOrBothNan(want, got, "mul_acc specials");
}

// Maximum's and Minimum's gradient kernel against the scalar loop at every
// width 1-21 (vector body and tail), over ±0, ±Inf, NaN, denormals and ties,
// in both argument orders and with both {t, f} selections.
TEST_F(SimdKernelTest, SelectGeAccBitwiseAtEveryWidth) {
  const std::vector<float> sv = SpecialValues();
  const int64_t ns = static_cast<int64_t>(sv.size());
  for (int64_t n = 1; n <= 21; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<float> u = RandomVec(n, &rng_);
      std::vector<float> v = RandomVec(n, &rng_);
      std::vector<float> y = RandomVec(n, &rng_);
      const std::vector<float> x0 = RandomVec(n, &rng_);
      for (int64_t i = 0; i < n; ++i) {
        if (variant >= 1) {  // Specials in the compared operands.
          u[i] = sv[(i * 5 + n) % ns];
          v[i] = sv[(i * 3 + 2 * n + variant) % ns];
        }
        if (variant == 2) y[i] = sv[(i * 7 + 1) % ns];  // And in gout.
        if (i % 4 == 3) v[i] = u[i];                     // Exact ties.
      }
      for (const auto& [t, f] :
           std::vector<std::pair<float, float>>{{1.0f, 0.0f}, {0.0f, 1.0f}}) {
        for (bool swapped : {false, true}) {
          const std::vector<float>& first = swapped ? v : u;
          const std::vector<float>& second = swapped ? u : v;
          std::vector<float> got = x0, want = x0;
          table_->select_ge_acc(got.data(), y.data(), first.data(),
                                second.data(), t, f, n);
          for (int64_t i = 0; i < n; ++i) {
            want[i] += y[i] * (first[i] >= second[i] ? t : f);
          }
          SCOPED_TRACE(testing::Message() << "n=" << n << " variant="
                                          << variant << " t=" << t
                                          << " swapped=" << swapped);
          ExpectBitwiseVec(got, want, "select_ge_acc");
        }
      }
    }
  }
}

// Conv1dTime forward and all three gradients through both dispatch modes,
// for full-length and windowed outputs. Returns {y, dX, dW, db}.
std::vector<std::vector<float>> ConvForwardBackward(
    bool vectorized, const std::vector<float>& x, const std::vector<float>& w,
    const std::vector<float>& b, const std::vector<float>& dy,
    const Shape& x_shape, const Shape& w_shape, int dilation, int64_t steps) {
  simd::SetDispatchForTesting(vectorized);
  Tensor xt = Tensor::FromVector(x_shape, std::vector<float>(x))
                  .set_requires_grad(true);
  Tensor wt = Tensor::FromVector(w_shape, std::vector<float>(w))
                  .set_requires_grad(true);
  Tensor bt = Tensor::FromVector(Shape({w_shape[0]}), std::vector<float>(b))
                  .set_requires_grad(true);
  const Tensor y = Conv1dTime(xt, wt, bt, dilation, steps);
  Sum(Mul(y, Tensor::FromVector(y.shape(), std::vector<float>(dy))))
      .Backward();
  std::vector<std::vector<float>> out = {
      std::vector<float>(y.data(), y.data() + y.numel()),
      std::vector<float>(xt.grad_data(), xt.grad_data() + xt.numel()),
      std::vector<float>(wt.grad_data(), wt.grad_data() + wt.numel()),
      std::vector<float>(bt.grad_data(), bt.grad_data() + bt.numel())};
  simd::ResetDispatch();
  return out;
}

TEST_F(SimdKernelTest, Conv1dTimeForwardBackwardBitwiseAcrossDispatch) {
  DispatchGuard guard;
  const char* names[] = {"y", "dX", "dW", "db"};
  const std::vector<float> sv = SpecialValues();
  for (bool specials : {false, true}) {
    for (int64_t c : {1, 3, 8, 16, 17}) {
      for (int64_t kernel : {1, 2, 3}) {
        for (int dilation : {1, 2}) {
          const int64_t batch = 2, time = 6, nodes = 5;
          const int64_t steps = 1 + (c + kernel + dilation) % time;
          SCOPED_TRACE("c " + std::to_string(c) + " K " +
                       std::to_string(kernel) + " d " +
                       std::to_string(dilation) + " S " +
                       std::to_string(steps) + (specials ? " specials" : ""));
          const Shape x_shape({batch, time, nodes, c});
          const Shape w_shape({c, c, kernel});
          auto values = [&](int64_t n, size_t offset) {
            std::vector<float> v = RandomVec(n, &rng_);
            if (specials) {
              for (size_t i = offset % 9; i < v.size(); i += 9) {
                v[i] = sv[(i + offset) % sv.size()];
              }
            }
            return v;
          };
          const auto x = values(x_shape.numel(), 1);
          const auto w = values(w_shape.numel(), 2);
          const auto b = values(c, 3);
          const auto dy = values(batch * steps * nodes * c, 4);
          const auto scalar = ConvForwardBackward(false, x, w, b, dy, x_shape,
                                                  w_shape, dilation, steps);
          const auto vector = ConvForwardBackward(true, x, w, b, dy, x_shape,
                                                  w_shape, dilation, steps);
          for (size_t i = 0; i < scalar.size(); ++i) {
            ExpectSameOrBothNan(scalar[i], vector[i], names[i]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace stsm
