// Bitwise pins for kernels whose speed work must not move a bit:
//  - softmax_row against a checksum of its output taken before its partial
//    final block stopped padding with -FLT_MAX (exact-length heap rows, so a
//    sanitizer build sees any read or write past a row);
//  - PackedGemm's unit-stride A pack and row-major C write-back against the
//    strided paths, on shapes with remainder tiles and more than one k-block;
//  - Contiguous, forward and backward, against a per-element index table,
//    including a view whose stride-0 dimension makes the gradient order
//    matter;
//  - internal::Logistic against the two-branch formula it replaced.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

float FromBits(uint32_t u) {
  float v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

void ExpectSameBits(const std::vector<float>& a, const std::vector<float>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i]))
        << what << " diverges at [" << i << "]: " << a[i] << " vs " << b[i];
  }
}

struct DispatchGuard {
  ~DispatchGuard() { simd::ResetDispatch(); }
};

// ---- softmax_row ------------------------------------------------------------

// FNV-1a over the output bits of softmax_row on seeded rows of every length
// in [8, 40] (one full block, then every tail width, up to five blocks), at
// spreads of 2, 60 and 200: the last reaches past exp's flush clamp, in the
// vector body and in the tail. mt19937's output is fixed by the standard,
// and the values are exact conversions scaled by one rounded multiply.
uint64_t SoftmaxRowChecksum(const simd::KernelTable* t) {
  std::mt19937 rng(33);
  uint64_t h = 1469598103934665603ull;
  for (int64_t n = 8; n <= 40; ++n) {
    for (const float spread : {2.0f, 60.0f, 200.0f}) {
      std::vector<float> x(static_cast<size_t>(n));
      std::vector<float> y(static_cast<size_t>(n));
      for (float& v : x) {
        v = (static_cast<float>(rng() >> 8) * (1.0f / 16777216.0f) - 0.5f) *
            spread;
      }
      if (!t->softmax_row(x.data(), y.data(), n)) return 0;
      for (const float v : y) {
        h ^= Bits(v);
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

TEST(KernelPinTest, SoftmaxRowOutputBitsArePinned) {
  const simd::KernelTable* t = simd::Supported();
  if (t == nullptr) GTEST_SKIP() << "no SIMD kernels on this machine";
  EXPECT_EQ(SoftmaxRowChecksum(t), 0xc59247bba719b95full);
}

// ---- PackedGemm layouts ---------------------------------------------------

// C (+)= A @ B with A and C either row-major (unit column stride: the packed
// fast paths) or column-major (the strided paths). m = 47 and n = 37 leave
// remainder tiles under both tile geometries (6x16 and 4x8); k = 300 spans
// two k-blocks.
std::vector<float> GemmInLayout(bool row_major, bool accumulate,
                                const std::vector<float>& a,
                                const std::vector<float>& b,
                                const std::vector<float>& c0, int64_t m,
                                int64_t n, int64_t k) {
  std::vector<float> a_store(a.size());
  std::vector<float> c_store(c0.size());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      a_store[row_major ? i * k + kk : kk * m + i] = a[i * k + kk];
    }
    for (int64_t j = 0; j < n; ++j) {
      c_store[row_major ? i * n + j : j * m + i] = c0[i * n + j];
    }
  }
  PackedGemm(m, n, k, a_store.data(), row_major ? k : 1, row_major ? 1 : m,
             b.data(), n, 1, c_store.data(), row_major ? n : 1,
             row_major ? 1 : m, accumulate);
  std::vector<float> c(c0.size());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      c[i * n + j] = c_store[row_major ? i * n + j : j * m + i];
    }
  }
  return c;
}

TEST(KernelPinTest, PackedGemmUnitStrideLayoutsMatchStrided) {
  DispatchGuard guard;
  const int64_t m = 47, n = 37, k = 300;
  static_assert(300 > kGemmKc);
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> a(m * k), b(k * n), c0(m * n);
  for (float& v : a) v = dist(rng);
  for (float& v : b) v = dist(rng);
  for (float& v : c0) v = dist(rng);
  // Whole zero columns of A exercise the microkernels' skip.
  for (int64_t i = 0; i < m; ++i) a[i * k + 7] = 0.0f;
  for (const bool vec : {false, true}) {
    if (vec && simd::Supported() == nullptr) continue;
    simd::SetDispatchForTesting(vec);
    for (const bool accumulate : {false, true}) {
      ExpectSameBits(GemmInLayout(true, accumulate, a, b, c0, m, n, k),
                     GemmInLayout(false, accumulate, a, b, c0, m, n, k),
                     std::string(vec ? "simd" : "scalar") +
                         (accumulate ? " accumulate" : " overwrite"));
    }
  }
}

// ---- Contiguous -------------------------------------------------------------

// Forward and backward of Contiguous(view) against a per-element index
// table: out[i] = x[phys(i)], then grad[phys(i)] += gout[i] in ascending i.
void CheckContiguous(const Tensor& base, const Shape& shape,
                     const std::vector<int64_t>& strides, int64_t offset,
                     const std::string& what) {
  Tensor leaf = base.Clone().set_requires_grad(true);
  const Tensor view(
      internal::MakeView(leaf.impl(), shape, strides, leaf.impl()->offset +
                                                         offset));
  ASSERT_FALSE(view.is_contiguous()) << what;
  const int64_t n = view.numel();
  // Mixed magnitudes, so elements that share storage sum to different bits
  // in a different order.
  std::vector<float> gout(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    gout[i] = (i % 3 == 0) ? 1e8f : ((i % 3 == 1) ? 1.0f : -1e8f + 3.0f);
  }
  const Tensor out = Contiguous(view);
  Sum(Mul(out, Tensor::FromVector(shape, std::vector<float>(gout))))
      .Backward();

  std::vector<float> ref_out(static_cast<size_t>(n));
  std::vector<float> ref_grad(static_cast<size_t>(base.numel()), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t p = view.impl()->PhysicalIndex(i);
    ref_out[i] = view.data()[p];
    ref_grad[static_cast<size_t>(offset + p)] += gout[i];
  }
  ExpectSameBits(std::vector<float>(out.data(), out.data() + n), ref_out,
                 what + " forward");
  ExpectSameBits(std::vector<float>(leaf.grad_data(),
                                    leaf.grad_data() + leaf.numel()),
                 ref_grad, what + " backward");
}

TEST(KernelPinTest, ContiguousMatchesIndexTableReference) {
  std::vector<float> values(4 * 6 * 5);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<float>(i) * 0.25f - 7.0f;
  }
  const Tensor base = Tensor::FromVector(Shape({4, 6, 5}), values);
  // A transpose of the outer dims: unit-stride runs of 5.
  CheckContiguous(base, Shape({6, 4, 5}), {5, 30, 1}, 0, "outer transpose");
  // A transpose of the inner dims: runs of 1.
  CheckContiguous(base, Shape({4, 5, 6}), {30, 1, 5}, 0, "inner transpose");
  // A slice of the last dim with a size-1 dim inside the run.
  CheckContiguous(base, Shape({4, 6, 1, 3}), {30, 5, 1, 1}, 1, "size-1 dim");
  // A stride-0 outer dim: three logical copies of each row share storage.
  CheckContiguous(base, Shape({3, 4, 6, 5}), {0, 30, 5, 1}, 0, "stride-0");
  // Stride 0 between two unit-stride dims.
  CheckContiguous(base, Shape({4, 3, 2, 5}), {30, 0, 5, 1}, 0,
                  "inner stride-0");
}

// ---- Logistic ---------------------------------------------------------------

// The two-branch formula internal::Logistic had before it became a select.
float TwoBranchLogistic(float v) {
  if (v >= 0.0f) return 1.0f / (1.0f + std::exp(-v));
  const float e = std::exp(v);
  return e / (1.0f + e);
}

TEST(KernelPinTest, LogisticMatchesTwoBranchFormula) {
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  const float den = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  std::vector<float> values = {
      0.0f,  -0.0f, inf,     -inf,    den,    -den,   1e-40f, -1e-40f,
      tiny,  -tiny, 1e-30f,  -1e-30f, 0.5f,   -0.5f,  1.0f,   -1.0f,
      16.0f, -16.0f, 87.0f,  -87.0f,  88.73f, -88.73f, 89.0f, -89.0f,
      104.0f, -104.0f, 1e10f, -1e10f, big,   -big};
  for (const uint32_t nan_bits : {0x7fc00000u, 0xffc00000u, 0x7fc12345u,
                                  0xffe54321u}) {
    values.push_back(FromBits(nan_bits));
  }
  // A sweep over the whole bit-pattern space (about a million patterns).
  for (uint64_t u = 0; u <= 0xffffffffull; u += 4099) {
    values.push_back(FromBits(static_cast<uint32_t>(u)));
  }
  for (const float v : values) {
    ASSERT_EQ(Bits(internal::Logistic(v)), Bits(TwoBranchLogistic(v)))
        << "v bits 0x" << std::hex << Bits(v);
  }
}

}  // namespace
}  // namespace stsm
