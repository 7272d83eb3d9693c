// Conv1dTime's out_steps window: computing only the last S output steps
// must give the bits of the full-length convolution's last S steps, and,
// when only those steps are read, the same gradients for x, the weight and
// the bias. Covers kernel widths 1-3, dilations 1-3, every S in 1..T and
// channel counts on both sides of the 8- and 16-wide vector tiles, with
// ±0, denormal, ±Inf and NaN values, under scalar and vector dispatch.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace stsm {
namespace {

constexpr int64_t kBatch = 2;
constexpr int64_t kTime = 5;
constexpr int64_t kNodes = 3;

struct ConvValues {
  std::vector<float> x, w, b, dy;
};

struct ConvRun {
  std::vector<float> y, gx, gw, gb;
};

std::vector<float> Image(const Tensor& t) {
  const Tensor c = t.Clone();
  return std::vector<float>(c.data(), c.data() + c.numel());
}

std::vector<float> GradImage(const Tensor& t) {
  return std::vector<float>(t.grad_data(), t.grad_data() + t.numel());
}

// Random values with ±0 and denormals mixed in; `nonfinite` also plants
// ±Inf in x and NaN in the weight and in the incoming gradient.
ConvValues MakeValues(int64_t kernel, int64_t c_in, int64_t c_out,
                      int64_t steps, bool nonfinite, std::mt19937* rng) {
  const float den = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {0.0f, -0.0f, den, -den, 1e-41f};
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  auto fill = [&](int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = i % 7 == 3 ? specials[(i / 7) % specials.size()] : dist(*rng);
    }
    return v;
  };
  ConvValues v;
  v.x = fill(kBatch * kTime * kNodes * c_in);
  v.w = fill(c_out * c_in * kernel);
  v.b = fill(c_out);
  v.dy = fill(kBatch * steps * kNodes * c_out);
  if (nonfinite) {
    const float inf = std::numeric_limits<float>::infinity();
    v.x[v.x.size() / 3] = inf;
    v.x[v.x.size() - 1] = -inf;
    v.w[v.w.size() / 2] = std::numeric_limits<float>::quiet_NaN();
    v.dy[v.dy.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  }
  return v;
}

// Forward plus one backward of sum(y * dy); `windowed` asks Conv1dTime for
// the last `steps` outputs, otherwise the full output is sliced.
ConvRun RunConv(const ConvValues& v, int64_t kernel, int dilation,
                int64_t c_in, int64_t c_out, int64_t steps, bool windowed) {
  Tensor x = Tensor::FromVector(Shape({kBatch, kTime, kNodes, c_in}),
                                std::vector<float>(v.x))
                 .set_requires_grad(true);
  Tensor w = Tensor::FromVector(Shape({c_out, c_in, kernel}),
                                std::vector<float>(v.w))
                 .set_requires_grad(true);
  Tensor b = Tensor::FromVector(Shape({c_out}), std::vector<float>(v.b))
                 .set_requires_grad(true);
  const Tensor y =
      windowed ? Conv1dTime(x, w, b, dilation, steps)
               : Slice(Conv1dTime(x, w, b, dilation), 1, kTime - steps, kTime);
  EXPECT_EQ(y.shape(), Shape({kBatch, steps, kNodes, c_out}));
  const Tensor dy = Tensor::FromVector(y.shape(), std::vector<float>(v.dy));
  Sum(Mul(y, dy)).Backward();
  return {Image(y), GradImage(x), GradImage(w), GradImage(b)};
}

// NaN must meet NaN (payload not compared); everything else bit for bit.
int64_t Mismatches(const std::vector<float>& want,
                   const std::vector<float>& got) {
  if (want.size() != got.size()) return -1;
  int64_t count = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      count += std::isnan(got[i]) ? 0 : 1;
    } else {
      count += std::memcmp(&want[i], &got[i], sizeof(float)) != 0 ? 1 : 0;
    }
  }
  return count;
}

class ConvWindowTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && simd::Supported() == nullptr) {
      GTEST_SKIP() << "no SIMD kernels on this machine";
    }
    simd::SetDispatchForTesting(GetParam());
  }
  void TearDown() override { simd::ResetDispatch(); }
};

TEST_P(ConvWindowTest, WindowMatchesSlicedFullOutputAndGradients) {
  std::mt19937 rng(20251019);
  const int64_t channels[] = {1, 3, 8, 16, 17};
  for (int64_t kernel = 1; kernel <= 3; ++kernel) {
    for (int dilation = 1; dilation <= 3; ++dilation) {
      for (int64_t c_in : channels) {
        for (int64_t c_out : channels) {
          for (int64_t steps = 1; steps <= kTime; ++steps) {
            for (bool nonfinite : {false, true}) {
              SCOPED_TRACE("k" + std::to_string(kernel) + " d" +
                           std::to_string(dilation) + " cin" +
                           std::to_string(c_in) + " cout" +
                           std::to_string(c_out) + " S" +
                           std::to_string(steps) +
                           (nonfinite ? " nonfinite" : ""));
              const ConvValues v =
                  MakeValues(kernel, c_in, c_out, steps, nonfinite, &rng);
              const ConvRun full =
                  RunConv(v, kernel, dilation, c_in, c_out, steps, false);
              const ConvRun window =
                  RunConv(v, kernel, dilation, c_in, c_out, steps, true);
              ASSERT_EQ(Mismatches(full.y, window.y), 0) << "y";
              ASSERT_EQ(Mismatches(full.gx, window.gx), 0) << "dX";
              ASSERT_EQ(Mismatches(full.gw, window.gw), 0) << "dW";
              ASSERT_EQ(Mismatches(full.gb, window.gb), 0) << "db";
            }
          }
        }
      }
    }
  }
}

TEST_P(ConvWindowTest, DefaultIsTheFullLength) {
  std::mt19937 rng(7);
  const ConvValues v = MakeValues(2, 3, 4, kTime, false, &rng);
  const Tensor x =
      Tensor::FromVector(Shape({kBatch, kTime, kNodes, 3}), v.x);
  const Tensor w = Tensor::FromVector(Shape({4, 3, 2}), v.w);
  const Tensor b = Tensor::FromVector(Shape({4}), v.b);
  const Tensor full = Conv1dTime(x, w, b, 2);
  EXPECT_EQ(full.shape(), Shape({kBatch, kTime, kNodes, 4}));
  EXPECT_EQ(Mismatches(Image(full), Image(Conv1dTime(x, w, b, 2, kTime))), 0);
}

INSTANTIATE_TEST_SUITE_P(Dispatch, ConvWindowTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Vector" : "Scalar";
                         });

}  // namespace
}  // namespace stsm
