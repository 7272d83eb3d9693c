#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "gtest/gtest.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/precision.h"
#include "tensor/dtype.h"
#include "tensor/ops.h"
#include "testing/temp_dir.h"

namespace stsm {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  ScopedTempDir dir_;
  const std::string path_ = dir_.File("tensors.bin");
};

TEST_F(SerializeTest, TensorRoundTrip) {
  Rng rng(1);
  const std::vector<Tensor> tensors = {
      Tensor::Uniform(Shape({3, 4}), -1, 1, &rng),
      Tensor::Scalar(42.0f),
      Tensor::Uniform(Shape({2, 2, 2}), -5, 5, &rng),
  };
  ASSERT_TRUE(SaveTensors(tensors, path_));
  const std::vector<Tensor> loaded = LoadTensors(path_);
  ASSERT_EQ(loaded.size(), tensors.size());
  for (size_t t = 0; t < tensors.size(); ++t) {
    ASSERT_EQ(loaded[t].shape(), tensors[t].shape());
    for (int64_t i = 0; i < tensors[t].numel(); ++i) {
      EXPECT_FLOAT_EQ(loaded[t].data()[i], tensors[t].data()[i]);
    }
  }
}

TEST_F(SerializeTest, MissingFileReturnsEmpty) {
  EXPECT_TRUE(LoadTensors(dir_.Absent()).empty());
}

TEST_F(SerializeTest, CorruptMagicRejected) {
  std::ofstream out(path_, std::ios::binary);
  out << "NOTVALIDDATA";
  out.close();
  EXPECT_TRUE(LoadTensors(path_).empty());
}

TEST_F(SerializeTest, TruncatedFileRejected) {
  Rng rng(2);
  ASSERT_TRUE(SaveTensors({Tensor::Uniform(Shape({10, 10}), -1, 1, &rng)},
                          path_));
  // Truncate to half the size.
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<char> half(static_cast<size_t>(size) / 2);
  in.read(half.data(), half.size());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(half.data(), half.size());
  out.close();
  EXPECT_TRUE(LoadTensors(path_).empty());
}

TEST_F(SerializeTest, TrailingBytesRejected) {
  // Regression: a checkpoint with extra bytes after the declared tensor
  // payload (concatenated files, partial overwrite) must not load silently.
  Rng rng(4);
  ASSERT_TRUE(
      SaveTensors({Tensor::Uniform(Shape({3, 3}), -1, 1, &rng)}, path_));
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "junk";
  }
  EXPECT_TRUE(LoadTensors(path_).empty());

  Linear module(3, 3, &rng);
  ASSERT_TRUE(SaveModule(module, path_));
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const char zero = '\0';  // Even a single trailing byte is rejected.
    out.write(&zero, 1);
  }
  const float before = module.Parameters()[0].data()[0];
  EXPECT_FALSE(LoadModule(&module, path_));
  EXPECT_FLOAT_EQ(module.Parameters()[0].data()[0], before);
}

TEST_F(SerializeTest, Bf16TensorRoundTripIsBitExact) {
  Rng rng(10);
  const Tensor f32 = Tensor::Uniform(Shape({4, 5}), -2, 2, &rng);
  const Tensor bf16 = To(f32, DType::kBf16);
  ASSERT_TRUE(SaveTensors({bf16}, path_));
  const std::vector<Tensor> loaded = LoadTensors(path_);
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].dtype(), DType::kBf16);
  ASSERT_EQ(loaded[0].shape(), bf16.shape());
  for (int64_t i = 0; i < bf16.numel(); ++i) {
    EXPECT_EQ(loaded[0].impl()->storage->bf16_data()[i],
              bf16.impl()->storage->bf16_data()[i]);
  }
}

TEST_F(SerializeTest, LegacyV1CheckpointLoadsAsF32) {
  // Hand-written v1 file: no dtype tag between dims and payload. Old
  // checkpoints in the wild must keep loading, as fp32 by definition.
  const float values[3] = {1.5f, -2.25f, 0.125f};
  {
    std::ofstream out(path_, std::ios::binary);
    out.write("STSMTNSR", 8);
    const uint32_t version = 1, count = 1, ndim = 1;
    const int64_t dim = 3;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(values), sizeof(values));
  }
  const std::vector<Tensor> loaded = LoadTensors(path_);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].dtype(), DType::kF32);
  ASSERT_EQ(loaded[0].shape(), Shape({3}));
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(loaded[0].data()[i], values[i]);
  }
}

TEST_F(SerializeTest, UnknownDtypeTagRejectedLoudly) {
  // A tag this reader does not know must be a hard failure with a
  // diagnostic — never a silent fp32 reinterpretation of the payload.
  {
    std::ofstream out(path_, std::ios::binary);
    out.write("STSMTNSR", 8);
    const uint32_t version = 2, count = 1, ndim = 1, tag = 7;
    const int64_t dim = 2;
    const float payload[2] = {1.0f, 2.0f};
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    out.write(reinterpret_cast<const char*>(&tag), sizeof(tag));
    out.write(reinterpret_cast<const char*>(payload), sizeof(payload));
  }
  testing::internal::CaptureStderr();
  const std::vector<Tensor> loaded = LoadTensors(path_);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(loaded.empty());
  EXPECT_NE(err.find("unknown dtype tag 7"), std::string::npos) << err;
}

TEST_F(SerializeTest, TrailingBytesRejectedForBf16) {
  // The whole-file accounting must hold for 2-byte elements too: a bf16
  // tensor followed by stray bytes (or a bf16 tag over an fp32-sized
  // payload) cannot load.
  Rng rng(11);
  const Tensor bf16 =
      To(Tensor::Uniform(Shape({3, 3}), -1, 1, &rng), DType::kBf16);
  ASSERT_TRUE(SaveTensors({bf16}, path_));
  ASSERT_EQ(LoadTensors(path_).size(), 1u);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const char zero = '\0';
    out.write(&zero, 1);
  }
  EXPECT_TRUE(LoadTensors(path_).empty());
}

TEST_F(SerializeTest, Bf16CheckpointLoadsIntoF32ModuleWidened) {
  // Serving writes bf16 checkpoints; loading one back into an fp32 module
  // must widen exactly (bf16 -> fp32 is lossless).
  Rng rng(12);
  Linear served(4, 3, &rng);
  CastModuleForServing(&served, DType::kBf16);
  ASSERT_TRUE(SaveModule(served, path_));

  Rng rng_b(13);
  Linear restored(4, 3, &rng_b);
  ASSERT_TRUE(LoadModule(&restored, path_));
  const auto served_params = served.Parameters();
  const auto restored_params = restored.Parameters();
  ASSERT_EQ(served_params.size(), restored_params.size());
  for (size_t p = 0; p < served_params.size(); ++p) {
    ASSERT_EQ(restored_params[p].dtype(), DType::kF32);
    for (int64_t i = 0; i < served_params[p].numel(); ++i) {
      EXPECT_EQ(restored_params[p].data()[i],
                F32FromBf16(served_params[p].impl()->storage->bf16_data()[i]));
    }
  }
}

TEST_F(SerializeTest, ModuleRoundTripRestoresBehaviour) {
  Rng rng_a(3);
  Linear original(4, 3, &rng_a);
  ASSERT_TRUE(SaveModule(original, path_));

  Rng rng_b(99);  // Different init.
  Linear restored(4, 3, &rng_b);
  ASSERT_TRUE(LoadModule(&restored, path_));

  Rng data_rng(5);
  const Tensor x = Tensor::Uniform(Shape({2, 4}), -1, 1, &data_rng);
  const Tensor y_original = original.Forward(x);
  const Tensor y_restored = restored.Forward(x);
  for (int64_t i = 0; i < y_original.numel(); ++i) {
    EXPECT_FLOAT_EQ(y_original.data()[i], y_restored.data()[i]);
  }
}

TEST_F(SerializeTest, ShapeMismatchLeavesModuleUntouched) {
  Rng rng(6);
  Linear small(2, 2, &rng);
  ASSERT_TRUE(SaveModule(small, path_));
  Linear big(4, 4, &rng);
  const float before = big.Parameters()[0].data()[0];
  EXPECT_FALSE(LoadModule(&big, path_));
  EXPECT_FLOAT_EQ(big.Parameters()[0].data()[0], before);
}

TEST_F(SerializeTest, GruRoundTrip) {
  Rng rng_a(7);
  Gru original(3, 5, &rng_a);
  ASSERT_TRUE(SaveModule(original, path_));
  Rng rng_b(8);
  Gru restored(3, 5, &rng_b);
  ASSERT_TRUE(LoadModule(&restored, path_));
  Rng data_rng(9);
  const Tensor seq = Tensor::Uniform(Shape({2, 6, 3}), -1, 1, &data_rng);
  const Tensor a = original.ForwardFinal(seq);
  const Tensor b = restored.ForwardFinal(seq);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

}  // namespace
}  // namespace stsm
