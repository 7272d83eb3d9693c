// Checkpoint round-trips for every model in the zoo: SaveModule on a
// network, LoadModule into a differently-initialised twin, and the probe
// forward must match bitwise. Covers the three baselines and all seven
// StsmVariants (each variant is a distinct ModelKind).

#include "baselines/zoo.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "testing/temp_dir.h"

namespace stsm {
namespace {

StsmConfig SmallConfig() {
  StsmConfig config;
  config.input_length = 8;
  config.horizon = 4;
  config.hidden_dim = 8;
  config.num_blocks = 1;
  config.seed = 31;
  return config;
}

std::vector<ModelKind> AllKinds() {
  return {ModelKind::kGeGan,     ModelKind::kIgnnk,  ModelKind::kIncrease,
          ModelKind::kStsmRnc,   ModelKind::kStsmNc, ModelKind::kStsmR,
          ModelKind::kStsm,      ModelKind::kStsmTrans,
          ModelKind::kStsmRdA,   ModelKind::kStsmRdM};
}

TEST(ZooRoundTripTest, EveryModelKindRoundTripsBitwise) {
  ScopedTempDir dir;
  const std::string path = dir.File("zoo.bin");
  const int num_nodes = 12;
  const uint64_t probe_seed = 77;
  for (ModelKind kind : AllKinds()) {
    SCOPED_TRACE(ModelName(kind));
    const StsmConfig config = SmallConfig();
    const ZooNetwork original = MakeZooNetwork(kind, config, num_nodes);
    ASSERT_FALSE(original.module->Parameters().empty());
    ASSERT_TRUE(SaveModule(*original.module, path));

    StsmConfig other = config;
    other.seed = 4099;  // Different init stream: weights start different.
    const ZooNetwork restored = MakeZooNetwork(kind, other, num_nodes);
    ASSERT_TRUE(LoadModule(restored.module.get(), path));

    const Tensor expected = original.probe(probe_seed);
    const Tensor actual = restored.probe(probe_seed);
    ASSERT_EQ(expected.shape(), actual.shape());
    for (int64_t i = 0; i < expected.numel(); ++i) {
      ASSERT_EQ(expected.data()[i], actual.data()[i])
          << "element " << i << " differs after checkpoint round-trip";
    }
  }
}

TEST(ZooRoundTripTest, LoadRejectsMismatchedArchitecture) {
  ScopedTempDir dir;
  const std::string path = dir.File("small.bin");
  const StsmConfig config = SmallConfig();
  const ZooNetwork small = MakeZooNetwork(ModelKind::kStsm, config, 12);
  ASSERT_TRUE(SaveModule(*small.module, path));
  StsmConfig bigger = config;
  bigger.hidden_dim = 16;  // Different parameter shapes.
  const ZooNetwork big = MakeZooNetwork(ModelKind::kStsm, bigger, 12);
  EXPECT_FALSE(LoadModule(big.module.get(), path));
}

}  // namespace
}  // namespace stsm
