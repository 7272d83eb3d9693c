#include "workload.h"

#include "data/registry.h"

namespace stbench {

namespace {

constexpr Workload kWorkloads[] = {
    {"bay", /*sparse=*/false, /*epochs=*/14, 25.0, 190.0, 550.0, 1000.0},
    {"city", /*sparse=*/true, /*epochs=*/3, 5.0, 22.0, 130.0, 6000.0},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

stsm::SpatioTemporalDataset MakeWorkloadDataset(const Workload& workload) {
  return workload.sparse
             ? stsm::MakePems08WithDensity(256)
             : stsm::MakeDataset("bay-sim", stsm::DataScale::kFast);
}

stsm::StsmConfig TrainConfig(const Workload& workload, uint64_t seed) {
  stsm::StsmConfig config =
      stsm::ConfigForDataset(workload.sparse ? "pems08-sim" : "bay-sim");
  config.epochs = workload.epochs;
  config.batches_per_epoch = 10;
  config.batch_size = 8;
  config.hidden_dim = 16;
  config.max_eval_windows = 48;
  config.sparse_adjacency = workload.sparse;
  config.seed = seed;
  return config;
}

}  // namespace stbench
