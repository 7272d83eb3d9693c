// Committed training outputs for the default seed (kDefaultSeed), recorded
// from this benchmark's own runs. Training is deterministic across thread
// counts, so any change here is an arithmetic change in the program, which
// the workload then reports as incorrect.

#ifndef STBENCH_REFERENCE_H_
#define STBENCH_REFERENCE_H_

#include <string>
#include <vector>

namespace stbench {

struct TrainingReference {
  const char* workload;
  double rmse;
  double mae;
  std::vector<double> losses;  // Per-epoch mean training loss.
};

// Relative tolerance for the default-seed comparison.
constexpr double kReferenceTolerance = 1e-6;
// Other seeds: RMSE must lie within [ref / kSeedBand, ref * kSeedBand].
constexpr double kSeedBand = 1.5;

inline const TrainingReference* FindReference(const std::string& workload) {
  static const std::vector<TrainingReference> kReferences = {
      {"bay", 11.918918038252373, 8.3425362956508131,
       {0.41811755001544954, 0.38068218231201173, 0.37516415119171143,
        0.28120805323123932, 0.37216070890426634, 0.3780221104621887,
        0.35796310901641848, 0.37306546270847318, 0.33772547245025636,
        0.41821714937686921, 0.26529859602451322, 0.34686318933963778,
        0.34432834982872007, 0.36834243237972258}},
      {"city", 16.019510453719221, 11.026536861124137,
       {0.63495573997497556, 0.51534506678581238, 0.46856433749198911}},
  };
  for (const TrainingReference& ref : kReferences) {
    if (workload == ref.workload) return &ref;
  }
  return nullptr;
}

}  // namespace stbench

#endif  // STBENCH_REFERENCE_H_
