// Training side of a workload: the output checks on StsmRunner::Run and the
// layer probe that times each public function the training loop calls, on
// the workload's own dataset, split and config.

#ifndef STBENCH_TRAIN_PHASE_H_
#define STBENCH_TRAIN_PHASE_H_

#include <cstdint>
#include <string>

#include "common/prof.h"
#include "core/config.h"
#include "core/experiment.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "report.h"
#include "workload.h"

namespace stbench {

// For the default seed: RMSE, MAE and every per-epoch loss match the
// committed reference. For other seeds: every loss is finite and RMSE lies
// within a band around the reference. Returns false with *why set.
bool CheckTraining(const Workload& workload, uint64_t seed,
                   const stsm::ExperimentResult& result, std::string* why);

// Times each training-loop layer (median ms per call) and adds the derived
// busy seconds, attributed shares of `train_s`/`eval_s`, and the exact
// prof counts of one traced Run() in `counts`.
void ProbeTraining(const stsm::SpatioTemporalDataset& dataset,
                   const stsm::SpaceSplit& split,
                   const stsm::StsmConfig& config, double train_s,
                   double eval_s, const stsm::prof::Snapshot& counts,
                   Trace* trace, Report* report);

}  // namespace stbench

#endif  // STBENCH_TRAIN_PHASE_H_
