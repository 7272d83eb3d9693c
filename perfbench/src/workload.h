// The benchmark's workloads. Each one trains STSM on one graph and serves
// the TCN and transformer models built for that graph over loopback TCP,
// so every end-to-end metric is measured on every workload:
//
//   bay  - bay-sim at fast data scale (84 nodes), dense adjacency, 14 epochs.
//          Dense GEMM and autograd dominate training; DTW is a few percent.
//   city - pems08 density variant at 256 nodes, CSR adjacency, 3 epochs.
//          SpMM forward + backward and per-epoch DTW dominate training, and
//          full-graph DTW dominates evaluation.
//
// The two sit on opposite sides of the dense/sparse choice, so a change to
// one propagation route shows on one workload and should not on the other.
// Serving runs the same phases on both: a closed loop with one request in
// flight, then open-loop arrivals at `low` (no queueing), `high` (queueing
// starts to show) and `over` (past capacity, so backpressure and goodput
// act). The rates are absolute: bay 0.06x / 0.45x / 1.3x of its measured
// capacity (~425 rps on a 4-core x86 host), city 0.1x / 0.45x / 2.6x of
// ~50 rps, whose over rate is higher so its queues fill within the phase.
// Both low rates keep a single request's service busy about 30% of the
// time (bay ~12 ms x 25 rps, city ~55 ms x 5 rps). A request holds both
// intra-op threads, and once about half the requests overlap another, the
// median jumps from the unqueued latency to the queued one, so a host
// slowdown moves it by up to 2x. On a contended 4-core host the low-rate
// median read 1.10-1.95x the closed-loop one on bay at 85 rps (20 runs),
// 1.02-1.62x on city at 12 and 8 rps (40 runs), and 0.95-1.37x on city at
// 5 rps (20 runs). Changing the rates changes
// the benchmark. Each goodput limit sits above the latency accepted
// requests see at the over rate (bay up to ~0.8 s; city up to ~4 s, where
// one batched forward takes ~300 ms and the queues hold several batches),
// so goodput follows the rate of useful answers rather than where the
// latency distribution crosses the limit. Requests also carry the limit as
// their deadline.

#ifndef STBENCH_WORKLOAD_H_
#define STBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "data/dataset.h"

namespace stbench {

struct Workload {
  const char* name;
  bool sparse;  // CSR adjacency for training and serving.
  int epochs;
  // Open-loop arrival rates (requests per second, both models together).
  double rate_low;
  double rate_high;
  double rate_over;
  // Goodput counts OK responses within this many ms of their due time;
  // every request's deadline_ms.
  double latency_limit_ms;
};

// Null when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

// The seed the committed reference outputs were recorded with.
constexpr uint64_t kDefaultSeed = 1;

stsm::SpatioTemporalDataset MakeWorkloadDataset(const Workload& workload);

// Training config: Table 3 values for the dataset plus the fast budget
// (10 batches x 8 windows per epoch, hidden 16, 48 eval windows).
stsm::StsmConfig TrainConfig(const Workload& workload, uint64_t seed);

}  // namespace stbench

#endif  // STBENCH_WORKLOAD_H_
