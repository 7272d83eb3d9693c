// Model registry for the serving layer.
//
// A ModelSpec bundles everything a checkpoint does NOT contain but inference
// needs: the architecture config, the z-score normaliser fitted at training
// time, and the pre-normalised full-graph adjacency matrices (spatial
// Gaussian kernel + DTW temporal similarity). BuildModelSpec recomputes
// these from the dataset/split through the same ExperimentContext and the
// same BuildTestTimeGraph as StsmRunner::Evaluate, so a served model
// forecasts over the graph the offline evaluation forecasts over.
//
// The normaliser and the adjacency pair form one immutable ServingGraph,
// built once per graph key (the dataset's content, the split and the graph
// hyper-parameters) and shared by every spec alive on that key: STSM-TCN
// and STSM-trans over one (dataset, split) share one build and one set of
// adjacency storage. Specs own the graph; the registry only remembers it
// while a spec holds it, so the first spec after the last one is gone
// builds again.
//
// A ServedModel owns one loaded StModel in eval mode; its Predict runs under
// autograd::NoGradGuard, so serving builds no graph and allocates no grad
// buffers. When the checkpoint cannot be loaded the ServedModel is still
// registered but unhealthy: the server keeps answering its requests with
// the historical-average fallback (tagged kDegraded) instead of failing.
//
// The registry hands out shared_ptr<const ServedModel>; the precomputed
// state is immutable after load and therefore safely shared by all worker
// threads without copying.

#ifndef STSM_SERVE_REGISTRY_H_
#define STSM_SERVE_REGISTRY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "core/config.h"
#include "core/st_model.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/splits.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {
namespace serve {

// The shared normaliser and adjacency pair of one graph key (registry.cc).
struct ServingGraph;

struct ModelSpec {
  std::string name;
  StsmConfig config;
  int num_nodes = 0;
  int steps_per_day = 288;
  Normalizer normalizer;
  // [N, N] symmetric-normalised Eq. 2 kernel / row-normalised DTW
  // similarity over the test period: the adjacencies StsmRunner::Evaluate
  // forecasts over. CSR when config.sparse_adjacency (city-scale graphs),
  // dense tensors otherwise.
  Adjacency adj_spatial;
  Adjacency adj_temporal;
  std::string checkpoint_path;
  // The graph the fields above were taken from. Holding it keeps it
  // findable, so another BuildModelSpec over the same graph key shares it
  // instead of building again; a bf16 spec holds the fp32 graph its
  // adjacencies were cast from.
  std::shared_ptr<const ServingGraph> graph;
};

// Recomputes the serving-time state for a model trained on
// (dataset, split, config) from the ExperimentContext training used: the
// normaliser fitted on the observed training columns, and the spatial and
// temporal adjacencies of BuildTestTimeGraph, the graph
// StsmRunner::Evaluate forecasts over: Eq. 2 over the full graph under
// config.distance_mode, and A_dtw over the pseudo-observation-filled test
// period (DESIGN.md, "Model registry and precomputed state").
//
// The three are taken from the live ServingGraph of the same graph key when
// another spec holds one, and built otherwise. The key covers the series
// values and coordinates (by content hash and shape), the observed and
// unobserved ids, distance_mode (and seed in the road modes) and the
// TestGraphOptions (epsilon_s, binary_spatial_kernel, sparse_adjacency,
// pseudo_neighbors, q_kk, q_ku, dtw_band and steps_per_day); the temporal
// module, the model size and the training settings do not enter it.
// Thread-safe.
ModelSpec BuildModelSpec(const std::string& name,
                         const SpatioTemporalDataset& dataset,
                         const SpaceSplit& split, const StsmConfig& config,
                         const std::string& checkpoint_path);

class ServedModel {
 public:
  // Constructs the network, loads weights from spec.checkpoint_path, and
  // switches it to eval mode. On checkpoint failure the model is marked
  // unhealthy (healthy() == false) rather than rejected — the server then
  // degrades its requests gracefully.
  static std::shared_ptr<ServedModel> Load(const ModelSpec& spec);

  const ModelSpec& spec() const { return spec_; }
  bool healthy() const { return model_ != nullptr; }

  // Resident parameter bytes at the serving dtype (0 when unhealthy). For
  // spec.config.serve_dtype == kBf16 this is exactly half the fp32 figure
  // (ModelSpecTest.Bf16ServingParity).
  int64_t weight_bytes() const { return weight_bytes_; }

  // Batched no-grad forward. inputs: [B, T, N, 1] normalised windows;
  // time_features: [B, T, 3]. Returns [B, T', N, 1] normalised forecasts.
  // Requires healthy().
  Tensor Predict(const Tensor& inputs, const Tensor& time_features) const;

 private:
  explicit ServedModel(ModelSpec spec);

  ModelSpec spec_;
  std::unique_ptr<StModel> model_;  // Null when the checkpoint failed.
  int64_t weight_bytes_ = 0;
};

// Health of the registry entry a Load replaced (the "previous generation"
// in a checkpoint hot-swap).
enum class EntryHealth {
  kAbsent,     // No entry of that name existed: an initial load.
  kHealthy,    // Replaced a serving model (the common hot-swap case).
  kUnhealthy,  // Replaced an entry whose checkpoint had failed.
};

// What a Load/Swap did: the new entry's health plus the transition from
// whatever it replaced. `previous == kUnhealthy && healthy` is the
// recovery path; `previous == kHealthy && !healthy` is a swap that made
// things worse and deserves an alert at the call site.
struct LoadResult {
  bool healthy = false;                       // The newly installed entry.
  EntryHealth previous = EntryHealth::kAbsent;
};

// Thread-safe name -> ServedModel map.
//
// Hot-swap semantics: Load builds the replacement ServedModel *outside* the
// lock, then flips the shared_ptr under it — one pointer store. Requests
// that called Find before the flip keep their shared_ptr and finish their
// batch on the old model; the old weights are freed when the last in-flight
// batch drops its reference. Nothing is ever mutated in place.
class ModelRegistry {
 public:
  // Loads and registers a model (replacing any same-named entry). The
  // result carries the new entry's health — false means the checkpoint
  // failed and the entry will only serve degraded responses — plus the
  // replaced entry's health transition.
  LoadResult Load(const ModelSpec& spec) STSM_EXCLUDES(mutex_);

  // Removes `name`. Returns false when no such entry existed. In-flight
  // requests that already hold the model's shared_ptr finish normally;
  // later requests get an "unknown model" error.
  bool Unload(const std::string& name) STSM_EXCLUDES(mutex_);

  // Null when `name` is not registered.
  std::shared_ptr<const ServedModel> Find(const std::string& name) const
      STSM_EXCLUDES(mutex_);

  std::vector<std::string> Names() const STSM_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ServedModel>>
      models_ STSM_GUARDED_BY(mutex_);
};

}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_REGISTRY_H_
