#include "serve/registry.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "core/experiment_context.h"
#include "graph/geo.h"
#include "nn/precision.h"
#include "nn/serialize.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"

namespace stsm {
namespace serve {

// The part of a spec that depends only on the data, the split and the graph
// hyper-parameters, never on the temporal module or the weights. Immutable
// once built: specs and worker threads share its tensors without copies.
struct ServingGraph {
  int num_nodes = 0;
  Normalizer normalizer;
  Adjacency adj_spatial;
  Adjacency adj_temporal;
};

namespace {

// 64-bit hash of raw bytes, eight at a time. Every step (xor, rotate, odd
// multiply, and the splitmix64 finaliser on the word) is a bijection, so
// two inputs of one length that differ in a single word always differ.
class ContentHash {
 public:
  void Add(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    while (bytes >= sizeof(uint64_t)) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      Fold(word);
      p += sizeof(word);
      bytes -= sizeof(word);
    }
    if (bytes > 0) {
      uint64_t word = 0;
      std::memcpy(&word, p, bytes);
      Fold(word);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  void Fold(uint64_t word) {
    word ^= word >> 30;
    word *= 0xbf58476d1ce4e5b9ULL;
    word ^= word >> 27;
    word *= 0x94d049bb133111ebULL;
    word ^= word >> 31;
    hash_ = std::rotl(hash_ ^ word, 27) * 0x9e3779b97f4a7c15ULL;
  }

  uint64_t hash_ = 1469598103934665603ULL;
};

// Everything the serving graph is built from. BuildServingGraph reads the
// config only through this struct, so a field that changes the graph is
// one that changes the key. The dataset enters by content, never by
// address: a new dataset at a freed address must not match a stale graph.
struct GraphKey {
  uint64_t content_hash = 0;  // series.values and coords bytes.
  int num_steps = 0;
  int num_nodes = 0;
  size_t num_coords = 0;
  std::vector<int> observed;    // split.Observed()
  std::vector<int> unobserved;  // split.test
  DistanceMode distance_mode = DistanceMode::kEuclidean;
  uint64_t road_seed = 0;  // config.seed in the road modes, else 0.
  TestGraphOptions graph;  // What the build reads of the config.

  bool operator==(const GraphKey&) const = default;
};

GraphKey MakeGraphKey(const SpatioTemporalDataset& dataset,
                      const SpaceSplit& split, const StsmConfig& config) {
  GraphKey key;
  ContentHash hash;
  hash.Add(dataset.series.values.data(),
           dataset.series.values.size() * sizeof(float));
  hash.Add(dataset.coords.data(), dataset.coords.size() * sizeof(GeoPoint));
  key.content_hash = hash.value();
  key.num_steps = dataset.series.num_steps;
  key.num_nodes = dataset.series.num_nodes;
  key.num_coords = dataset.coords.size();
  key.observed = split.Observed();
  key.unobserved = split.test;
  key.distance_mode = config.distance_mode;
  if (config.distance_mode != DistanceMode::kEuclidean) {
    key.road_seed = config.seed;
  }
  key.graph = TestGraphOptionsFor(config, dataset.steps_per_day);
  return key;
}

// The normaliser and the test-time adjacency pair for `key`, from the
// ExperimentContext training used: the graph StsmRunner::Evaluate
// forecasts over (see BuildModelSpec in registry.h).
std::shared_ptr<const ServingGraph> BuildServingGraph(
    const SpatioTemporalDataset& dataset, const GraphKey& key) {
  STSM_PROF_COUNT("serve.graph_builds", 1);
  SpaceSplit split;
  split.train = key.observed;
  split.test = key.unobserved;
  const ExperimentContext context(dataset, split, key.distance_mode,
                                  key.road_seed);
  TestTimeGraph test_graph = BuildTestTimeGraph(context, key.graph);

  auto graph = std::make_shared<ServingGraph>();
  graph->num_nodes = context.num_nodes();
  graph->normalizer = context.normalizer;
  graph->adj_spatial = std::move(test_graph.spatial);
  graph->adj_temporal = std::move(test_graph.temporal);
  return graph;
}

// Graph key -> the serving graph built for it, while any spec still holds
// that graph. The entries are weak: specs own their graph, so once the last
// spec of a key is gone the next BuildModelSpec builds it again. No graph
// outlives the models that read it.
class GraphTable {
 public:
  static GraphTable& Global() {
    static GraphTable* table = new GraphTable();
    return *table;
  }

  // The live graph of `key`, or null.
  std::shared_ptr<const ServingGraph> Find(const GraphKey& key)
      STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return FindLocked(key);
  }

  // Records `graph` as the graph of `key` and returns it, unless a
  // concurrent build of the same key got there first: then that one is
  // returned, so every spec of one key shares one graph.
  std::shared_ptr<const ServingGraph> Publish(
      const GraphKey& key, std::shared_ptr<const ServingGraph> graph)
      STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (std::shared_ptr<const ServingGraph> live = FindLocked(key)) {
      return live;
    }
    entries_.emplace_back(key, graph);
    return graph;
  }

 private:
  // Drops the entries whose graphs are gone, then looks `key` up.
  std::shared_ptr<const ServingGraph> FindLocked(const GraphKey& key)
      STSM_REQUIRES(mutex_) {
    std::erase_if(entries_, [](const auto& entry) {
      return entry.second.expired();
    });
    for (const auto& [entry_key, graph] : entries_) {
      if (entry_key == key) return graph.lock();
    }
    return nullptr;
  }

  Mutex mutex_;
  std::vector<std::pair<GraphKey, std::weak_ptr<const ServingGraph>>>
      entries_ STSM_GUARDED_BY(mutex_);
};

}  // namespace

ModelSpec BuildModelSpec(const std::string& name,
                         const SpatioTemporalDataset& dataset,
                         const SpaceSplit& split, const StsmConfig& config,
                         const std::string& checkpoint_path) {
  STSM_PROF_SCOPE("serve.build_spec");
  ModelSpec spec;
  spec.name = name;
  spec.config = config;
  spec.num_nodes = dataset.num_nodes();
  spec.steps_per_day = dataset.steps_per_day;
  spec.checkpoint_path = checkpoint_path;
  // A_dtw reads daily profiles of the test period, which must therefore
  // span a day. A shorter one gets no graph: the spec loads unhealthy and
  // its requests degrade, instead of the build aborting the process.
  const TimeSplit time_split =
      SplitTime(dataset.num_steps(), kTrainTimeFraction);
  if (time_split.total_steps - time_split.train_steps <
      dataset.steps_per_day) {
    return spec;
  }

  const GraphKey key = MakeGraphKey(dataset, split, config);
  GraphTable& table = GraphTable::Global();
  std::shared_ptr<const ServingGraph> graph = table.Find(key);
  if (graph == nullptr) {
    // Built outside the table lock: a build fans out over the thread pool
    // and must not stall lookups of other keys.
    graph = table.Publish(key, BuildServingGraph(dataset, key));
  }

  spec.num_nodes = graph->num_nodes;
  spec.normalizer = graph->normalizer;
  spec.adj_spatial = graph->adj_spatial;
  spec.adj_temporal = graph->adj_temporal;

  // Reduced-precision serving stores the adjacency values at the serving
  // dtype too (DESIGN.md §13); the GEMM/SpMM kernels widen per element, so
  // propagation math still accumulates in fp32. The cast makes new storage,
  // so the shared fp32 graph is never written.
  if (config.serve_dtype != DType::kF32) {
    spec.adj_spatial = spec.adj_spatial.Cast(config.serve_dtype);
    spec.adj_temporal = spec.adj_temporal.Cast(config.serve_dtype);
  }
  spec.graph = std::move(graph);
  return spec;
}

ServedModel::ServedModel(ModelSpec spec) : spec_(std::move(spec)) {}

std::shared_ptr<ServedModel> ServedModel::Load(const ModelSpec& spec) {
  STSM_PROF_SCOPE("serve.model_load");
  auto served = std::shared_ptr<ServedModel>(new ServedModel(spec));
  if (spec.graph == nullptr) return served;  // No test-time graph to serve.
  Rng init_rng(spec.config.seed + 13);  // Same init stream as training.
  auto model = std::make_unique<StModel>(spec.config, &init_rng);
  if (LoadModule(model.get(), spec.checkpoint_path)) {
    model->SetTraining(false);  // Inference mode: dropout becomes identity.
    if (spec.config.serve_dtype != DType::kF32) {
      // Round the restored fp32 weights to the serving dtype and freeze the
      // module; from here on a training step is a checked error.
      CastModuleForServing(model.get(), spec.config.serve_dtype);
    }
    served->weight_bytes_ = ModuleWeightBytes(*model);
    served->model_ = std::move(model);
  }
  return served;
}

Tensor ServedModel::Predict(const Tensor& inputs,
                            const Tensor& time_features) const {
  STSM_CHECK(healthy()) << "Predict on unhealthy model " << spec_.name;
  NoGradGuard no_grad;  // No autograd graph, no grad-buffer allocations.
  // The model's prediction head ends in zero-copy view ops (transpose /
  // unsqueeze), so compact here: the serving layer reads predictions.data()
  // as a flat row-major buffer.
  return Contiguous(
      model_
          ->Forward(inputs, time_features, spec_.adj_spatial,
                    spec_.adj_temporal)
          .predictions);
}

LoadResult ModelRegistry::Load(const ModelSpec& spec) {
  // Checkpoint restore happens outside the lock: a hot-swap must not stall
  // concurrent Find calls behind model construction.
  std::shared_ptr<const ServedModel> served = ServedModel::Load(spec);
  LoadResult result;
  result.healthy = served->healthy();
  std::shared_ptr<const ServedModel> replaced;  // Torn down after unlock.
  {
    MutexLock lock(mutex_);
    std::shared_ptr<const ServedModel>& slot = models_[spec.name];
    if (slot != nullptr) {
      result.previous = slot->healthy() ? EntryHealth::kHealthy
                                        : EntryHealth::kUnhealthy;
    }
    replaced = std::move(slot);
    slot = std::move(served);
  }
  return result;
}

bool ModelRegistry::Unload(const std::string& name) {
  std::shared_ptr<const ServedModel> dropped;  // Torn down after unlock.
  {
    MutexLock lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end()) return false;
    dropped = std::move(it->second);
    models_.erase(it);
  }
  return true;
}

std::shared_ptr<const ServedModel> ModelRegistry::Find(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::Names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

}  // namespace serve
}  // namespace stsm
