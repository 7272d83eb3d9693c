// Tests for the stsm::serve subsystem: forecast cache, bounded batching
// queue, and the end-to-end server (no-grad forwards, cache hits, deadline
// degradation, unhealthy-model degradation, request validation).

#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/prof.h"
#include "common/rng.h"
#include "core/experiment_context.h"
#include "core/st_model.h"
#include "core/stsm.h"
#include "data/metrics.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "data/windows.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "graph/road.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "serve/cache.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "tensor/autograd.h"
#include "tensor/dtype.h"
#include "tensor/storage.h"
#include "testing/temp_dir.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/temporal_adjacency.h"

namespace stsm {
namespace serve {
namespace {

// ---- Cache ----

TEST(ForecastCacheTest, HitMissAndLruEviction) {
  ForecastCache cache(2);
  const CacheKey a{"m", 1, 0, {0}};
  const CacheKey b{"m", 2, 0, {0}};
  const CacheKey c{"m", 3, 0, {0}};
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(a, &out));
  cache.Insert(a, {1.0f});
  cache.Insert(b, {2.0f});
  ASSERT_TRUE(cache.Lookup(a, &out));  // Promotes a over b.
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  cache.Insert(c, {3.0f});  // Evicts b (least recently used).
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_TRUE(cache.Lookup(c, &out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ForecastCacheTest, KeyDistinguishesAllComponents) {
  ForecastCache cache(8);
  const CacheKey base{"m", 7, 3, {1, 2}};
  cache.Insert(base, {1.0f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(CacheKey{"other", 7, 3, {1, 2}}, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{"m", 8, 3, {1, 2}}, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{"m", 7, 4, {1, 2}}, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{"m", 7, 3, {2, 1}}, &out));
  EXPECT_TRUE(cache.Lookup(base, &out));
}

TEST(ForecastCacheTest, HashWindowSensitiveToValues) {
  EXPECT_NE(HashWindow({1.0f, 2.0f}), HashWindow({2.0f, 1.0f}));
  EXPECT_EQ(HashWindow({1.0f, 2.0f}), HashWindow({1.0f, 2.0f}));
}

// ---- Queue ----

struct Item {
  int key = 0;
  int id = 0;
};

TEST(BoundedQueueTest, BackpressureWhenFull) {
  BoundedQueue<Item> queue(2);
  EXPECT_TRUE(queue.TryPush({1, 0}));
  EXPECT_TRUE(queue.TryPush({1, 1}));
  EXPECT_FALSE(queue.TryPush({1, 2}));  // Full.
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, PopBatchGroupsCompatibleItemsInOrder) {
  BoundedQueue<Item> queue(8);
  ASSERT_TRUE(queue.TryPush({1, 0}));
  ASSERT_TRUE(queue.TryPush({2, 1}));
  ASSERT_TRUE(queue.TryPush({1, 2}));
  ASSERT_TRUE(queue.TryPush({1, 3}));
  const auto same_key = [](const Item& a, const Item& b) {
    return a.key == b.key;
  };
  std::vector<Item> batch;
  ASSERT_TRUE(queue.PopBatch(&batch, 3, same_key));
  ASSERT_EQ(batch.size(), 3u);  // All key-1 items, oldest first.
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[1].id, 2);
  EXPECT_EQ(batch[2].id, 3);
  ASSERT_TRUE(queue.PopBatch(&batch, 3, same_key));
  ASSERT_EQ(batch.size(), 1u);  // The key-2 item was left in place.
  EXPECT_EQ(batch[0].id, 1);
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedQueue<Item> queue(4);
  ASSERT_TRUE(queue.TryPush({1, 0}));
  queue.Close();
  EXPECT_FALSE(queue.TryPush({1, 1}));  // Closed to producers.
  std::vector<Item> batch;
  const auto any = [](const Item&, const Item&) { return true; };
  ASSERT_TRUE(queue.PopBatch(&batch, 4, any));  // Still drains.
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(queue.PopBatch(&batch, 4, any));  // Closed and empty.
}

// ---- Shared serving graph ----

// The bytes a served forecast reads besides the weights: the normaliser and
// both adjacencies (dense values, or the CSR arrays), with their layout.
struct GraphBytes {
  std::vector<unsigned char> normalizer;
  std::vector<unsigned char> spatial;
  std::vector<unsigned char> temporal;
};

void AppendBytes(const void* data, size_t bytes,
                 std::vector<unsigned char>* out) {
  const auto* p = static_cast<const unsigned char*>(data);
  out->insert(out->end(), p, p + bytes);
}

std::vector<unsigned char> AdjacencyBytes(const Adjacency& adjacency) {
  std::vector<unsigned char> out;
  const DType dtype = adjacency.values_dtype();
  out.push_back(static_cast<unsigned char>(adjacency.is_sparse()));
  out.push_back(static_cast<unsigned char>(dtype));
  const size_t element = dtype == DType::kBf16 ? 2 : 4;
  if (adjacency.is_sparse()) {
    const SparseCsr& csr = adjacency.sparse();
    AppendBytes(csr.row_ptr(), sizeof(int32_t) * (csr.rows() + 1), &out);
    AppendBytes(csr.col_idx(), sizeof(int32_t) * csr.nnz(), &out);
    AppendBytes(dtype == DType::kBf16
                    ? static_cast<const void*>(csr.values_bf16())
                    : static_cast<const void*>(csr.values()),
                element * csr.nnz(), &out);
  } else {
    const Tensor& dense = adjacency.dense();
    AppendBytes(dense.impl()->raw(), element * dense.numel(), &out);
  }
  return out;
}

GraphBytes BytesOf(const Normalizer& normalizer, const Adjacency& spatial,
                   const Adjacency& temporal) {
  GraphBytes bytes;
  const float moments[2] = {normalizer.mean(), normalizer.std()};
  AppendBytes(moments, sizeof(moments), &bytes.normalizer);
  bytes.spatial = AdjacencyBytes(spatial);
  bytes.temporal = AdjacencyBytes(temporal);
  return bytes;
}

GraphBytes BytesOf(const ModelSpec& spec) {
  return BytesOf(spec.normalizer, spec.adj_spatial, spec.adj_temporal);
}

void ExpectSameGraph(const GraphBytes& actual, const GraphBytes& expected) {
  EXPECT_TRUE(actual.normalizer == expected.normalizer) << "normaliser";
  EXPECT_TRUE(actual.spatial == expected.spatial) << "spatial adjacency";
  EXPECT_TRUE(actual.temporal == expected.temporal) << "temporal adjacency";
}

// The serving graph composed straight from the ExperimentContext: Eq. 2
// over the full graph, and A_dtw over the test period with the unobserved
// columns pseudo-filled, the graph StsmRunner::Evaluate forecasts over.
GraphBytes ReferenceGraph(const SpatioTemporalDataset& dataset,
                          const SpaceSplit& split, const StsmConfig& config) {
  ExperimentContext context(dataset, split, config.distance_mode,
                            config.seed);
  Adjacency spatial = NormalizeSpatial(
      context.SpatialKernel(config.epsilon_s, config.binary_spatial_kernel),
      config.sparse_adjacency);
  SeriesMatrix filled = context.normalized_full.TimeSlice(
      context.time_split.train_steps, context.time_split.total_steps);
  FillPseudoObservations(&filled, context.pseudo_distances(),
                         context.unobserved, context.observed,
                         config.pseudo_neighbors);
  Adjacency temporal = TemporalAdjacency(
      filled, context.observed, context.unobserved,
      TemporalOptions(config, dataset.steps_per_day),
      config.sparse_adjacency);
  if (config.serve_dtype != DType::kF32) {
    spatial = spatial.Cast(config.serve_dtype);
    temporal = temporal.Cast(config.serve_dtype);
  }
  return BytesOf(context.normalizer, spatial, temporal);
}

// Identity of an adjacency's storage, to tell shared handles from copies.
const void* StorageOf(const Adjacency& adjacency) {
  if (adjacency.is_sparse()) return adjacency.sparse().impl().get();
  return adjacency.dense().impl()->raw();
}

// Counts serve.graph_builds from construction on, with profiling enabled
// for its lifetime.
class GraphBuildCounter {
 public:
  GraphBuildCounter() : was_enabled_(prof::Enabled()) {
    prof::SetEnabled(true);
    start_ = Total();
  }
  ~GraphBuildCounter() { prof::SetEnabled(was_enabled_); }

  uint64_t builds() const { return Total() - start_; }

 private:
  static uint64_t Total() {
    const prof::Snapshot snapshot = prof::TakeSnapshot();
    const prof::StatSnapshot* builds =
        snapshot.FindCounter("serve.graph_builds");
    return builds == nullptr ? 0 : builds->total_ns;
  }

  bool was_enabled_;
  uint64_t start_ = 0;
};

// A dataset and split no other test in this file builds a spec over, so
// the build counts below see only the specs of their own test.
struct GraphCase {
  SpatioTemporalDataset dataset;
  SpaceSplit split;
  StsmConfig config;
};

GraphCase MakeGraphCase() {
  GraphCase c;
  SimulatorConfig sim;
  sim.name = "graph-tiny";
  sim.kind = RegionKind::kHighway;
  sim.num_sensors = 20;
  // The test-time DTW graph reads the test period's (30%) daily
  // profiles, so the period must span a day: four days of 48 steps.
  sim.num_days = 4;
  sim.steps_per_day = 48;
  sim.area_km = 16.0;
  sim.seed = 12;
  c.dataset = SimulateDataset(sim);
  c.split = SplitSpace(c.dataset.coords, SplitAxis::kVertical);
  c.config.input_length = 8;
  c.config.horizon = 4;
  c.config.hidden_dim = 8;
  c.config.num_blocks = 1;
  c.config.dtw_band = 6;
  c.config.seed = 21;
  return c;
}

ModelSpec BuildSpec(const GraphCase& c, const StsmConfig& config) {
  return BuildModelSpec("stsm", c.dataset, c.split, config, "unused.bin");
}

// The graph of `config`'s spec built while no other spec is alive.
GraphBytes LoneBuild(const GraphCase& c, const StsmConfig& config) {
  return BytesOf(BuildSpec(c, config));
}

TEST(SharedGraphTest, TcnAndTransShareOneBuild) {
  const GraphCase c = MakeGraphCase();
  for (const bool sparse : {false, true}) {
    for (const DistanceMode mode :
         {DistanceMode::kEuclidean, DistanceMode::kRoadAll,
          DistanceMode::kRoadMatrixOnly}) {
      SCOPED_TRACE(::testing::Message()
                   << "sparse=" << sparse << " mode=" << static_cast<int>(mode));
      StsmConfig tcn = c.config;
      tcn.sparse_adjacency = sparse;
      tcn.distance_mode = mode;
      StsmConfig trans = tcn;
      trans.temporal_module = TemporalModule::kTransformer;
      const GraphBytes lone = LoneBuild(c, tcn);
      ExpectSameGraph(lone, ReferenceGraph(c.dataset, c.split, tcn));

      GraphBuildCounter counter;
      const ModelSpec tcn_spec = BuildSpec(c, tcn);
      const ModelSpec trans_spec = BuildSpec(c, trans);
      EXPECT_EQ(counter.builds(), 1u);
      EXPECT_EQ(tcn_spec.graph, trans_spec.graph);
      EXPECT_EQ(tcn_spec.adj_spatial.is_sparse(), sparse);
      EXPECT_EQ(StorageOf(tcn_spec.adj_spatial),
                StorageOf(trans_spec.adj_spatial));
      EXPECT_EQ(StorageOf(tcn_spec.adj_temporal),
                StorageOf(trans_spec.adj_temporal));
      ExpectSameGraph(BytesOf(tcn_spec), lone);
      ExpectSameGraph(BytesOf(trans_spec), lone);
    }
  }
}

TEST(SharedGraphTest, EveryKeyedFieldBuildsItsOwnGraph) {
  const GraphCase base = MakeGraphCase();
  StsmConfig road = base.config;
  road.distance_mode = DistanceMode::kRoadAll;
  struct Variant {
    const char* name;
    StsmConfig held;  // The config of the spec kept alive meanwhile.
    std::function<void(GraphCase*)> change;
  };
  const std::vector<Variant> variants = {
      // An observed node at t = 0, so the normaliser reads the change.
      {"series value", base.config,
       [](GraphCase* c) {
         c->dataset.series.values[c->split.Observed()[0]] += 1.0f;
       }},
      {"coordinate", base.config,
       [](GraphCase* c) { c->dataset.coords[3].x += 0.5; }},
      {"steps_per_day", base.config,
       [](GraphCase* c) { c->dataset.steps_per_day = 24; }},
      {"split", base.config,
       [](GraphCase* c) {
         c->split = SplitSpace(c->dataset.coords, SplitAxis::kHorizontal);
       }},
      {"distance_mode rd-a", base.config,
       [](GraphCase* c) { c->config.distance_mode = DistanceMode::kRoadAll; }},
      {"distance_mode rd-m", base.config,
       [](GraphCase* c) {
         c->config.distance_mode = DistanceMode::kRoadMatrixOnly;
       }},
      {"seed in a road mode", road,
       [](GraphCase* c) {
         c->config.distance_mode = DistanceMode::kRoadAll;
         c->config.seed += 1;
       }},
      {"epsilon_s", base.config,
       [](GraphCase* c) { c->config.epsilon_s = 0.2; }},
      {"binary_spatial_kernel", base.config,
       [](GraphCase* c) { c->config.binary_spatial_kernel = true; }},
      {"sparse_adjacency", base.config,
       [](GraphCase* c) { c->config.sparse_adjacency = true; }},
      {"pseudo_neighbors", base.config,
       [](GraphCase* c) { c->config.pseudo_neighbors = 3; }},
      {"q_kk", base.config, [](GraphCase* c) { c->config.q_kk = 2; }},
      {"q_ku", base.config, [](GraphCase* c) { c->config.q_ku = 2; }},
      {"dtw_band", base.config, [](GraphCase* c) { c->config.dtw_band = 2; }},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    GraphCase changed = MakeGraphCase();
    variant.change(&changed);
    const GraphBytes lone = LoneBuild(changed, changed.config);
    ExpectSameGraph(lone, ReferenceGraph(changed.dataset, changed.split,
                                         changed.config));

    const ModelSpec held = BuildSpec(base, variant.held);
    GraphBuildCounter counter;
    const ModelSpec spec = BuildSpec(changed, changed.config);
    EXPECT_EQ(counter.builds(), 1u);
    EXPECT_NE(spec.graph, held.graph);
    ExpectSameGraph(BytesOf(spec), lone);
  }
}

TEST(SharedGraphTest, UnkeyedFieldsShareTheGraph) {
  const GraphCase base = MakeGraphCase();
  const ModelSpec held = BuildSpec(base, base.config);
  const GraphBytes held_bytes = BytesOf(held);
  struct Variant {
    const char* name;
    std::function<void(GraphCase*)> change;
  };
  const std::vector<Variant> variants = {
      {"temporal_module",
       [](GraphCase* c) {
         c->config.temporal_module = TemporalModule::kTransformer;
       }},
      {"hidden_dim", [](GraphCase* c) { c->config.hidden_dim = 16; }},
      {"epochs", [](GraphCase* c) { c->config.epochs = 2; }},
      // The road distances alone read the seed.
      {"seed in the Euclidean mode", [](GraphCase* c) { c->config.seed += 1; }},
      // A copy at another address, same content.
      {"dataset copy", [](GraphCase*) {}},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    GraphCase changed = MakeGraphCase();
    variant.change(&changed);
    GraphBuildCounter counter;
    const ModelSpec spec = BuildSpec(changed, changed.config);
    EXPECT_EQ(counter.builds(), 0u);
    EXPECT_EQ(spec.graph, held.graph);
    EXPECT_EQ(StorageOf(spec.adj_temporal), StorageOf(held.adj_temporal));
    ExpectSameGraph(BytesOf(spec), held_bytes);
  }
}

TEST(SharedGraphTest, RebuildsOnceEverySpecIsGone) {
  const GraphCase c = MakeGraphCase();
  StsmConfig trans = c.config;
  trans.temporal_module = TemporalModule::kTransformer;
  GraphBuildCounter counter;
  GraphBytes first;
  {
    const ModelSpec tcn_spec = BuildSpec(c, c.config);
    const ModelSpec trans_spec = BuildSpec(c, trans);
    first = BytesOf(trans_spec);
  }
  EXPECT_EQ(counter.builds(), 1u);
  const ModelSpec again = BuildSpec(c, c.config);
  EXPECT_EQ(counter.builds(), 2u);
  ExpectSameGraph(BytesOf(again), first);
}

TEST(SharedGraphTest, Bf16SpecLeavesTheSharedFp32GraphUnchanged) {
  const GraphCase c = MakeGraphCase();
  for (const bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "csr" : "dense");
    StsmConfig f32 = c.config;
    f32.sparse_adjacency = sparse;
    StsmConfig bf16 = f32;
    bf16.serve_dtype = DType::kBf16;
    const ModelSpec f32_spec = BuildSpec(c, f32);
    const GraphBytes before = BytesOf(f32_spec);

    GraphBuildCounter counter;
    const ModelSpec bf16_spec = BuildSpec(c, bf16);
    EXPECT_EQ(counter.builds(), 0u);
    EXPECT_EQ(bf16_spec.graph, f32_spec.graph);
    EXPECT_EQ(bf16_spec.adj_spatial.values_dtype(), DType::kBf16);
    EXPECT_EQ(bf16_spec.adj_temporal.values_dtype(), DType::kBf16);
    ExpectSameGraph(BytesOf(bf16_spec),
                    ReferenceGraph(c.dataset, c.split, bf16));
    EXPECT_EQ(f32_spec.adj_spatial.values_dtype(), DType::kF32);
    EXPECT_EQ(f32_spec.adj_temporal.values_dtype(), DType::kF32);
    ExpectSameGraph(BytesOf(f32_spec), before);
  }
}

TEST(SharedGraphTest, ConcurrentBuildsOfOneKeyAgree) {
  const GraphCase c = MakeGraphCase();
  const GraphBytes reference = ReferenceGraph(c.dataset, c.split, c.config);
  constexpr int kThreads = 4;
  std::vector<ModelSpec> specs(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c, &specs, i] { specs[i] = BuildSpec(c, c.config); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE(i);
    // A build that lost the race adopts the graph published first.
    EXPECT_EQ(specs[i].graph, specs[0].graph);
    ExpectSameGraph(BytesOf(specs[i]), reference);
  }
}

// ---- Server ----

// The fixture below is leaked, so its checkpoints stay loadable for every
// test in this process; this directory is removed at exit.
ScopedTempDir& CheckpointDir() {
  static ScopedTempDir dir;
  return dir;
}

struct ServeFixture {
  SpatioTemporalDataset dataset;
  StsmConfig config;
  SpaceSplit split;
  ModelSpec spec;
  ModelRegistry registry;
  std::string checkpoint = CheckpointDir().File("ckpt.bin");
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = [] {
    auto* f = new ServeFixture();
    SimulatorConfig sim;
    sim.name = "serve-tiny";
    sim.kind = RegionKind::kHighway;
    sim.num_sensors = 24;
    // The test-time DTW graph reads the test period's (30%) daily
    // profiles, so the period must span a day: four days of 48 steps.
    sim.num_days = 4;
    sim.steps_per_day = 48;
    sim.area_km = 16.0;
    sim.seed = 11;
    f->dataset = SimulateDataset(sim);

    f->config.input_length = 8;
    f->config.horizon = 4;
    f->config.hidden_dim = 8;
    f->config.num_blocks = 1;
    f->config.dtw_band = 6;
    f->config.seed = 21;

    f->split = SplitSpace(f->dataset.coords, SplitAxis::kVertical);

    Rng init_rng(f->config.seed + 13);
    StModel model(f->config, &init_rng);
    EXPECT_TRUE(SaveModule(model, f->checkpoint));

    f->spec = BuildModelSpec("stsm", f->dataset, f->split, f->config,
                             f->checkpoint);
    EXPECT_TRUE(f->registry.Load(f->spec).healthy);
    return f;
  }();
  return *fixture;
}

ForecastRequest MakeRequest(const ServeFixture& f, int start) {
  ForecastRequest request;
  request.model = "stsm";
  request.start_step = start;
  request.regions = f.split.test;
  const int n = f.dataset.num_nodes();
  request.window.resize(static_cast<size_t>(f.config.input_length) * n);
  for (int t = 0; t < f.config.input_length; ++t) {
    for (int node = 0; node < n; ++node) {
      request.window[static_cast<size_t>(t) * n + node] =
          f.dataset.series.at(start + t, node);
    }
  }
  return request;
}

TEST(ModelSpecTest, SparseAdjacencyPredictsLikeDense) {
  // config.sparse_adjacency flips the spec's adjacencies to CSR; the served
  // forecasts must agree with the dense spec within float accumulation
  // tolerance (same Table 4 guarantee as the offline model).
  ServeFixture& f = Fixture();
  StsmConfig sparse_config = f.config;
  sparse_config.sparse_adjacency = true;
  const ModelSpec sparse_spec = BuildModelSpec(
      "stsm-sparse", f.dataset, f.split, sparse_config, f.checkpoint);
  EXPECT_TRUE(sparse_spec.adj_spatial.is_sparse());
  EXPECT_TRUE(sparse_spec.adj_temporal.is_sparse());
  EXPECT_FALSE(f.spec.adj_spatial.is_sparse());

  const auto dense_model = ServedModel::Load(f.spec);
  const auto sparse_model = ServedModel::Load(sparse_spec);
  ASSERT_TRUE(dense_model->healthy());
  ASSERT_TRUE(sparse_model->healthy());

  Rng rng(31);
  const int n = f.dataset.num_nodes();
  const Tensor inputs = Tensor::Uniform(
      Shape({2, f.config.input_length, n, 1}), -1, 1, &rng);
  const Tensor time_features =
      Tensor::Uniform(Shape({2, f.config.input_length, 3}), -1, 1, &rng);
  const Tensor dense_out = dense_model->Predict(inputs, time_features);
  const Tensor sparse_out = sparse_model->Predict(inputs, time_features);
  ASSERT_EQ(dense_out.shape(), sparse_out.shape());
  for (int64_t i = 0; i < dense_out.numel(); ++i) {
    const float d = dense_out.data()[i];
    EXPECT_NEAR(sparse_out.data()[i], d,
                1e-5f * std::max(1.0f, std::fabs(d)))
        << "element " << i;
  }
}

TEST(ModelSpecTest, RoadModeServesTheTrainedGraph) {
  // In the Table 11 road modes the served spatial graph is the one training
  // used: Eq. 2 over the road distances drawn from Rng(seed + 7), and the
  // pseudo-observations behind the temporal graph read road distances in
  // kRoadAll only.
  ServeFixture& f = Fixture();
  const int n = f.dataset.num_nodes();
  const std::vector<int> observed = f.split.Observed();
  const TimeSplit time_split = SplitTime(f.dataset.num_steps());
  for (const DistanceMode mode :
       {DistanceMode::kRoadAll, DistanceMode::kRoadMatrixOnly}) {
    SCOPED_TRACE(mode == DistanceMode::kRoadAll ? "rd-a" : "rd-m");
    StsmConfig config = f.config;
    config.distance_mode = mode;
    const ModelSpec spec =
        BuildModelSpec("stsm-road", f.dataset, f.split, config, f.checkpoint);

    Rng road_rng(config.seed + 7);
    const std::vector<double> road = RoadNetworkDistances(
        f.dataset.coords, /*k_nearest=*/3, /*detour_factor=*/1.3,
        /*detour_jitter=*/0.1, &road_rng);
    const Tensor spatial = NormalizeSymmetric(
        GaussianThresholdAdjacency(road, n, config.epsilon_s,
                                   /*sigma_override=*/0.0,
                                   config.binary_spatial_kernel),
        /*add_self_loops=*/false);
    ASSERT_FALSE(spec.adj_spatial.is_sparse());
    EXPECT_EQ(std::memcmp(spec.adj_spatial.dense().data(), spatial.data(),
                          sizeof(float) * n * n),
              0);
    // The Euclidean graph differs, so the comparison above has teeth.
    EXPECT_NE(std::memcmp(f.spec.adj_spatial.dense().data(), spatial.data(),
                          sizeof(float) * n * n),
              0);

    // A_dtw over the test period, the graph StsmRunner::Evaluate reads.
    SeriesMatrix filled = f.dataset.series.TimeSlice(
        time_split.train_steps, time_split.total_steps);
    f.spec.normalizer.TransformInPlace(&filled);
    FillPseudoObservations(
        &filled,
        mode == DistanceMode::kRoadAll ? road
                                       : PairwiseDistances(f.dataset.coords),
        f.split.test, observed, config.pseudo_neighbors);
    TemporalAdjacencyOptions options;
    options.q_kk = config.q_kk;
    options.q_ku = config.q_ku;
    options.steps_per_day = f.dataset.steps_per_day;
    options.dtw_band = config.dtw_band;
    const Tensor temporal = NormalizeRow(
        TemporalSimilarityAdjacency(filled, observed, f.split.test, options),
        /*add_self_loops=*/true);
    ASSERT_FALSE(spec.adj_temporal.is_sparse());
    EXPECT_EQ(std::memcmp(spec.adj_temporal.dense().data(), temporal.data(),
                          sizeof(float) * n * n),
              0);
  }
}

TEST(ModelSpecTest, ServedForecastEqualsEvaluate) {
  // The served forecast is the evaluated forecast: with no training, the
  // runner's model is the checkpoint's, and Predict on Evaluate's windows
  // must reproduce Evaluate's unobserved-region metrics bit for bit, dense
  // and CSR, in the Euclidean mode and in a road mode.
  ServeFixture& f = Fixture();
  const int n = f.dataset.num_nodes();
  const std::vector<int> observed = f.split.Observed();
  const TimeSplit time_split = SplitTime(f.dataset.num_steps());
  for (const bool sparse : {false, true}) {
    for (const DistanceMode mode :
         {DistanceMode::kEuclidean, DistanceMode::kRoadAll}) {
      SCOPED_TRACE(::testing::Message()
                   << "sparse=" << sparse << " mode=" << static_cast<int>(mode));
      StsmConfig config = f.config;
      config.sparse_adjacency = sparse;
      config.distance_mode = mode;
      config.epochs = 0;
      const std::string checkpoint = CheckpointDir().File(
          "eval_" + std::to_string(sparse) + "_" +
          std::to_string(static_cast<int>(mode)) + ".bin");
      Rng init_rng(config.seed + 13);
      ASSERT_TRUE(SaveModule(StModel(config, &init_rng), checkpoint));

      StsmRunner runner(f.dataset, f.split, config);
      const ExperimentResult evaluated = runner.Run();

      const auto served = ServedModel::Load(BuildModelSpec(
          "stsm-eval", f.dataset, f.split, config, checkpoint));
      ASSERT_TRUE(served->healthy());
      const Normalizer& normalizer = served->spec().normalizer;
      // Evaluate's inputs, composed here: the normalised series with the
      // unobserved columns pseudo-filled. The fill is per time step, so the
      // test-period windows read what a test-period fill holds.
      SeriesMatrix filled = f.dataset.series;
      normalizer.TransformInPlace(&filled);
      std::vector<double> pseudo_distances =
          PairwiseDistances(f.dataset.coords);
      if (mode == DistanceMode::kRoadAll) {
        Rng road_rng(config.seed + 7);
        pseudo_distances = RoadNetworkDistances(
            f.dataset.coords, /*k_nearest=*/3, /*detour_factor=*/1.3,
            /*detour_jitter=*/0.1, &road_rng);
      }
      FillPseudoObservations(&filled, pseudo_distances, f.split.test,
                             observed, config.pseudo_neighbors);

      const WindowSpec window{config.input_length, config.horizon};
      const std::vector<int> starts = CapWindowStarts(
          ValidWindowStarts(time_split.train_steps, time_split.total_steps,
                            window, config.eval_stride),
          config.max_eval_windows);
      ASSERT_FALSE(starts.empty());
      MetricsAccumulator accumulator;
      std::vector<MetricsAccumulator> per_horizon(config.horizon);
      for (size_t begin = 0; begin < starts.size();
           begin += config.batch_size) {
        const std::vector<int> chunk(
            starts.begin() + begin,
            starts.begin() + std::min(starts.size(),
                                      begin + config.batch_size));
        const WindowBatch batch =
            MakeWindowBatch(filled, chunk, window, f.dataset.steps_per_day);
        const Tensor predictions =
            served->Predict(batch.inputs, batch.input_time);
        for (size_t b = 0; b < chunk.size(); ++b) {
          for (int t = 0; t < config.horizon; ++t) {
            const int step = chunk[b] + config.input_length + t;
            for (int node : f.split.test) {
              const float predicted = normalizer.Inverse(predictions.data()[
                  (static_cast<size_t>(b) * config.horizon + t) * n + node]);
              accumulator.Add(predicted, f.dataset.series.at(step, node));
              per_horizon[t].Add(predicted, f.dataset.series.at(step, node));
            }
          }
        }
      }
      const Metrics metrics = accumulator.Compute();
      EXPECT_EQ(metrics.rmse, evaluated.metrics.rmse);
      EXPECT_EQ(metrics.mae, evaluated.metrics.mae);
      EXPECT_EQ(metrics.mape, evaluated.metrics.mape);
      EXPECT_EQ(metrics.r2, evaluated.metrics.r2);
      EXPECT_EQ(metrics.count, evaluated.metrics.count);
      ASSERT_EQ(evaluated.horizon_rmse.size(),
                static_cast<size_t>(config.horizon));
      for (int t = 0; t < config.horizon; ++t) {
        EXPECT_EQ(per_horizon[t].Compute().rmse, evaluated.horizon_rmse[t])
            << "horizon step " << t;
      }
    }
  }
}

TEST(ModelSpecTest, Bf16ServingParity) {
  // The end-to-end tolerance gate of DESIGN.md §13: a bf16-served model
  // (weights and adjacency values rounded, fp32 accumulation) must agree
  // with the fp32-served model within 1e-2 relative — the same order as
  // the paper's Table 4 metric resolution.
  ServeFixture& f = Fixture();
  StsmConfig bf16_config = f.config;
  bf16_config.serve_dtype = DType::kBf16;
  const ModelSpec bf16_spec = BuildModelSpec(
      "stsm-bf16", f.dataset, f.split, bf16_config, f.checkpoint);
  EXPECT_EQ(bf16_spec.adj_spatial.values_dtype(), DType::kBf16);
  EXPECT_EQ(bf16_spec.adj_temporal.values_dtype(), DType::kBf16);

  const auto f32_model = ServedModel::Load(f.spec);
  const auto bf16_model = ServedModel::Load(bf16_spec);
  ASSERT_TRUE(f32_model->healthy());
  ASSERT_TRUE(bf16_model->healthy());
  // Resident weights shrink by exactly 2x (every parameter converts).
  EXPECT_EQ(f32_model->weight_bytes(), 2 * bf16_model->weight_bytes());

  Rng rng(57);
  const int n = f.dataset.num_nodes();
  const Tensor inputs = Tensor::Uniform(
      Shape({2, f.config.input_length, n, 1}), -1, 1, &rng);
  const Tensor time_features =
      Tensor::Uniform(Shape({2, f.config.input_length, 3}), -1, 1, &rng);
  const Tensor f32_out = f32_model->Predict(inputs, time_features);
  const Tensor bf16_out = bf16_model->Predict(inputs, time_features);
  ASSERT_EQ(f32_out.shape(), bf16_out.shape());
  for (int64_t i = 0; i < f32_out.numel(); ++i) {
    const float expected = f32_out.data()[i];
    EXPECT_NEAR(bf16_out.data()[i], expected,
                1e-2f * std::max(1.0f, std::fabs(expected)))
        << "element " << i;
  }
}

TEST(ForecastServerTest, HealthyModelServesOk) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  const ForecastResponse response = server.SubmitAndWait(MakeRequest(f, 0));
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.horizon, f.config.horizon);
  EXPECT_GE(response.batch_size, 1);
  ASSERT_EQ(response.forecast.size(),
            static_cast<size_t>(f.config.horizon) * f.split.test.size());
  for (float value : response.forecast) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(ForecastServerTest, RepeatedQueryHitsCache) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  const ForecastResponse first = server.SubmitAndWait(MakeRequest(f, 5));
  ASSERT_EQ(first.status, Status::kOk);
  const ForecastResponse second = server.SubmitAndWait(MakeRequest(f, 5));
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.forecast.size(), first.forecast.size());
  for (size_t i = 0; i < first.forecast.size(); ++i) {
    EXPECT_FLOAT_EQ(second.forecast[i], first.forecast[i]);
  }
  EXPECT_GE(server.stats().cache_hits, 1u);
}

TEST(ForecastServerTest, ServingBuildsNoAutogradState) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  server.SubmitAndWait(MakeRequest(f, 2));  // Warm up lazy init.
  const uint64_t nodes = autograd::NodesCreated();
  const uint64_t grads = Storage::GradAllocations();
  const ForecastResponse response = server.SubmitAndWait(MakeRequest(f, 9));
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(autograd::NodesCreated(), nodes)
      << "serving forward recorded autograd nodes";
  EXPECT_EQ(Storage::GradAllocations(), grads)
      << "serving forward allocated grad buffers";
}

TEST(ForecastServerTest, UnknownModelAndBadShapesError) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  ForecastRequest unknown = MakeRequest(f, 0);
  unknown.model = "no-such-model";
  EXPECT_EQ(server.SubmitAndWait(std::move(unknown)).status, Status::kError);

  ForecastRequest short_window = MakeRequest(f, 0);
  short_window.window.pop_back();
  EXPECT_EQ(server.SubmitAndWait(std::move(short_window)).status,
            Status::kError);

  ForecastRequest bad_region = MakeRequest(f, 0);
  bad_region.regions = {f.dataset.num_nodes() + 5};
  EXPECT_EQ(server.SubmitAndWait(std::move(bad_region)).status,
            Status::kError);

  ForecastRequest no_regions = MakeRequest(f, 0);
  no_regions.regions.clear();
  EXPECT_EQ(server.SubmitAndWait(std::move(no_regions)).status,
            Status::kError);
  EXPECT_EQ(server.stats().errors, 4u);
}

TEST(ForecastServerTest, NonFiniteWindowIsAnErrorAndNeverCached) {
  // A NaN or infinity in the last input step (inside the receptive field)
  // or in step 0 (outside it) is refused before the cache lookup: twice the
  // same request, twice kError, and no model answer to cache.
  ServeFixture& f = Fixture();
  const int n = f.dataset.num_nodes();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    for (const int step : {f.config.input_length - 1, 0}) {
      SCOPED_TRACE(::testing::Message() << bad << " at step " << step);
      ForecastServer server(&f.registry, ServerConfig{});
      ForecastRequest request = MakeRequest(f, 4);
      request.window[static_cast<size_t>(step) * n + f.split.test[0]] = bad;
      for (int attempt = 0; attempt < 2; ++attempt) {
        const ForecastResponse response = server.SubmitAndWait(request);
        EXPECT_EQ(response.status, Status::kError);
        EXPECT_EQ(response.message, "non-finite window value");
        EXPECT_FALSE(response.cache_hit);
      }
      const ServerStats stats = server.stats();
      EXPECT_EQ(stats.errors, 2u);
      EXPECT_EQ(stats.ok, 0u);
      EXPECT_EQ(stats.batches, 0u);
      EXPECT_EQ(stats.cache.hits, 0u);
      EXPECT_EQ(stats.cache.misses, 0u);  // Never looked up.
    }
  }
}

TEST(ForecastServerTest, ExpiredDeadlineDegradesToHistoricalAverage) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  ForecastRequest request = MakeRequest(f, 3);
  request.deadline = Clock::now() - std::chrono::seconds(1);
  const ForecastResponse response = server.SubmitAndWait(request);
  ASSERT_EQ(response.status, Status::kDegraded);
  EXPECT_EQ(response.message, "deadline missed");
  const int n = f.dataset.num_nodes();
  ASSERT_EQ(response.forecast.size(),
            static_cast<size_t>(f.config.horizon) * request.regions.size());
  // Fallback = per-region mean of the request's own window, repeated.
  for (size_t r = 0; r < request.regions.size(); ++r) {
    double sum = 0.0;
    for (int t = 0; t < f.config.input_length; ++t) {
      sum += request.window[static_cast<size_t>(t) * n + request.regions[r]];
    }
    const float mean = static_cast<float>(sum / f.config.input_length);
    for (int h = 0; h < f.config.horizon; ++h) {
      EXPECT_FLOAT_EQ(
          response.forecast[static_cast<size_t>(h) * request.regions.size() +
                            r],
          mean);
    }
  }
  EXPECT_GE(server.stats().degraded, 1u);
}

TEST(ForecastServerTest, UnhealthyModelDegradesInsteadOfFailing) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  ModelSpec broken = f.spec;
  broken.name = "broken";
  broken.checkpoint_path = CheckpointDir().Absent();
  EXPECT_FALSE(registry.Load(broken).healthy);  // Load failure reported...
  ASSERT_NE(registry.Find("broken"), nullptr);  // ...but still registered.
  EXPECT_FALSE(registry.Find("broken")->healthy());

  ForecastServer server(&registry, ServerConfig{});
  ForecastRequest request = MakeRequest(f, 0);
  request.model = "broken";
  const ForecastResponse response = server.SubmitAndWait(std::move(request));
  EXPECT_EQ(response.status, Status::kDegraded);
  EXPECT_EQ(response.message, "model unavailable");
  EXPECT_FALSE(response.forecast.empty());
}

TEST(ForecastServerTest, StopAnswersAllAcceptedRequests) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(MakeRequest(f, i)));
  }
  server.Stop();
  for (auto& future : futures) {
    const ForecastResponse response = future.get();  // Must not hang/throw.
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kRejected)
        << StatusName(response.status);
  }
}

}  // namespace
}  // namespace serve
}  // namespace stsm
