// Micro-benchmarks of the substrate the models are built on: tensor kernels,
// graph convolution, DTW, and pseudo-observation filling. Uses
// google-benchmark; run in Release mode for meaningful numbers.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/registry.h"
#include "data/splits.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "nn/gcn.h"
#include "nn/loss.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"
#include "timeseries/dtw.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/temporal_adjacency.h"

namespace stsm {
namespace {

// Pins the scalar reference kernels for the duration of one benchmark so the
// *Scalar variants measure the exact code the SIMD dispatch replaced. The
// micro/baseline speedup pairs in bench/baselines.json compare against these.
class ScalarDispatchScope {
 public:
  ScalarDispatchScope() { simd::SetDispatchForTesting(false); }
  ~ScalarDispatchScope() { simd::ResetDispatch(); }
  ScalarDispatchScope(const ScalarDispatchScope&) = delete;
  ScalarDispatchScope& operator=(const ScalarDispatchScope&) = delete;
};

void BM_MatMulGcnShaped(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Rng rng(1);
  const Tensor adj = Tensor::Uniform(Shape({nodes, nodes}), 0, 1, &rng);
  const Tensor h = Tensor::Uniform(Shape({8, 12, nodes, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(adj, h).data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 12 * nodes * nodes * 16);
}
BENCHMARK(BM_MatMulGcnShaped)->Arg(50)->Arg(100)->Arg(200);

void BM_MatMulBackward(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  Rng rng(1);
  const Tensor adj = Tensor::Uniform(Shape({nodes, nodes}), 0, 1, &rng);
  Tensor h =
      Tensor::Uniform(Shape({8, 12, nodes, 16}), -1, 1, &rng, true);
  for (auto _ : state) {
    h.ZeroGrad();
    Tensor loss = Sum(MatMul(adj, h));
    loss.Backward();
    benchmark::DoNotOptimize(h.grad_data());
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(50)->Arg(100);

void BM_ReshapeView(benchmark::State& state) {
  // Zero-copy path: must not scale with tensor size or touch the allocator.
  Rng rng(7);
  const Tensor x = Tensor::Uniform(Shape({8, 12, 100, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Reshape(x, Shape({96, 1600})).data());
  }
}
BENCHMARK(BM_ReshapeView);

void BM_SliceLeadingDimView(benchmark::State& state) {
  // Contiguous slice: aliases the storage at an offset.
  Rng rng(7);
  const Tensor x = Tensor::Uniform(Shape({64, 100, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Slice(x, /*dim=*/0, 16, 48).data());
  }
}
BENCHMARK(BM_SliceLeadingDimView);

void BM_SliceInnerDimView(benchmark::State& state) {
  // Non-contiguous slice: also zero-copy now — just a strided view.
  Rng rng(7);
  const Tensor x = Tensor::Uniform(Shape({64, 100, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Slice(x, /*dim=*/1, 25, 75).data());
  }
}
BENCHMARK(BM_SliceInnerDimView);

void BM_TransposeView(benchmark::State& state) {
  // Transpose is a pure metadata swap; must not scale with tensor size.
  Rng rng(7);
  const Tensor x = Tensor::Uniform(Shape({64, 100, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Transpose(x, 1, 2).data());
  }
}
BENCHMARK(BM_TransposeView);

void BM_TransposeThenContiguous(benchmark::State& state) {
  // The materializing path, for contrast with the view: gathers through the
  // swapped strides into a fresh row-major buffer.
  Rng rng(7);
  const Tensor x = Tensor::Uniform(Shape({64, 100, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Contiguous(Transpose(x, 1, 2)).data());
  }
}
BENCHMARK(BM_TransposeThenContiguous);

void BM_PackedGemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(9);
  std::vector<float> a(static_cast<size_t>(n * n));
  std::vector<float> b(static_cast<size_t>(n * n));
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto _ : state) {
    PackedGemm(n, n, n, a.data(), n, 1, b.data(), n, 1, c.data(), n, 1,
               /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_PackedGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_NaiveGemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(9);
  std::vector<float> a(static_cast<size_t>(n * n));
  std::vector<float> b(static_cast<size_t>(n * n));
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto _ : state) {
    NaiveGemm(n, n, n, a.data(), n, 1, b.data(), n, 1, c.data(), n, 1,
              /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_NaiveGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_PackedGemmScalar(benchmark::State& state) {
  // Same workload as BM_PackedGemm with the dispatch pinned to the scalar
  // microkernel; BM_PackedGemm / BM_PackedGemmScalar is the SIMD speedup.
  ScalarDispatchScope scalar_only;
  const int64_t n = state.range(0);
  Rng rng(9);
  std::vector<float> a(static_cast<size_t>(n * n));
  std::vector<float> b(static_cast<size_t>(n * n));
  std::vector<float> c(static_cast<size_t>(n * n));
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (auto _ : state) {
    PackedGemm(n, n, n, a.data(), n, 1, b.data(), n, 1, c.data(), n, 1,
               /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_PackedGemmScalar)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulTransposedOperand(benchmark::State& state) {
  // A^T @ B without materializing A^T: the GEMM packing absorbs the swapped
  // strides, so this should track BM_PackedGemm rather than paying an extra
  // transpose copy.
  const int64_t n = state.range(0);
  Rng rng(10);
  const Tensor a = Tensor::Uniform(Shape({n, n}), -1, 1, &rng);
  const Tensor b = Tensor::Uniform(Shape({n, n}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(Transpose(a, 0, 1), b).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulTransposedOperand)->Arg(64)->Arg(128);

void BM_TrainStepPoolReuse(benchmark::State& state) {
  // Steady-state step: after the first iteration every intermediate buffer
  // comes from the pool (backward releases them eagerly).
  Rng rng(7);
  Tensor w = Tensor::Uniform(Shape({64, 64}), -0.1f, 0.1f, &rng, true);
  const Tensor x = Tensor::Uniform(Shape({32, 64}), -1, 1, &rng);
  for (auto _ : state) {
    Tensor loss = Mean(Square(Tanh(MatMul(x, w))));
    loss.Backward();
    w.ZeroGrad();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_TrainStepPoolReuse);

// One TCN conv at the model's shape (C' = 16, kernel 2, dilation 2) over a
// 100-node batch: Arg 0 is the forward alone, Arg 1 adds the backward into
// x, the weight and the bias.
void BM_Conv1dTime(benchmark::State& state) {
  const bool backward = state.range(0) != 0;
  Rng rng(2);
  Tensor x = Tensor::Uniform(Shape({8, 12, 100, 16}), -1, 1, &rng, backward);
  Tensor w = Tensor::Uniform(Shape({16, 16, 2}), -1, 1, &rng, backward);
  Tensor b = Tensor::Zeros(Shape({16}), backward);
  for (auto _ : state) {
    const Tensor y = Conv1dTime(x, w, b, 2);
    if (backward) {
      for (Tensor* t : {&x, &w, &b}) t->ZeroGrad();
      Sum(y).Backward();
    }
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv1dTime)->Arg(0)->Arg(1);

void BM_Conv1dTimeScalar(benchmark::State& state) {
  // The same conv through the scalar loops; BM_Conv1dTimeScalar /
  // BM_Conv1dTime is the vector kernels' speedup ("conv.simd_vs_scalar").
  ScalarDispatchScope scalar_only;
  BM_Conv1dTime(state);
}
BENCHMARK(BM_Conv1dTimeScalar)->Arg(0)->Arg(1);

void BM_GcnlLayerForward(benchmark::State& state) {
  Rng rng(3);
  const GcnlLayer layer(16, 16, &rng);
  const Tensor adj = Tensor::Uniform(Shape({100, 100}), 0, 0.1f, &rng);
  const Tensor x = Tensor::Uniform(Shape({8, 12, 100, 16}), -1, 1, &rng);
  for (auto _ : state) {
    NoGradGuard no_grad;
    benchmark::DoNotOptimize(layer.Forward(adj, x).data());
  }
}
BENCHMARK(BM_GcnlLayerForward);

// One GCNL training step at bay's shape: a row-normalised [84, 84] dense
// adjacency, about half non-zero like bay's spatial graph, and a
// [8, 12, 84, 16] input; forward plus backward into the input and all four
// parameters. BM_GcnlLayerComposedTrainStep runs the same step through the
// composed graph of public ops that the fused node replaces; their ratio is
// "gcnl.fused_vs_composed" in bench/baselines.json.
Tensor BayLikeAdjacency(Rng* rng) {
  const int64_t n = 84;
  std::vector<float> a(static_cast<size_t>(n * n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      if (i == j || rng->Uniform() < 0.47) {
        a[i * n + j] = static_cast<float>(rng->Uniform());
        sum += a[i * n + j];
      }
    }
    for (int64_t j = 0; j < n; ++j) a[i * n + j] /= sum;
  }
  return Tensor::FromVector(Shape({n, n}), std::move(a));
}

template <typename Forward>
void GcnlTrainStep(benchmark::State& state, const Forward& forward) {
  Rng rng(3);
  const GcnlLayer layer(16, 16, &rng);
  const Tensor adj = BayLikeAdjacency(&rng);
  Tensor x = Tensor::Uniform(Shape({8, 12, 84, 16}), -1, 1, &rng,
                             /*requires_grad=*/true);
  for (auto _ : state) {
    Sum(forward(layer, adj, x)).Backward();
    benchmark::DoNotOptimize(x.grad_data());
  }
}

void BM_GcnlLayerTrainStep(benchmark::State& state) {
  GcnlTrainStep(state, [](const GcnlLayer& layer, const Tensor& adj,
                          const Tensor& x) { return layer.Forward(adj, x); });
}
BENCHMARK(BM_GcnlLayerTrainStep);

void BM_GcnlLayerComposedTrainStep(benchmark::State& state) {
  GcnlTrainStep(state, [](const GcnlLayer& layer, const Tensor& adj,
                          const Tensor& x) {
    return Mul(layer.value().Forward(adj, x),
               Sigmoid(layer.gate().Forward(adj, x)));
  });
}
BENCHMARK(BM_GcnlLayerComposedTrainStep);

void BM_DtwDistance(benchmark::State& state) {
  const int band = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<float> a(288), b(288);
  for (auto& v : a) v = static_cast<float>(rng.Uniform());
  for (auto& v : b) v = static_cast<float>(rng.Uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(a, b, band));
  }
}
BENCHMARK(BM_DtwDistance)->Arg(0)->Arg(12);

// City-shaped temporal adjacency input: the 256-sensor PEMS08 simulation
// with the first paper split's unobserved band pseudo-filled from the
// observed sensors, as evaluation builds it. Real daily profiles are smooth
// and alike; iid noise is not, and lower bounds would not prune it.
struct CityDtwInput {
  SeriesMatrix series;
  std::vector<int> observed;
  std::vector<int> targets;
  TemporalAdjacencyOptions options;
};

const CityDtwInput& CityDtw() {
  static const CityDtwInput* const input = [] {
    auto* city = new CityDtwInput;
    const SpatioTemporalDataset dataset = MakePems08WithDensity(256);
    const SpaceSplit split = FourSplits(dataset.coords)[0];
    city->observed = split.Observed();
    city->targets = split.test;
    city->series = dataset.series;
    FillPseudoObservations(&city->series, PairwiseDistances(dataset.coords),
                           city->targets, city->observed,
                           /*max_neighbors=*/8);
    city->options.steps_per_day = dataset.steps_per_day;
    return city;
  }();
  return *input;
}

void BM_TemporalAdjacency(benchmark::State& state) {
  const CityDtwInput& city = CityDtw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(TemporalSimilarityAdjacency(
                                 city.series, city.observed, city.targets,
                                 city.options)
                                 .data());
  }
}
BENCHMARK(BM_TemporalAdjacency)->Unit(benchmark::kMillisecond);

// The brute-force twin: every pair's distance, then a partial sort per
// query. BM_TemporalAdjacency's speedup over it is "dtw.topq_vs_bruteforce".
void BM_TemporalAdjacencyBruteForce(benchmark::State& state) {
  const CityDtwInput& city = CityDtw();
  const int n = city.series.num_nodes;
  for (auto _ : state) {
    const std::vector<double> d = ProfileDtwDistances(
        city.series, city.options.steps_per_day, city.options.dtw_band);
    int edges = 0;
    for (const std::vector<int>* queries : {&city.observed, &city.targets}) {
      for (int node : *queries) {
        std::vector<std::pair<double, int>> candidates;
        for (int obs : city.observed) {
          if (obs != node) {
            candidates.emplace_back(d[static_cast<size_t>(node) * n + obs],
                                    obs);
          }
        }
        std::partial_sort(candidates.begin(), candidates.begin() + 1,
                          candidates.end());
        edges += candidates.front().second;
      }
    }
    benchmark::DoNotOptimize(edges);
  }
}
BENCHMARK(BM_TemporalAdjacencyBruteForce)->Unit(benchmark::kMillisecond);

void BM_Softmax(benchmark::State& state) {
  Rng rng(5);
  const Tensor x = Tensor::Uniform(Shape({64, 8, 24, 24}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(x, -1).data());
  }
}
BENCHMARK(BM_Softmax);

void BM_SoftmaxScalar(benchmark::State& state) {
  ScalarDispatchScope scalar_only;
  Rng rng(5);
  const Tensor x = Tensor::Uniform(Shape({64, 8, 24, 24}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(x, -1).data());
  }
}
BENCHMARK(BM_SoftmaxScalar);

void BM_AddContiguous(benchmark::State& state) {
  // Contiguous elementwise binary op: the canonical vectorized fast path.
  Rng rng(11);
  const Tensor a = Tensor::Uniform(Shape({64, 8, 24, 24}), -1, 1, &rng);
  const Tensor b = Tensor::Uniform(Shape({64, 8, 24, 24}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_AddContiguous);

void BM_AddContiguousScalar(benchmark::State& state) {
  ScalarDispatchScope scalar_only;
  Rng rng(11);
  const Tensor a = Tensor::Uniform(Shape({64, 8, 24, 24}), -1, 1, &rng);
  const Tensor b = Tensor::Uniform(Shape({64, 8, 24, 24}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_AddContiguousScalar);

void BM_InfoNce(benchmark::State& state) {
  Rng rng(6);
  Tensor a = Tensor::Uniform(Shape({16, 32}), -1, 1, &rng, true);
  Tensor b = Tensor::Uniform(Shape({16, 32}), -1, 1, &rng, true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Tensor loss = InfoNceLoss(a, b, 0.5f);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_InfoNce);

void BM_PseudoObservations(benchmark::State& state) {
  const int nodes = 200;
  Rng rng(7);
  std::vector<GeoPoint> coords;
  for (int i = 0; i < nodes; ++i) {
    coords.push_back({rng.Uniform(0, 40), rng.Uniform(0, 40)});
  }
  const auto distances = PairwiseDistances(coords);
  std::vector<int> sources, targets;
  for (int i = 0; i < nodes; ++i) {
    (i < nodes / 2 ? sources : targets).push_back(i);
  }
  SeriesMatrix series(288, nodes);
  for (auto& v : series.values) v = static_cast<float>(rng.Uniform());
  for (auto _ : state) {
    FillPseudoObservations(&series, distances, targets, sources);
    benchmark::DoNotOptimize(series.values.data());
  }
}
BENCHMARK(BM_PseudoObservations);

void BM_AdjacencyBuild(benchmark::State& state) {
  const int nodes = 400;
  Rng rng(8);
  std::vector<GeoPoint> coords;
  for (int i = 0; i < nodes; ++i) {
    coords.push_back({rng.Uniform(0, 40), rng.Uniform(0, 40)});
  }
  const auto distances = PairwiseDistances(coords);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NormalizeSymmetric(GaussianThresholdAdjacency(distances, nodes, 0.05))
            .data());
  }
}
BENCHMARK(BM_AdjacencyBuild);

// City-scale propagation pair: one graph-propagation pass over a 10k-node
// synthetic city as CSR SpMM vs the same normalised operator materialised
// dense. BM_DenseSpmmCity / BM_SpmmCity is the sparse speedup whose floor
// tools/check_pool_stats.py --micro enforces (bench/baselines.json,
// "spmm.sparse_vs_dense"); the pair is degree-matched, so the ratio tracks
// the N^2 / nnz work ratio rather than kernel tuning.
SparseCsr CityAdjacency(int nodes) {
  // Extent sized so the Eq. 2 radius (epsilon 0.5, sigma 1 km) captures
  // ~25 neighbours per node — metro-scale sensor density.
  const double radius = std::sqrt(std::log(2.0));
  const double extent = std::sqrt(nodes * M_PI * radius * radius / 25.0);
  Rng rng(12);
  std::vector<GeoPoint> coords;
  coords.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    coords.push_back({rng.Uniform(0, extent), rng.Uniform(0, extent)});
  }
  return NormalizeSymmetric(GaussianAdjacencyFromCoords(coords, 0.5, 1.0),
                            /*add_self_loops=*/false);
}

void BM_SpmmCity(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const SparseCsr adj = CityAdjacency(nodes);
  Rng rng(13);
  const Tensor x = Tensor::Uniform(Shape({nodes, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Spmm(adj, x).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * adj.nnz() * 16);
}
BENCHMARK(BM_SpmmCity)->Arg(10000);

void BM_SpmmCityScalar(benchmark::State& state) {
  // Same pass through the scalar CSR loops; BM_SpmmCityScalar / BM_SpmmCity
  // is the vector gather's speedup ("spmm.simd_vs_scalar").
  ScalarDispatchScope scalar_only;
  BM_SpmmCity(state);
}
BENCHMARK(BM_SpmmCityScalar)->Arg(10000);

void BM_DenseSpmmCity(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const Tensor dense = CityAdjacency(nodes).ToDense();
  Rng rng(13);
  const Tensor x = Tensor::Uniform(Shape({nodes, 16}), -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(dense, x).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * nodes * nodes * 16);
}
BENCHMARK(BM_DenseSpmmCity)->Arg(10000);

}  // namespace
}  // namespace stsm

// Custom main (instead of BENCHMARK_MAIN) so the JSON report records which
// kernel table was live: tools/check_pool_stats.py --micro skips the
// SIMD-vs-scalar speedup pairs when the context says the scalar table ran
// (older CPU, -DSTSM_SIMD=OFF build, or STSM_SIMD=off in the environment).
int main(int argc, char** argv) {
  const stsm::simd::KernelTable* active = stsm::simd::Active();
  benchmark::AddCustomContext("stsm_simd", active ? "on" : "off");
  benchmark::AddCustomContext("stsm_simd_isa", active ? active->isa : "scalar");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
