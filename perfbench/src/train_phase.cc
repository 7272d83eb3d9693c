#include "train_phase.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/st_model.h"
#include "data/normalizer.h"
#include "data/windows.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "masking/masking.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "reference.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/temporal_adjacency.h"

namespace stbench {

using stsm::Adjacency;
using stsm::SeriesMatrix;
using stsm::SparseCsr;
using stsm::Tensor;

namespace {

bool Close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(1.0, std::fabs(b));
}

// Dense square sub-matrix at `indices` (the runner's dense A_s(train) route).
Tensor DenseSubAdjacency(const Tensor& adjacency,
                         const std::vector<int>& indices) {
  const int64_t n = adjacency.shape()[0];
  const int64_t k = static_cast<int64_t>(indices.size());
  Tensor sub = Tensor::Zeros(stsm::Shape({k, k}));
  const float* a = adjacency.data();
  float* s = sub.data();
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      s[i * k + j] = a[static_cast<int64_t>(indices[i]) * n + indices[j]];
    }
  }
  return sub;
}

std::vector<double> SubDistances(const std::vector<double>& distances, int n,
                                 const std::vector<int>& indices) {
  const size_t k = indices.size();
  std::vector<double> sub(k * k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      sub[i * k + j] =
          distances[static_cast<size_t>(indices[i]) * n + indices[j]];
    }
  }
  return sub;
}

Adjacency Route(Tensor dense, bool sparse) {
  if (sparse) return Adjacency(SparseCsr::FromDense(dense));
  return Adjacency(std::move(dense));
}

uint64_t TimerCount(const stsm::prof::Snapshot& snapshot, const char* name) {
  const stsm::prof::StatSnapshot* stat = snapshot.FindTimer(name);
  return stat != nullptr ? stat->count : 0;
}

uint64_t CounterTotal(const stsm::prof::Snapshot& snapshot, const char* name) {
  const stsm::prof::StatSnapshot* stat = snapshot.FindCounter(name);
  return stat != nullptr ? stat->total_ns : 0;
}

}  // namespace

bool CheckTraining(const Workload& workload, uint64_t seed,
                   const stsm::ExperimentResult& result, std::string* why) {
  const TrainingReference* ref = FindReference(workload.name);
  if (ref == nullptr) {
    *why = "no training reference for this workload";
    return false;
  }
  if (static_cast<int>(result.train_losses.size()) != workload.epochs) {
    *why = "wrong number of epoch losses";
    return false;
  }
  for (double loss : result.train_losses) {
    if (!std::isfinite(loss)) {
      *why = "non-finite training loss";
      return false;
    }
  }
  const stsm::Metrics& m = result.metrics;
  if (!std::isfinite(m.rmse) || !std::isfinite(m.mae)) {
    *why = "non-finite RMSE/MAE";
    return false;
  }
  if (seed != kDefaultSeed) {
    // Another seed draws other masks, windows and initial weights, so only
    // the quality band is known.
    if (m.rmse < ref->rmse / kSeedBand || m.rmse > ref->rmse * kSeedBand) {
      char buffer[160];
      std::snprintf(buffer, sizeof(buffer),
                    "RMSE %.4f outside [%.4f, %.4f] for seed %llu", m.rmse,
                    ref->rmse / kSeedBand, ref->rmse * kSeedBand,
                    static_cast<unsigned long long>(seed));
      *why = buffer;
      return false;
    }
    return true;
  }
  bool ok = Close(m.rmse, ref->rmse, kReferenceTolerance) &&
            Close(m.mae, ref->mae, kReferenceTolerance) &&
            ref->losses.size() == result.train_losses.size();
  for (size_t i = 0; ok && i < ref->losses.size(); ++i) {
    ok = Close(result.train_losses[i], ref->losses[i], kReferenceTolerance);
  }
  if (!ok) {
    char buffer[200];
    std::snprintf(buffer, sizeof(buffer),
                  "outputs differ from the reference: RMSE %.17g (ref %.17g) "
                  "MAE %.17g (ref %.17g)",
                  m.rmse, ref->rmse, m.mae, ref->mae);
    *why = buffer;
  }
  return ok;
}

void ProbeTraining(const stsm::SpatioTemporalDataset& dataset,
                   const stsm::SpaceSplit& split,
                   const stsm::StsmConfig& config, double train_s,
                   double eval_s, const stsm::prof::Snapshot& counts,
                   Trace* trace, Report* report) {
  const int n = dataset.num_nodes();
  const bool sparse = config.sparse_adjacency;
  const std::vector<int> observed = split.Observed();
  const std::vector<int>& unobserved = split.test;
  const int num_observed = static_cast<int>(observed.size());

  // The runner's precomputed state, rebuilt the way its constructor does.
  const stsm::TimeSplit time_split = stsm::SplitTime(dataset.num_steps(), 0.7);
  stsm::Normalizer normalizer;
  normalizer.Fit(dataset.series, observed, time_split.train_steps);
  SeriesMatrix normalized_full = dataset.series;
  normalizer.TransformInPlace(&normalized_full);
  SeriesMatrix train_observed(time_split.train_steps, num_observed);
  for (int t = 0; t < time_split.train_steps; ++t) {
    for (int c = 0; c < num_observed; ++c) {
      train_observed.set(t, c, normalized_full.at(t, observed[c]));
    }
  }

  std::printf("training layers (median ms per call):\n");
  const auto time = [&](const char* name, const std::function<void()>& fn) {
    const double ms = TimeCalls(name, trace, fn);
    report->Add(name, ms, "ms");
    return ms;
  };

  // ---- Set-up layers ----
  std::vector<double> distances;
  time("graph.distances_ms",
       [&] { distances = stsm::PairwiseDistances(dataset.coords); });
  const std::vector<double> dist_train = SubDistances(distances, n, observed);

  Adjacency a_s_full, a_s_train, a_sg;
  time("graph.spatial_adj_ms", [&] {
    if (sparse) {
      const SparseCsr kernel = stsm::GaussianThresholdAdjacencyCsr(
          distances, n, config.epsilon_s, 0.0, config.binary_spatial_kernel);
      a_s_full = Adjacency(stsm::NormalizeSymmetric(kernel, false));
      a_s_train = Adjacency(stsm::NormalizeSymmetric(
          stsm::SubAdjacency(kernel, observed), false));
      a_sg = Adjacency(stsm::GaussianThresholdAdjacencyCsr(
          distances, n, config.epsilon_sg, 0.0, true));
    } else {
      const Tensor kernel = stsm::GaussianThresholdAdjacency(
          distances, n, config.epsilon_s, 0.0, config.binary_spatial_kernel);
      a_s_full = Adjacency(stsm::NormalizeSymmetric(kernel, false));
      a_s_train = Adjacency(stsm::NormalizeSymmetric(
          DenseSubAdjacency(kernel, observed), false));
      a_sg = Adjacency(stsm::GaussianThresholdAdjacency(
          distances, n, config.epsilon_sg, 0.0, true));
    }
  });

  stsm::MaskingConfig mask_config;
  mask_config.mask_ratio = config.mask_ratio;
  mask_config.top_k = config.top_k;
  stsm::MaskingContext context;
  time("masking.context_ms", [&] {
    context = stsm::BuildMaskingContext(a_sg, dataset.coords, dataset.metadata,
                                        observed, split.TestRegions(),
                                        mask_config);
  });

  // ---- Per-epoch layers ----
  stsm::Rng rng(config.seed + 1000);
  std::vector<int> masked_global;
  const double draw_ms = time("masking.draw_ms", [&] {
    masked_global = stsm::DrawSelectiveMask(context, &rng);
  });
  std::vector<int> global_to_local(n, -1);
  for (int i = 0; i < num_observed; ++i) global_to_local[observed[i]] = i;
  std::vector<int> masked_local, source_local;
  std::set<int> masked_set;
  for (int g : masked_global) {
    masked_local.push_back(global_to_local[g]);
    masked_set.insert(global_to_local[g]);
  }
  for (int i = 0; i < num_observed; ++i) {
    if (!masked_set.count(i)) source_local.push_back(i);
  }

  SeriesMatrix masked_view;
  const double fill_ms = time("timeseries.pseudo_fill_ms", [&] {
    masked_view = train_observed;
    stsm::FillPseudoObservations(&masked_view, dist_train, masked_local,
                                 source_local, config.pseudo_neighbors);
  });

  stsm::TemporalAdjacencyOptions dtw_options;
  dtw_options.q_kk = config.q_kk;
  dtw_options.q_ku = config.q_ku;
  dtw_options.steps_per_day = dataset.steps_per_day;
  dtw_options.dtw_band = config.dtw_band;
  Tensor dtw_train;
  const double dtw_ms = time("timeseries.dtw_adj_ms", [&] {
    dtw_train = stsm::TemporalSimilarityAdjacency(masked_view, source_local,
                                                  masked_local, dtw_options);
  });
  Adjacency a_dtw_train;
  const double route_ms = time("graph.route_adj_ms", [&] {
    a_dtw_train = Route(stsm::NormalizeRow(dtw_train, true), sparse);
  });

  // ---- Per-batch layers ----
  const stsm::WindowSpec spec{config.input_length, config.horizon};
  stsm::WindowBatch masked_batch, clean_batch;
  std::vector<int> starts;
  const double batch_ms = time("data.window_batch_ms", [&] {
    starts = stsm::SampleWindowStarts(0, time_split.train_steps, spec,
                                      config.batch_size, &rng);
    masked_batch = stsm::MakeWindowBatch(masked_view, starts, spec,
                                         dataset.steps_per_day);
  });
  clean_batch = stsm::MakeWindowBatch(train_observed, starts, spec,
                                      dataset.steps_per_day);

  stsm::Rng init_rng(config.seed + 13);
  stsm::StModel model(config, &init_rng);
  stsm::ProjectionHead projection(config.hidden_dim, &init_rng);
  std::vector<Tensor> parameters = model.Parameters();
  if (config.contrastive) {
    for (const Tensor& p : projection.Parameters()) parameters.push_back(p);
  }
  stsm::Adam optimizer(parameters, config.learning_rate);

  const double forward_ms = time("core.forward_ms", [&] {
    model.Forward(masked_batch.inputs, masked_batch.input_time, a_s_train,
                  a_dtw_train);
  });
  const stsm::StModel::Output masked_out = model.Forward(
      masked_batch.inputs, masked_batch.input_time, a_s_train, a_dtw_train);
  const stsm::StModel::Output clean_out = model.Forward(
      clean_batch.inputs, clean_batch.input_time, a_s_train, a_dtw_train);
  const double contrastive_ms = time("nn.contrastive_ms", [&] {
    const Tensor z_original = projection.Forward(clean_out.final_features);
    const Tensor z_masked = projection.Forward(masked_out.final_features);
    stsm::InfoNceLoss(z_original, z_masked, config.tau);
  });

  // Backward needs a fresh graph per call; only Backward() is timed.
  std::vector<double> backward_samples;
  for (int i = 0; i < 5; ++i) {
    const stsm::StModel::Output out_m = model.Forward(
        masked_batch.inputs, masked_batch.input_time, a_s_train, a_dtw_train);
    const stsm::StModel::Output out_c = model.Forward(
        clean_batch.inputs, clean_batch.input_time, a_s_train, a_dtw_train);
    Tensor loss = stsm::MseLoss(out_m.predictions, clean_batch.targets);
    if (config.contrastive) {
      loss = stsm::Add(
          loss, stsm::Mul(stsm::InfoNceLoss(
                              projection.Forward(out_c.final_features),
                              projection.Forward(out_m.final_features),
                              config.tau),
                          config.lambda));
    }
    optimizer.ZeroGrad();
    const Clock::time_point start = Clock::now();
    loss.Backward();
    const Clock::time_point end = Clock::now();
    if (i > 0) backward_samples.push_back(MsBetween(start, end));
    if (i > 0 && trace != nullptr) {
      trace->Span("tensor.backward_ms", "probe", start, end, 0);
    }
  }
  const double backward_ms = Median(backward_samples);
  report->Add("tensor.backward_ms", backward_ms, "ms");

  const double optim_ms = time("nn.optim_ms", [&] {
    stsm::ClipGradNorm(parameters, config.grad_clip);
    optimizer.Step();
  });

  // ---- Propagation kernels at the model's shape: [B, T, N_obs, C] ----
  {
    stsm::NoGradGuard no_grad;
    stsm::Rng x_rng(7);
    const int64_t b = config.batch_size, t = config.input_length,
                  c = config.hidden_dim, m = num_observed;
    Tensor x = Tensor::Zeros(stsm::Shape({b, t, m, c}));
    for (int64_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = static_cast<float>(x_rng.Uniform()) - 0.5f;
    }
    const Tensor dense = a_s_train.ToDenseTensor();
    const SparseCsr csr = SparseCsr::FromDense(dense);
    const double rows = static_cast<double>(b * t * c);
    const double io_bytes = 2.0 * 4.0 * static_cast<double>(b * t * m * c);
    time("tensor.spmm_ms", [&] { stsm::Spmm(csr, x); });
    report->Add("tensor.spmm_flop", 2.0 * static_cast<double>(csr.nnz()) * rows,
                "count");
    report->Add("tensor.spmm_bytes",
                8.0 * static_cast<double>(csr.nnz()) +
                    4.0 * static_cast<double>(m + 1) + io_bytes,
                "B");
    time("tensor.matmul_ms", [&] { stsm::MatMul(dense, x); });
    report->Add("tensor.matmul_flop",
                2.0 * static_cast<double>(m) * static_cast<double>(m) * rows,
                "count");
    report->Add("tensor.matmul_bytes",
                4.0 * static_cast<double>(m) * static_cast<double>(m) +
                    io_bytes,
                "B");
  }

  // ---- Evaluation layers (full graph) ----
  SeriesMatrix test_input;
  const double fill_eval_ms = time("timeseries.pseudo_fill_eval_ms", [&] {
    test_input = normalized_full;
    stsm::FillPseudoObservations(&test_input, distances, unobserved, observed,
                                 config.pseudo_neighbors);
  });
  const SeriesMatrix test_period =
      test_input.TimeSlice(time_split.train_steps, time_split.total_steps);
  Tensor dtw_full;
  const double dtw_eval_ms = time("timeseries.dtw_adj_eval_ms", [&] {
    dtw_full = stsm::TemporalSimilarityAdjacency(test_period, observed,
                                                 unobserved, dtw_options);
  });
  Adjacency a_dtw_full;
  const double route_eval_ms = time("graph.route_adj_eval_ms", [&] {
    a_dtw_full = Route(stsm::NormalizeRow(dtw_full, true), sparse);
  });
  const std::vector<int> eval_starts_all = stsm::ValidWindowStarts(
      time_split.train_steps, time_split.total_steps, spec, config.eval_stride);
  const int eval_windows =
      config.max_eval_windows > 0
          ? std::min<int>(config.max_eval_windows,
                          static_cast<int>(eval_starts_all.size()))
          : static_cast<int>(eval_starts_all.size());
  const std::vector<int> eval_chunk(
      eval_starts_all.begin(),
      eval_starts_all.begin() + std::min<size_t>(eval_starts_all.size(),
                                                 config.batch_size));
  const double eval_forward_ms = time("core.eval_forward_ms", [&] {
    stsm::NoGradGuard no_grad;
    const stsm::WindowBatch batch = stsm::MakeWindowBatch(
        test_input, eval_chunk, spec, dataset.steps_per_day);
    model.Forward(batch.inputs, batch.input_time, a_s_full, a_dtw_full);
  });

  // ---- The thread pool's fork-join cost on a trivial body ----
  time("common.parallel_for_ms", [] {
    const int chunks = stsm::ThreadPool::Global().num_threads() * 4;
    stsm::ParallelFor(0, chunks, [](int64_t, int64_t) {});
  });

  // ---- Busy seconds per layer: per-call time x calls in one Run() ----
  const double epochs = config.epochs;
  const double steps = epochs * config.batches_per_epoch;
  const double forwards = config.contrastive ? 2.0 : 1.0;
  const double eval_chunks =
      std::ceil(static_cast<double>(eval_windows) / config.batch_size);
  const double busy_masking = epochs * draw_ms / 1e3;
  const double busy_timeseries_train = epochs * (fill_ms + dtw_ms) / 1e3;
  const double busy_graph_train = epochs * route_ms / 1e3;
  const double busy_data = steps * 2.0 * batch_ms / 1e3;
  const double busy_core_train = steps * forwards * forward_ms / 1e3;
  const double busy_nn =
      steps * ((config.contrastive ? contrastive_ms : 0.0) + optim_ms) / 1e3;
  const double busy_tensor = steps * backward_ms / 1e3;
  const double busy_timeseries_eval = (fill_eval_ms + dtw_eval_ms) / 1e3;
  const double busy_graph_eval = route_eval_ms / 1e3;
  const double busy_core_eval = eval_chunks * eval_forward_ms / 1e3;

  std::printf("busy seconds per layer in one Run():\n");
  report->Add("graph.busy_s", busy_graph_train + busy_graph_eval, "s");
  report->Add("timeseries.busy_s",
              busy_timeseries_train + busy_timeseries_eval, "s");
  report->Add("masking.busy_s", busy_masking, "s");
  report->Add("data.busy_s", busy_data, "s");
  report->Add("core.busy_s", busy_core_train + busy_core_eval, "s");
  report->Add("nn.busy_s", busy_nn, "s");
  report->Add("tensor.busy_s", busy_tensor, "s");
  const double train_attributed = busy_masking + busy_timeseries_train +
                                  busy_graph_train + busy_data +
                                  busy_core_train + busy_nn + busy_tensor;
  const double eval_attributed =
      busy_timeseries_eval + busy_graph_eval + busy_core_eval;
  report->Add("train.attributed_share", train_attributed / train_s, "ratio");
  report->Add("eval.attributed_share", eval_attributed / eval_s, "ratio");

  std::printf("exact counts from one traced Run():\n");
  report->Add("count.gcnl_fwd", TimerCount(counts, "gcnl.fwd"), "count");
  report->Add("count.gcn_fwd", TimerCount(counts, "gcn.fwd"), "count");
  report->Add("count.spmm_fwd", TimerCount(counts, "sparse.spmm.fwd"),
              "count");
  report->Add("count.matmul_fwd", TimerCount(counts, "matmul.fwd"), "count");
  report->Add("count.temporal_adj_builds",
              TimerCount(counts, "train.temporal_adj"), "count");
  const double acquires = CounterTotal(counts, "pool.acquire");
  report->Add("count.pool_acquire", acquires, "count");
  report->Add("tensor.pool_reuse_share",
              acquires > 0 ? CounterTotal(counts, "pool.hit") / acquires : 0.0,
              "ratio");
}

}  // namespace stbench
