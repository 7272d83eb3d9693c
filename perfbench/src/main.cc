// stbench: runs one part of one benchmark workload and prints its metrics.
//
//   stbench --workload bay|city --part train|serve --seed N --seconds S
//           --trace 0|1
//
// run.py runs the two parts of a workload as separate processes, so that
// each part's peak RSS is its own, and merges their results.
//
//   train  sets up the dataset, split and StsmRunner several times and
//          reports the median set-up time, then trains and evaluates once
//          with StsmRunner::Run (a fixed budget), then evaluates at least
//          twice more with untrained runners; eval_s is the median.
//   serve  sets up the dataset, split and serving stack (both served
//          models, the registry and the listener) several times, then
//          serves over loopback TCP for `--seconds`: a closed loop with one
//          request in flight, and open-loop Poisson arrivals at the
//          workload's low, high and over rates, split 20/55/5/20 % over
//          those four phases.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the part untraced
// and then traced (prof counters on in training, spans from the
// benchmark's own client and SubmitFn wrapper in serving), prints the
// difference as the tracing overhead, probes every layer the part
// exercises, writes the spans as Chrome trace-event JSON plus a per-layer
// summary under .bench_build/out/ of the working directory, and prints the
// per-layer metrics. The last stdout line is the JSON result; the exit code
// is non-zero when any output check fails.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/prof.h"
#include "core/stsm.h"
#include "data/splits.h"
#include "report.h"
#include "serve_phase.h"
#include "train_phase.h"
#include "workload.h"

namespace stbench {
namespace {

// Checkpoints, traces and per-layer summaries, relative to the working
// directory.
constexpr const char* kOutDir = ".bench_build/out";
// Set-up and evaluation repeat until both the minimum count and the time
// budget are met, but at most the maximum; the median is reported. A traced
// run does each once: there they only feed the overhead printout. The
// budgets are short because a city set-up (~5 s) or evaluation (~4.5 s)
// alone already exceeds them, and each repeat lengthens every run.
struct Repeats {
  size_t min_count;
  size_t max_count;
  double budget_s;
};
constexpr Repeats kSetupRepeats = {3, 9, 1.0};
// eval_s is the median of the trained runner's evaluation and those of
// fresh runners given no training epochs, whose evaluation does the same
// work (the full-graph DTW and the forwards do not depend on the weights'
// values). One evaluation alone spread by a third between runs.
constexpr Repeats kEvalRepeats = {3, 7, 1.5};
constexpr int kRounds = 4;
// Shares of --seconds: closed loop, then the low, high and over rates.
// The low rate has the largest share: its median is gated and its samples
// are the sparsest; the high rate is printed only.
constexpr double kSingleShare = 0.20;
constexpr double kOpenShares[3] = {0.55, 0.05, 0.20};
constexpr const char* kOpenLabels[3] = {"low", "high", "over"};
// A phase is flagged invalid when the generator's p99 lateness exceeds this
// multiple of the mean gap between arrivals on one connection. Past
// capacity the server keeps every core busy and the senders wake up to ~1
// gap late, ~3.6 during host slowdowns; a generator that cannot keep up
// falls behind by far more. The flag is printed, not counted as an output
// failure: lateness is a property of the host, and open-loop latency is
// timed from the due time either way.
constexpr double kLatenessFraction = 4.0;

struct Args {
  std::string workload;
  std::string part;
  uint64_t seed = kDefaultSeed;
  double seconds = 18.0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--part") {
      args->part = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         (args->part == "train" || args->part == "serve") &&
         args->seconds > 0.0 && (args->trace == 0 || args->trace == 1);
}

// Appends the seconds of calls to `timed` to `seconds` as `repeats` asks,
// or until there is one sample when `once`.
template <typename Timed>
void Repeat(bool once, const Repeats& repeats, const Timed& timed,
            std::vector<double>* seconds) {
  double total = 0.0;
  for (double s : *seconds) total += s;
  while (seconds->empty() ||
         (!once && (seconds->size() < repeats.min_count ||
                    (seconds->size() < repeats.max_count &&
                     total < repeats.budget_s)))) {
    seconds->push_back(timed());
    total += seconds->back();
  }
}

// Builds a part's state with `build`, tearing the previous state down
// before each build, and returns each build's seconds.
template <typename State, typename Build>
std::vector<double> SetUp(bool once, const Build& build,
                          std::unique_ptr<State>* state, Trace* trace) {
  std::vector<double> seconds;
  Repeat(once, kSetupRepeats,
         [&] {
           state->reset();
           const Clock::time_point start = Clock::now();
           *state = build();
           const Clock::time_point end = Clock::now();
           if (trace != nullptr) trace->Span("setup", "setup", start, end, 0);
           return MsBetween(start, end) / 1e3;
         },
         &seconds);
  std::printf("set-up: %zu builds, median %.4f s\n", seconds.size(),
              Median(seconds));
  return seconds;
}

// ---- The train part ----

// Members are destroyed in reverse order: the runner before its data.
struct TrainEnv {
  stsm::SpatioTemporalDataset dataset;
  stsm::SpaceSplit split;
  stsm::StsmConfig config;
  std::unique_ptr<stsm::StsmRunner> runner;
};

struct TrainResult {
  std::vector<double> setup_s;
  stsm::ExperimentResult train;
  std::vector<double> eval_s;
  bool ok = false;
  std::string why;
  double peak_rss_mb = 0.0;

  int64_t attempted() const { return 1; }
  int64_t failed() const { return ok ? 0 : 1; }
  bool correct() const { return ok; }
};

// Untraced when `trace` is null. A traced run also probes every training
// layer into `layers`, attributing shares of the untraced run's
// train_s/eval_s.
TrainResult RunTrain(const Workload& workload, const Args& args,
                     Trace* trace, Report* layers,
                     const TrainResult* untraced) {
  TrainResult r;
  std::unique_ptr<TrainEnv> env;
  r.setup_s = SetUp(
      args.trace == 1,
      [&] {
        auto e = std::make_unique<TrainEnv>();
        e->dataset = MakeWorkloadDataset(workload);
        e->split = stsm::FourSplits(e->dataset.coords)[0];
        e->config = TrainConfig(workload, args.seed);
        e->runner =
            std::make_unique<stsm::StsmRunner>(e->dataset, e->split, e->config);
        return e;
      },
      &env, trace);
  const double rss_setup = PeakRssMb();

  if (trace != nullptr) {
    stsm::prof::SetEnabled(true);
    stsm::prof::Reset();
  }
  const Clock::time_point train_start = Clock::now();
  r.train = env->runner->Run();
  stsm::prof::Snapshot counts;
  if (trace != nullptr) {
    counts = stsm::prof::TakeSnapshot();
    stsm::prof::SetEnabled(false);
    const auto train_end =
        train_start + std::chrono::nanoseconds(static_cast<int64_t>(
                          r.train.train_seconds * 1e9));
    trace->Span("train", "train", train_start, train_end, 0);
    trace->Span("evaluate", "train", train_end, Clock::now(), 0);
  }
  r.peak_rss_mb = PeakRssMb();
  std::printf("peak RSS: %.1f MB after set-up, %.1f MB after training\n",
              rss_setup, r.peak_rss_mb);
  r.eval_s.push_back(r.train.test_seconds);
  stsm::StsmConfig eval_only = env->config;
  eval_only.epochs = 0;
  Repeat(args.trace == 1, kEvalRepeats,
         [&] {
           stsm::StsmRunner runner(env->dataset, env->split, eval_only);
           return runner.Run().test_seconds;
         },
         &r.eval_s);
  std::printf("evaluation: %zu runs, median %.4f s:", r.eval_s.size(),
              Median(r.eval_s));
  for (double s : r.eval_s) std::printf(" %.4f", s);
  std::printf("\n");
  r.ok = CheckTraining(workload, args.seed, r.train, &r.why);
  std::printf("training: RMSE %.17g  MAE %.17g  losses", r.train.metrics.rmse,
              r.train.metrics.mae);
  for (double loss : r.train.train_losses) std::printf(" %.17g", loss);
  std::printf("\n  output check: %s %s\n", r.ok ? "ok" : "FAILED",
              r.why.c_str());

  if (trace != nullptr) {
    ProbeTraining(env->dataset, env->split, env->config,
                  untraced->train.train_seconds, Median(untraced->eval_s),
                  counts, trace, layers);
  }
  return r;
}

void ReportTrain(const Workload&, const TrainResult& r, Report* report) {
  report->Add("setup_s", Median(r.setup_s), "s");
  report->Add("peak_rss_mb.train", r.peak_rss_mb, "MB");
  report->Add("train_s", r.train.train_seconds, "s");
  report->Add("eval_s", Median(r.eval_s), "s");
}

// ---- The serve part ----

// Members are destroyed in reverse order: the server stops before the data
// it was built from goes away.
struct ServeEnv {
  stsm::SpatioTemporalDataset dataset;
  stsm::SpaceSplit split;
  std::unique_ptr<ServeStack> stack;
};

struct ServeResult {
  std::vector<double> setup_s;
  PhaseResult single;
  std::vector<PhaseResult> open;
  bool accounting_ok = false;
  bool lateness_ok = true;
  double peak_rss_mb = 0.0;
  // Open-loop server-side deltas.
  double batch_size_mean = 0.0;
  uint64_t read_pauses = 0;

  int64_t attempted() const {
    int64_t n = single.sent;
    for (const PhaseResult& p : open) n += p.sent;
    return std::max<int64_t>(1, n);
  }
  int64_t failed() const {
    int64_t n = single.failures();
    for (const PhaseResult& p : open) n += p.failures();
    return n;
  }
  bool correct() const { return accounting_ok && failed() == 0; }
};

int GeneratorConnections() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  // Two threads (sender + reader) per connection, at most nproc in total.
  return static_cast<int>(std::max(1L, std::min(2L, nproc / 2)));
}

void PrintPhase(const PhaseResult& p) {
  std::printf(
      "  %-6s rate %6.1f rps  %.2f s  %d conn  sent %lld = ok %lld + cache "
      "%lld + degraded %lld + rejected %lld + errors %lld + missing %lld; "
      "transport errors %lld; checked %lld, mismatched %lld\n",
      p.label.c_str(), p.rate, p.seconds, p.connections,
      static_cast<long long>(p.sent), static_cast<long long>(p.ok),
      static_cast<long long>(p.cache_hits), static_cast<long long>(p.degraded),
      static_cast<long long>(p.rejected), static_cast<long long>(p.errors),
      static_cast<long long>(p.missing),
      static_cast<long long>(p.transport_errors),
      static_cast<long long>(p.checked), static_cast<long long>(p.mismatches));
}

// Per-layer metrics of the serving side, from the traced run's spans and
// counters plus the direct Predict probe.
void ReportServeLayers(const ServeResult& r,
                       const double predict_ms[kNumModels][2],
                       Report* report) {
  std::printf("serving spans (benchmark client + SubmitFn wrapper):\n");
  const PhaseResult* phases[2] = {&r.single, &r.open[1]};
  const char* tags[2] = {"single", "high"};
  for (int i = 0; i < 2; ++i) {
    std::vector<double> ingress, server, egress, queue;
    for (const RequestSpans& s : phases[i]->spans) {
      ingress.push_back(s.ingress_ms);
      server.push_back(s.server_ms);
      egress.push_back(s.egress_ms);
      if (s.batch_size > 0) {
        // Predict time interpolated between the probed b1 and b8 points.
        const double b = std::min(8, s.batch_size);
        const double predict =
            predict_ms[s.model][0] +
            (predict_ms[s.model][1] - predict_ms[s.model][0]) * (b - 1) / 7.0;
        queue.push_back(s.server_ms - predict);
      }
    }
    std::printf("  %s: %zu spans matched, %lld unmatched\n", tags[i],
                phases[i]->spans.size(),
                static_cast<long long>(phases[i]->unmatched_spans));
    const auto add = [&](const std::string& name, std::vector<double> v) {
      std::sort(v.begin(), v.end());
      report->AddPercentile(name + ".p50", SupportedPercentile(v, 0.50), 0);
      report->AddPercentile(name + ".p99", SupportedPercentile(v, 0.99), 0);
    };
    const std::string tag = tags[i];
    add("net.ingress_ms." + tag, ingress);
    add("serve.server_ms." + tag, server);
    add("net.egress_ms." + tag, egress);
    if (tag == "high") add("serve.queue_wait_ms." + tag, queue);
  }
  int64_t sent = 0, hits = 0, rejected = 0, degraded = 0;
  double lateness = 0.0;
  for (const PhaseResult& p : r.open) {
    sent += p.sent;
    hits += p.cache_hits;
    rejected += p.rejected;
    degraded += p.degraded;
    lateness = std::max(lateness, Percentile(p.lateness_ms, 0.99));
  }
  std::printf("open-loop server counters:\n");
  const double total = std::max<int64_t>(1, sent);
  report->Add("serve.batch_size_mean", r.batch_size_mean, "requests");
  report->Add("serve.cache_hit_share", hits / total, "ratio");
  report->Add("serve.rejected_share", rejected / total, "ratio");
  report->Add("serve.degraded_share", degraded / total, "ratio");
  report->Add("net.read_pauses", static_cast<double>(r.read_pauses), "count");
  report->Add("load.lateness_p99_ms", lateness, "ms");
}

// Untraced when `trace` is null. A traced run also probes Predict and
// reports the serving layers into `layers`.
ServeResult RunServe(const Workload& workload, const Args& args, Trace* trace,
                     Report* layers, const ServeResult*) {
  ServeResult r;
  std::unique_ptr<ServeEnv> env;
  r.setup_s = SetUp(
      args.trace == 1,
      [&] {
        auto e = std::make_unique<ServeEnv>();
        e->dataset = MakeWorkloadDataset(workload);
        e->split = stsm::FourSplits(e->dataset.coords)[0];
        e->stack =
            std::make_unique<ServeStack>(e->dataset, e->split, workload, kOutDir);
        return e;
      },
      &env, trace);
  ServeStack& stack = *env->stack;
  const double rss_setup = PeakRssMb();
  if (trace != nullptr) stack.spans().set_enabled(true);

  // The closed loop and the low and high rates run in kRounds interleaved
  // rounds and pool their samples, so host speed drift during the run
  // touches each of them alike. The over rate runs last in one piece: it
  // needs a few seconds for the queues to fill.
  const std::vector<int>& regions = env->split.test;
  const stsm::serve::ServerStats before = stack.TotalStats();
  const int connections = GeneratorConnections();
  const double rates[3] = {workload.rate_low, workload.rate_high,
                           workload.rate_over};
  r.open.resize(3);
  size_t next_window = 0;
  uint64_t batches_in_open = 0, batched_in_open = 0;
  const auto open_phase = [&](int i, int phase_index, double seconds) {
    const stsm::serve::ServerStats open_before = stack.TotalStats();
    const uint64_t pauses_before = stack.listener_stats().read_pauses;
    const Clock::time_point phase_start = Clock::now();
    AppendPhase(RunOpenLoop(&stack, env->dataset, regions, kOpenLabels[i],
                            phase_index, rates[i], seconds, connections,
                            workload.latency_limit_ms, args.seed, trace),
                &r.open[i]);
    if (trace != nullptr) {
      trace->Span(std::string("serve.") + kOpenLabels[i], "phase",
                  phase_start, Clock::now(), 0);
    }
    const stsm::serve::ServerStats open_after = stack.TotalStats();
    r.read_pauses += stack.listener_stats().read_pauses - pauses_before;
    for (size_t b = 1; b < open_after.batch_size_counts.size(); ++b) {
      const uint64_t count =
          open_after.batch_size_counts[b] -
          (b < open_before.batch_size_counts.size()
               ? open_before.batch_size_counts[b]
               : 0);
      batched_in_open += b * count;
      batches_in_open += count;
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    const Clock::time_point phase_start = Clock::now();
    AppendPhase(RunClosedLoop(&stack, env->dataset, regions, args.seed,
                              args.seconds * kSingleShare / kRounds,
                              workload.latency_limit_ms, &next_window, trace),
                &r.single);
    if (trace != nullptr) {
      trace->Span("serve.single", "phase", phase_start, Clock::now(), 0);
    }
    for (int i = 0; i < 2; ++i) {
      open_phase(i, round * 2 + i + 1, args.seconds * kOpenShares[i] / kRounds);
    }
  }
  open_phase(2, 2 * kRounds + 1, args.seconds * kOpenShares[2]);
  r.batch_size_mean =
      batches_in_open > 0
          ? static_cast<double>(batched_in_open) / batches_in_open
          : 0.0;
  const stsm::serve::ServerStats after = stack.TotalStats();

  // The client's accounting must match the servers' own counters.
  std::printf("request accounting:\n");
  PrintPhase(r.single);
  int64_t sent = r.single.sent, ok = r.single.ok, hits = r.single.cache_hits,
          degraded = r.single.degraded, rejected = r.single.rejected,
          errors = r.single.errors, missing = r.single.missing;
  for (const PhaseResult& p : r.open) {
    PrintPhase(p);
    sent += p.sent;
    ok += p.ok;
    hits += p.cache_hits;
    degraded += p.degraded;
    rejected += p.rejected;
    errors += p.errors;
    missing += p.missing;
    const double gap_ms = 1e3 * p.connections / p.rate;
    const double late = Percentile(p.lateness_ms, 0.99);
    const bool valid = late <= kLatenessFraction * gap_ms;
    std::printf("  %-6s generator lateness p99 %.3f ms (limit %.3f ms) %s\n",
                p.label.c_str(), late, kLatenessFraction * gap_ms,
                valid ? "ok" : "INVALID");
    r.lateness_ok = r.lateness_ok && valid;
  }
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<int64_t>(a - b);
  };
  r.accounting_ok = missing == 0 &&
                    delta(after.submitted, before.submitted) == sent &&
                    delta(after.ok, before.ok) == ok &&
                    delta(after.cache_hits, before.cache_hits) == hits &&
                    delta(after.degraded, before.degraded) == degraded &&
                    delta(after.rejected, before.rejected) == rejected &&
                    delta(after.errors, before.errors) == errors;
  if (!r.lateness_ok) {
    std::printf("  run INVALID: the load generator fell behind its schedule\n");
  }
  std::printf("  server counters %s the client's (submitted %lld)\n",
              r.accounting_ok ? "match" : "DO NOT MATCH",
              static_cast<long long>(delta(after.submitted, before.submitted)));

  if (trace != nullptr) {
    stack.spans().set_enabled(false);
    double predict_ms[kNumModels][2] = {};
    ProbePredict(stack, env->dataset, trace, layers, predict_ms);
    ReportServeLayers(r, predict_ms, layers);
  }
  stack.Stop();
  r.peak_rss_mb = PeakRssMb();
  std::printf("peak RSS: %.1f MB after set-up, %.1f MB after serving\n",
              rss_setup, r.peak_rss_mb);
  return r;
}

// Adds a phase's median latency per model as lat_p50_ms<suffix>.<model>
// and prints its p90 and p99 with their sample counts. Only model-served
// answers count (see PhaseResult::model_latency_ms). The two models take
// different times per request, so a median over both would fall between two
// clusters of samples and track neither model. Only the median is gated: on
// a shared 4-core host whose speed drifted by up to 30% between runs, the
// ten-run spread (quartile distance over median) of the low-rate p90
// reached 0.48 and of the p99s 0.25-1.5. The high rate is printed only:
// there queueing amplifies host speed noise into spreads of 0.3-0.8 even
// for the median.
void AddLatency(const std::string& suffix, const PhaseResult& p, bool gated,
                Report* report) {
  const int failed = static_cast<int>(p.failures());
  for (int m = 0; m < kNumModels; ++m) {
    const std::vector<double>& samples = p.model_latency_ms[m];
    const std::string name = "lat_p50_ms" + suffix + "." + kModelTags[m];
    const Reported p50 = SupportedPercentile(samples, 0.50);
    const Reported p90 = SupportedPercentile(samples, 0.90);
    const Reported p99 = SupportedPercentile(samples, 0.99);
    if (gated) report->AddPercentile(name, p50, failed);
    std::printf("  (%s %s: model-served latency p50 %.3f, p%g %.3f, p%g "
                "%.3f ms of %zu samples, %d failed in the phase%s)\n",
                p.label.c_str(), kModelTags[m], p50.value, p90.q * 100.0,
                p90.value, p99.q * 100.0, p99.value, p99.samples, failed,
                gated ? "" : "; not gated");
  }
}

void ReportServe(const Workload& workload, const ServeResult& r,
                 Report* report) {
  report->Add("setup_s", Median(r.setup_s), "s");
  report->Add("peak_rss_mb.serve", r.peak_rss_mb, "MB");
  AddLatency("", r.single, true, report);
  AddLatency(".low", r.open[0], true, report);
  AddLatency(".high", r.open[1], false, report);
  const PhaseResult& over = r.open[2];
  report->Add("goodput_rps.over", over.good / over.seconds, "1/s");
  std::printf("  (goodput: %lld of %lld sent answered OK within %.0f ms; OK "
              "latency p50 %.1f ms, max %.1f ms)\n",
              static_cast<long long>(over.good),
              static_cast<long long>(over.sent), workload.latency_limit_ms,
              Percentile(over.latency_ms, 0.5),
              Percentile(over.latency_ms, 1.0));
}

// ---- Both parts ----

// Runs one part untraced and prints its end-to-end metrics; with --trace 1
// runs it again traced and prints its per-layer metrics instead.
template <typename Result, typename Run, typename ReportEndToEnd>
int RunPart(const Workload& workload, const Args& args, const Run& run,
            const ReportEndToEnd& report_e2e) {
  Report e2e;
  std::printf("end-to-end (untraced):\n");
  const Result plain = run(nullptr, nullptr, nullptr);
  report_e2e(workload, plain, &e2e);
  if (args.trace == 0) {
    e2e.Finish(plain.correct(), plain.attempted(), plain.failed());
    return plain.correct() ? 0 : 1;
  }

  Trace trace;
  Report layers;
  std::printf("traced run:\n");
  const Result traced = run(&trace, &layers, &plain);
  Report traced_e2e;
  std::printf("end-to-end (traced):\n");
  report_e2e(workload, traced, &traced_e2e);
  std::printf("tracing overhead (traced - untraced):\n");
  for (const std::string& name : e2e.Names()) {
    const double a = e2e.Get(name), b = traced_e2e.Get(name);
    std::printf("  %-24s %+12.6f  (%+.1f%%)\n", name.c_str(), b - a,
                a != 0.0 ? 100.0 * (b - a) / a : 0.0);
  }
  const std::string stem = std::string(kOutDir) + "/trace_" + workload.name +
                           "_" + args.part + "_" + std::to_string(args.seed);
  const bool written =
      trace.Write(stem + ".json") && layers.WriteSummary(stem + "_layers.json");
  std::printf("%zu spans written to %s.json, per-layer summary to "
              "%s_layers.json%s\n",
              trace.size(), stem.c_str(), stem.c_str(),
              written ? "" : " (WRITE FAILED)");
  const bool correct = plain.correct() && traced.correct() && written;
  layers.Finish(correct, plain.attempted() + traced.attempted(),
                plain.failed() + traced.failed());
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stbench --workload bay|city --part train|serve "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(kOutDir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", kOutDir,
                 error.message().c_str());
    return 2;
  }
  std::printf("workload %s, part %s, seed %llu, %.1f s of serving\n",
              workload->name, args.part.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds);
  PrintEnvironment();

  if (args.part == "train") {
    return RunPart<TrainResult>(
        *workload, args,
        [&](Trace* trace, Report* layers, const TrainResult* untraced) {
          return RunTrain(*workload, args, trace, layers, untraced);
        },
        ReportTrain);
  }
  return RunPart<ServeResult>(
      *workload, args,
      [&](Trace* trace, Report* layers, const ServeResult* untraced) {
        return RunServe(*workload, args, trace, layers, untraced);
      },
      ReportServe);
}

}  // namespace
}  // namespace stbench

int main(int argc, char** argv) { return stbench::Main(argc, argv); }
