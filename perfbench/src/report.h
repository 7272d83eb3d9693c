// Shared pieces of the stbench program: sample statistics, the metric report
// whose last line is the machine-readable result, the Chrome trace-event
// recorder, and the environment block.

#ifndef STBENCH_REPORT_H_
#define STBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace stbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MsBetween(Clock::time_point from, Clock::time_point to);

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// q-quantile of ascending `sorted` by linear interpolation between ranks.
double Percentile(const std::vector<double>& sorted, double q);

// A percentile as reported: the asked-for q when at least kTailSamples
// samples lie beyond it, otherwise the highest q that has them (the
// median when even that fails).
struct Reported {
  double q = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
constexpr size_t kTailSamples = 10;
Reported SupportedPercentile(const std::vector<double>& sorted, double q);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// Named metrics with units. Human-readable lines go to stdout as they are
// added; Finish() prints the one-line JSON result as the last line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // A percentile metric: prints which percentile was reportable and the
  // sample count beside it.
  void AddPercentile(const std::string& name, const Reported& reported,
                     int failures);
  // The value of `name` (0 when absent).
  double Get(const std::string& name) const;
  // Metric names in the order they were added.
  std::vector<std::string> Names() const;

  // Writes {"name": {"value": v, "unit": u}, ...} to `path`.
  bool WriteSummary(const std::string& path) const;

  // Prints {"correct", "attempted", "failed", "metrics"} as one line.
  void Finish(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::string MetricsJson() const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Chrome trace-event recorder: complete ("X") events kept in memory and
// written as one JSON file at the end of the run. Thread-safe.
class Trace {
 public:
  Trace();
  // `args_id` links the spans of one request (0 = none).
  void Span(const std::string& name, const char* category,
            Clock::time_point start, Clock::time_point end, int tid,
            uint64_t args_id = 0);
  size_t size() const;
  bool Write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    const char* category;
    double ts_us;
    double dur_us;
    int tid;
    uint64_t id;
  };
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

// Median ms per call of `fn` after one warm-up call: at least 2 and at most
// 50 timed calls, stopping once ~0.3 s have been spent. Each timed call is
// recorded as a span in `trace` (when not null) under `name`.
double TimeCalls(const std::string& name, Trace* trace,
                 const std::function<void()>& fn);

// Prints CPU model, nproc, pinned thread count, active SIMD kernel table,
// build type and git commit (STBENCH_GIT_COMMIT, set by run.py).
void PrintEnvironment();

}  // namespace stbench

#endif  // STBENCH_REPORT_H_
