#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/thread_pool.h"
#include "tensor/simd.h"

namespace stbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Reported SupportedPercentile(const std::vector<double>& sorted, double q) {
  Reported out;
  out.samples = sorted.size();
  const size_t n = sorted.size();
  // At least kTailSamples samples at indices above floor(q * (n - 1)).
  const auto supported = [n](double p) {
    return n > kTailSamples &&
           static_cast<size_t>(p * static_cast<double>(n - 1)) +
                   kTailSamples < n;
  };
  out.q = q;
  while (out.q > 0.5 && !supported(out.q)) out.q -= 0.001;
  out.q = std::max(out.q, 0.5);
  out.value = Percentile(sorted, out.q);
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-40s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::AddPercentile(const std::string& name, const Reported& reported,
                           int failures) {
  metrics_.push_back({name, reported.value, "ms"});
  std::printf("  %-40s %14.6f ms  (p%g of %zu samples, %d failed)\n",
              name.c_str(), reported.value, reported.q * 100.0,
              reported.samples, failures);
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const Metric& m : metrics_) names.push_back(m.name);
  return names;
}

std::string Report::MetricsJson() const {
  std::string json = "{";
  char buffer[128];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are not JSON; they only arise from a broken run,
    // which the correctness checks already flag.
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}";
}

bool Report::WriteSummary(const std::string& path) const {
  std::ofstream out(path);
  out << MetricsJson() << "\n";
  return static_cast<bool>(out);
}

void Report::Finish(bool correct, int64_t attempted, int64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), MetricsJson().c_str());
  std::fflush(stdout);
}

Trace::Trace() : origin_(Clock::now()) {}

void Trace::Span(const std::string& name, const char* category,
                 Clock::time_point start, Clock::time_point end, int tid,
                 uint64_t args_id) {
  const double ts =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  const double dur =
      std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back({name, category, ts, dur, tid, args_id});
}

size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

bool Trace::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buffer[512];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"id\": %llu}}%s\n",
                  e.name.c_str(), e.category, e.ts_us, e.dur_us, e.tid,
                  static_cast<unsigned long long>(e.id),
                  i + 1 < events_.size() ? "," : "");
    out << buffer;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double TimeCalls(const std::string& name, Trace* trace,
                 const std::function<void()>& fn) {
  constexpr int kMinCalls = 2;
  constexpr int kMaxCalls = 50;
  constexpr double kBudgetS = 0.3;
  fn();  // Warm-up: pool buffers, caches, lazily built plans.
  std::vector<double> ms;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(ms.size()) < kMinCalls ||
         (static_cast<int>(ms.size()) < kMaxCalls &&
          SecondsSince(begin) < kBudgetS)) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    ms.push_back(MsBetween(start, end));
    if (trace != nullptr) trace->Span(name, "probe", start, end, 0);
  }
  return Median(ms);
}

void PrintEnvironment() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const stsm::simd::KernelTable* table = stsm::simd::Active();
  const char* commit = std::getenv("STBENCH_GIT_COMMIT");
  std::printf("environment:\n");
  std::printf("  cpu            %s\n", cpu.c_str());
  std::printf("  nproc          %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("  threads        %d (STSM_NUM_THREADS)\n",
              stsm::ThreadPool::ConfiguredThreadCount());
  std::printf("  simd           %s\n",
              table != nullptr ? table->isa : "scalar");
  std::printf("  build          %s\n", STBENCH_BUILD_TYPE);
  std::printf("  commit         %s\n", commit != nullptr ? commit : "unknown");
}

}  // namespace stbench
