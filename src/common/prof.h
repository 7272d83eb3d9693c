// Low-overhead profiling and metrics: RAII scoped timers, monotonic
// counters, and duration histograms, all keyed by name.
//
//   void MatMulForward() {
//     STSM_PROF_SCOPE("matmul.fwd");
//     ...                              // timed
//   }
//   STSM_PROF_COUNT("train.batches", 1);
//
// The subsystem is off by default and costs one relaxed atomic load plus a
// branch per scope when disabled. Set STSM_PROFILE=1 in the environment (or
// call prof::SetEnabled(true)) to record.
//
// Threading model: every recording thread owns a private collector whose
// cells are padded atomics, so the hot path never contends with other
// threads. Collectors register with a process-wide registry; TakeSnapshot()
// merges the live collectors with the accumulated totals of threads that
// have already exited. See DESIGN.md for the full write-up.

#ifndef STSM_COMMON_PROF_H_
#define STSM_COMMON_PROF_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace stsm {
namespace prof {

// Log2-spaced histogram buckets. Bucket 0 counts zero-nanosecond samples;
// bucket i >= 1 counts durations in [2^(i-1), 2^i) ns. The last bucket
// absorbs everything >= 2^(kNumBuckets-2) ns (over two minutes).
constexpr int kNumBuckets = 48;

namespace internal {
// -1 until first use, then 0/1; cached so Enabled() stays branch-and-load.
extern std::atomic<int> g_enabled;
int InitEnabledFromEnv();
}  // namespace internal

// True when profiling is active. The first call reads STSM_PROFILE from the
// environment; SetEnabled overrides it from then on.
inline bool Enabled() {
  int v = internal::g_enabled.load(std::memory_order_relaxed);
  if (v < 0) v = internal::InitEnabledFromEnv();
  return v != 0;
}

// Forces profiling on or off, overriding the environment.
void SetEnabled(bool enabled);

// Records one duration sample for timer `name`. `name` must have static
// storage duration (string literals only: collectors cache by pointer).
void RecordTimerNs(const char* name, uint64_t ns);

// Adds `delta` to counter `name` (same lifetime requirement for `name`).
void RecordCounter(const char* name, uint64_t delta = 1);

// Monotonic nanosecond clock used by the scoped timers.
uint64_t NowNs();

// RAII timer: records the scope's wall time under `name` on destruction.
// Clock-free no-op when profiling is disabled at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name)
      : name_(Enabled() ? name : nullptr), start_(name_ ? NowNs() : 0) {}
  ~ScopedTimer() {
    if (name_ != nullptr) RecordTimerNs(name_, NowNs() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  uint64_t start_;
};

#define STSM_PROF_CONCAT_INNER(a, b) a##b
#define STSM_PROF_CONCAT(a, b) STSM_PROF_CONCAT_INNER(a, b)
#define STSM_PROF_SCOPE(name) \
  ::stsm::prof::ScopedTimer STSM_PROF_CONCAT(stsm_prof_scope_, __LINE__)(name)
#define STSM_PROF_COUNT(name, delta)                                       \
  do {                                                                     \
    if (::stsm::prof::Enabled()) ::stsm::prof::RecordCounter(name, delta); \
  } while (0)

// One timer's (or counter's) merged totals at snapshot time.
struct StatSnapshot {
  std::string name;
  uint64_t count = 0;
  // Summed duration for timers; summed deltas for counters.
  uint64_t total_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
  std::array<uint64_t, kNumBuckets> buckets{};  // Timers only.

  double MeanNs() const;
  // Approximate q-quantile (q in [0, 1]) from the log2 histogram: exact to
  // within one bucket (a factor of 2), clamped to [min_ns, max_ns].
  double PercentileNs(double q) const;
};

// Point-in-time merge of all per-thread collectors plus exited threads.
struct Snapshot {
  std::vector<StatSnapshot> timers;    // Sorted by name.
  std::vector<StatSnapshot> counters;  // Sorted by name.

  const StatSnapshot* FindTimer(const std::string& name) const;
  const StatSnapshot* FindCounter(const std::string& name) const;

  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;
};

Snapshot TakeSnapshot();

// Zeroes all recorded statistics (live collectors and retired totals).
// Counts recorded concurrently with a Reset may land on either side of it;
// quiesce recording threads first when exact cuts matter.
void Reset();

}  // namespace prof
}  // namespace stsm

#endif  // STSM_COMMON_PROF_H_
