#include "common/prof.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

namespace stsm {
namespace prof {

namespace internal {

std::atomic<int> g_enabled{-1};

int InitEnabledFromEnv() {
  const char* env = std::getenv("STSM_PROFILE");
  const int v = (env != nullptr && env[0] != '\0' &&
                 !(env[0] == '0' && env[1] == '\0'))
                    ? 1
                    : 0;
  int expected = -1;
  // Another thread may have initialised (or SetEnabled) concurrently; the
  // first writer wins so an override is never clobbered by a late init.
  internal::g_enabled.compare_exchange_strong(expected, v,
                                              std::memory_order_relaxed);
  return internal::g_enabled.load(std::memory_order_relaxed);
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

constexpr uint64_t kNoMin = std::numeric_limits<uint64_t>::max();

int BucketIndex(uint64_t ns) {
  if (ns == 0) return 0;
  return std::min(static_cast<int>(std::bit_width(ns)), kNumBuckets - 1);
}

// One stat's cells. Only its owning thread writes; snapshots read the
// atomics from other threads, so relaxed ordering suffices throughout.
// Padded so two threads' hot stats never share a cache line.
struct alignas(64) StatCells {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> total{0};  // Duration sum (timers) or delta sum.
  std::atomic<uint64_t> min_ns{kNoMin};
  std::atomic<uint64_t> max_ns{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};

  void RecordDuration(uint64_t ns) {
    count.fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(ns, std::memory_order_relaxed);
    // Owner-thread-only writers: plain load-compare-store is race-free.
    if (ns < min_ns.load(std::memory_order_relaxed)) {
      min_ns.store(ns, std::memory_order_relaxed);
    }
    if (ns > max_ns.load(std::memory_order_relaxed)) {
      max_ns.store(ns, std::memory_order_relaxed);
    }
    buckets[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  }

  void RecordDelta(uint64_t delta) {
    count.fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(delta, std::memory_order_relaxed);
  }

  void Zero() {
    count.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
    min_ns.store(kNoMin, std::memory_order_relaxed);
    max_ns.store(0, std::memory_order_relaxed);
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

// Non-atomic accumulator used for retired threads and snapshot merging.
struct PlainStat {
  uint64_t count = 0;
  uint64_t total = 0;
  uint64_t min_ns = kNoMin;
  uint64_t max_ns = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  void Merge(const StatCells& cells) {
    count += cells.count.load(std::memory_order_relaxed);
    total += cells.total.load(std::memory_order_relaxed);
    min_ns = std::min(min_ns, cells.min_ns.load(std::memory_order_relaxed));
    max_ns = std::max(max_ns, cells.max_ns.load(std::memory_order_relaxed));
    for (int i = 0; i < kNumBuckets; ++i) {
      buckets[i] += cells.buckets[i].load(std::memory_order_relaxed);
    }
  }

  void Merge(const PlainStat& other) {
    count += other.count;
    total += other.total;
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
    for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  }
};

using StatMap = std::map<std::string, std::unique_ptr<StatCells>>;
using PlainMap = std::map<std::string, PlainStat>;

class Registry;

// Per-thread stat store. The owning thread is the only writer; `mutex_`
// guards the map *structure* (insertions vs. snapshot iteration), never the
// cells themselves.
class ThreadCollector {
 public:
  ThreadCollector();
  ~ThreadCollector();

  StatCells* Cell(const char* name, bool is_timer) STSM_EXCLUDES(mutex_) {
    auto& cache = is_timer ? timer_cache_ : counter_cache_;
    const auto it = cache.find(name);
    if (it != cache.end()) return it->second;
    MutexLock lock(mutex_);
    auto& map = is_timer ? timers_ : counters_;
    auto& slot = map[name];
    if (slot == nullptr) slot = std::make_unique<StatCells>();
    cache.emplace(name, slot.get());
    return slot.get();
  }

 private:
  friend class Registry;

  Mutex mutex_;
  StatMap timers_ STSM_GUARDED_BY(mutex_);
  StatMap counters_ STSM_GUARDED_BY(mutex_);
  // Owner-thread-only lookup caches keyed by the literal's address.
  std::unordered_map<const char*, StatCells*> timer_cache_;
  std::unordered_map<const char*, StatCells*> counter_cache_;
};

// Process-wide registry of live collectors plus the merged totals of
// threads that have exited. Leaked so late thread_local destructors can
// always deregister safely.
class Registry {
 public:
  static Registry& Get() {
    static Registry* registry = new Registry;
    return *registry;
  }

  // Lock ordering: Registry::mutex_ strictly before any
  // ThreadCollector::mutex_ (the only place two locks nest; see DESIGN.md
  // "Concurrency invariants").
  void Register(ThreadCollector* collector) STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    live_.push_back(collector);
  }

  void Unregister(ThreadCollector* collector) STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    MutexLock collector_lock(collector->mutex_);
    MergeInto(collector->timers_, &retired_timers_);
    MergeInto(collector->counters_, &retired_counters_);
    live_.erase(std::remove(live_.begin(), live_.end(), collector),
                live_.end());
  }

  void Collect(PlainMap* timers, PlainMap* counters) STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    *timers = retired_timers_;
    *counters = retired_counters_;
    for (ThreadCollector* collector : live_) {
      MutexLock collector_lock(collector->mutex_);
      MergeInto(collector->timers_, timers);
      MergeInto(collector->counters_, counters);
    }
  }

  void Reset() STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    retired_timers_.clear();
    retired_counters_.clear();
    for (ThreadCollector* collector : live_) {
      MutexLock collector_lock(collector->mutex_);
      for (auto& [name, cells] : collector->timers_) cells->Zero();
      for (auto& [name, cells] : collector->counters_) cells->Zero();
    }
  }

 private:
  static void MergeInto(const StatMap& source, PlainMap* target) {
    for (const auto& [name, cells] : source) {
      (*target)[name].Merge(*cells);
    }
  }

  Mutex mutex_;
  std::vector<ThreadCollector*> live_ STSM_GUARDED_BY(mutex_);
  PlainMap retired_timers_ STSM_GUARDED_BY(mutex_);
  PlainMap retired_counters_ STSM_GUARDED_BY(mutex_);
};

ThreadCollector::ThreadCollector() { Registry::Get().Register(this); }

ThreadCollector::~ThreadCollector() { Registry::Get().Unregister(this); }

ThreadCollector& LocalCollector() {
  thread_local ThreadCollector collector;
  return collector;
}

}  // namespace

void RecordTimerNs(const char* name, uint64_t ns) {
  if (!Enabled()) return;
  LocalCollector().Cell(name, /*is_timer=*/true)->RecordDuration(ns);
}

void RecordCounter(const char* name, uint64_t delta) {
  if (!Enabled()) return;
  LocalCollector().Cell(name, /*is_timer=*/false)->RecordDelta(delta);
}

// ---- Snapshots --------------------------------------------------------------

double StatSnapshot::MeanNs() const {
  return count == 0 ? 0.0
                    : static_cast<double>(total_ns) / static_cast<double>(count);
}

double StatSnapshot::PercentileNs(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // Geometric bucket midpoint: bucket i >= 1 spans [2^(i-1), 2^i).
      const double estimate =
          i == 0 ? 0.0 : std::ldexp(std::sqrt(2.0), i - 1);
      return std::clamp(estimate, static_cast<double>(min_ns),
                        static_cast<double>(max_ns));
    }
  }
  return static_cast<double>(max_ns);
}

namespace {

std::vector<StatSnapshot> ToSnapshots(const PlainMap& map) {
  std::vector<StatSnapshot> result;
  result.reserve(map.size());
  for (const auto& [name, stat] : map) {
    // Reset() zeroes cells in place (the maps survive so cached pointers
    // stay valid); don't surface those empty entries.
    if (stat.count == 0) continue;
    StatSnapshot s;
    s.name = name;
    s.count = stat.count;
    s.total_ns = stat.total;
    s.min_ns = stat.min_ns == kNoMin ? 0 : stat.min_ns;
    s.max_ns = stat.max_ns;
    s.buckets = stat.buckets;
    result.push_back(std::move(s));
  }
  return result;
}

const StatSnapshot* Find(const std::vector<StatSnapshot>& stats,
                         const std::string& name) {
  for (const StatSnapshot& s : stats) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void AppendStatJson(const StatSnapshot& s, bool is_timer, std::ostream& out) {
  out << "    {\"name\": \"" << s.name << "\", \"count\": " << s.count
      << ", \"total_ns\": " << s.total_ns;
  if (is_timer) {
    out << ", \"min_ns\": " << s.min_ns << ", \"max_ns\": " << s.max_ns
        << ", \"mean_ns\": " << s.MeanNs()
        << ", \"p50_ns\": " << s.PercentileNs(0.50)
        << ", \"p95_ns\": " << s.PercentileNs(0.95)
        << ", \"p99_ns\": " << s.PercentileNs(0.99) << ", \"buckets\": [";
    // Trailing zero buckets are elided; the parser zero-fills.
    int last = kNumBuckets - 1;
    while (last > 0 && s.buckets[last] == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i > 0) out << ", ";
      out << s.buckets[i];
    }
    out << "]";
  }
  out << "}";
}

}  // namespace

const StatSnapshot* Snapshot::FindTimer(const std::string& name) const {
  return Find(timers, name);
}

const StatSnapshot* Snapshot::FindCounter(const std::string& name) const {
  return Find(counters, name);
}

std::string Snapshot::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"timers\": [\n";
  for (size_t i = 0; i < timers.size(); ++i) {
    AppendStatJson(timers[i], /*is_timer=*/true, out);
    out << (i + 1 < timers.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"counters\": [\n";
  for (size_t i = 0; i < counters.size(); ++i) {
    AppendStatJson(counters[i], /*is_timer=*/false, out);
    out << (i + 1 < counters.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

bool Snapshot::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << ToJson();
  return static_cast<bool>(out);
}

Snapshot TakeSnapshot() {
  PlainMap timers, counters;
  Registry::Get().Collect(&timers, &counters);
  Snapshot snapshot;
  snapshot.timers = ToSnapshots(timers);
  snapshot.counters = ToSnapshots(counters);
  return snapshot;
}

void Reset() { Registry::Get().Reset(); }

}  // namespace prof
}  // namespace stsm
