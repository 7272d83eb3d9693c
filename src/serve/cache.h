// LRU forecast cache: identical queries (same model, observation window,
// start step and region set) are answered without touching the model.
//
// The observation window is folded into the key as a 64-bit FNV-1a hash of
// its float payload rather than stored, keeping entries small; the other key
// components are compared exactly. Thread-safe behind one mutex — the cache
// sits on the request fast path, where a single uncontended lock is cheaper
// than a model forward by several orders of magnitude.

#ifndef STSM_SERVE_CACHE_H_
#define STSM_SERVE_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

namespace stsm {
namespace serve {

// FNV-1a over the raw bytes of the float window.
uint64_t HashWindow(const std::vector<float>& window);

struct CacheKey {
  std::string model;
  uint64_t window_hash = 0;
  int start_step = 0;
  std::vector<int> regions;

  bool operator==(const CacheKey& other) const {
    return window_hash == other.window_hash &&
           start_step == other.start_step && model == other.model &&
           regions == other.regions;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

// Monotonic since construction; a server reports its cache's counters in
// ServerStats::cache, so a sharded front-end has them per shard.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

// Fixed-capacity LRU map from CacheKey to a [horizon x regions] fp32
// forecast, stored verbatim.
class ForecastCache {
 public:
  explicit ForecastCache(size_t capacity);

  // Copies the cached forecast into `out` and promotes the entry to
  // most-recently-used. Counts a hit or a miss either way.
  bool Lookup(const CacheKey& key, std::vector<float>* out)
      STSM_EXCLUDES(mutex_);

  // Inserts (or refreshes) an entry, evicting the least-recently-used one
  // when at capacity. A capacity of zero disables the cache.
  void Insert(const CacheKey& key, std::vector<float> forecast)
      STSM_EXCLUDES(mutex_);

  size_t size() const STSM_EXCLUDES(mutex_);
  CacheStats stats() const STSM_EXCLUDES(mutex_);

 private:
  struct Entry {
    CacheKey key;
    std::vector<float> forecast;
  };

  const size_t capacity_;
  mutable Mutex mutex_;
  // Front = most recently used. `index_` iterators stay valid across the
  // LRU splices (std::list), so promote-then-read is safe under the lock.
  std::list<Entry> entries_ STSM_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_ STSM_GUARDED_BY(mutex_);
  CacheStats stats_ STSM_GUARDED_BY(mutex_);
};

}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_CACHE_H_
