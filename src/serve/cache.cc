#include "serve/cache.h"

#include <cstring>
#include <utility>

namespace stsm {
namespace serve {

uint64_t HashWindow(const std::vector<float>& window) {
  // FNV-1a, 64-bit.
  uint64_t hash = 1469598103934665603ULL;
  for (float value : window) {
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (bits >> shift) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  uint64_t hash = key.window_hash;
  hash ^= std::hash<std::string>()(key.model) + 0x9e3779b97f4a7c15ULL +
          (hash << 6) + (hash >> 2);
  hash ^= static_cast<uint64_t>(key.start_step) + 0x9e3779b97f4a7c15ULL +
          (hash << 6) + (hash >> 2);
  for (int region : key.regions) {
    hash ^= static_cast<uint64_t>(region) + 0x9e3779b97f4a7c15ULL +
            (hash << 6) + (hash >> 2);
  }
  return static_cast<size_t>(hash);
}

ForecastCache::ForecastCache(size_t capacity) : capacity_(capacity) {}

bool ForecastCache::Lookup(const CacheKey& key, std::vector<float>* out) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  entries_.splice(entries_.begin(), entries_, it->second);
  *out = it->second->forecast;
  ++stats_.hits;
  return true;
}

void ForecastCache::Insert(const CacheKey& key, std::vector<float> forecast) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->forecast = std::move(forecast);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  if (entries_.size() >= capacity_) {
    index_.erase(entries_.back().key);
    entries_.pop_back();
    ++stats_.evictions;
  }
  entries_.push_front(Entry{key, std::move(forecast)});
  index_[key] = entries_.begin();
}

size_t ForecastCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

CacheStats ForecastCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace serve
}  // namespace stsm
