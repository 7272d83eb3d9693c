// ShardedRegistry: K independent {ModelRegistry, ForecastServer} shards
// behind one submit surface, so multiple cities/datasets serve concurrently
// without sharing a queue, a cache, or a registry lock.
//
// Routing is by model name: FNV-1a(name) % K, computed once per request.
// Every model's whole request stream lands on one shard, which keeps the
// micro-batcher effective (a batch is same-model by construction) and makes
// per-shard stats attributable to the models hashed there: shard_stats(k)
// carries shard k's request counters and its cache's hits, misses and
// evictions.
//
// Checkpoint hot-swap: Swap(spec) routes to the owning shard's registry,
// whose Load builds the replacement model outside the lock and flips the
// shared_ptr under it. In-flight batches hold the old shared_ptr and finish
// on the old weights; the swap is a pointer store, never a pause. The
// LoadResult reports the replaced entry's health so callers can tell an
// initial load from a swap (and a recovery from a regression).

#ifndef STSM_SERVE_SHARDING_H_
#define STSM_SERVE_SHARDING_H_

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "serve/server.h"
#include "serve/types.h"

namespace stsm {
namespace serve {

struct ShardedConfig {
  // Number of {registry, server} shards; must be >= 1.
  int num_shards = 2;
  // Per-shard server configuration.
  ServerConfig server;
};

class ShardedRegistry {
 public:
  explicit ShardedRegistry(const ShardedConfig& config);
  ~ShardedRegistry();  // Stops every shard server.

  ShardedRegistry(const ShardedRegistry&) = delete;
  ShardedRegistry& operator=(const ShardedRegistry&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Owning shard of `model`: FNV-1a 64-bit of the name, modulo num_shards.
  int ShardFor(const std::string& model) const;

  // Registers (or replaces) `spec.name` on its owning shard.
  LoadResult Load(const ModelSpec& spec);

  // Checkpoint hot-swap: identical routing to Load; the name states the
  // intent and the returned transition says what actually happened
  // (previous == EntryHealth::kAbsent means this was an initial load).
  LoadResult Swap(const ModelSpec& spec);

  // Removes `name` from its owning shard; false when it was not registered.
  bool Unload(const std::string& name);

  // All registered model names across shards (unordered across shards).
  std::vector<std::string> Names() const;

  // Request entry points; identical contracts to ForecastServer's, routed
  // by request.model. An empty model name routes like any other string and
  // is answered kError by the shard ("unknown model").
  void SubmitAsync(ForecastRequest request,
                   ForecastServer::ResponseCallback done);
  std::future<ForecastResponse> Submit(ForecastRequest request);
  ForecastResponse SubmitAndWait(ForecastRequest request);

  // Stops every shard's workers; accepted requests are answered first.
  // Idempotent; also run by the destructor.
  void Stop();

  // Point-in-time counters of one shard's server (and its cache).
  ServerStats shard_stats(int shard) const;

  const ServerConfig& shard_config() const { return shard_config_; }

 private:
  struct Shard {
    explicit Shard(const ServerConfig& config)
        : server(&registry, config) {}
    ModelRegistry registry;
    ForecastServer server;
  };

  const ServerConfig shard_config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_SHARDING_H_
