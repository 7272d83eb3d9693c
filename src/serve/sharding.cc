#include "serve/sharding.h"

#include <utility>

#include "common/check.h"

namespace stsm {
namespace serve {
namespace {

// FNV-1a 64-bit over the model name. Deterministic across processes, so a
// model lands on the same shard in every run.
uint64_t HashName(const std::string& name) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : name) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

ShardedRegistry::ShardedRegistry(const ShardedConfig& config)
    : shard_config_(config.server) {
  STSM_CHECK_GE(config.num_shards, 1)
      << "— ShardedConfig.num_shards must be positive";
  shards_.reserve(config.num_shards);
  for (int k = 0; k < config.num_shards; ++k) {
    shards_.push_back(std::make_unique<Shard>(config.server));
  }
}

ShardedRegistry::~ShardedRegistry() { Stop(); }

int ShardedRegistry::ShardFor(const std::string& model) const {
  return static_cast<int>(HashName(model) % shards_.size());
}

LoadResult ShardedRegistry::Load(const ModelSpec& spec) {
  return shards_[ShardFor(spec.name)]->registry.Load(spec);
}

LoadResult ShardedRegistry::Swap(const ModelSpec& spec) { return Load(spec); }

bool ShardedRegistry::Unload(const std::string& name) {
  return shards_[ShardFor(name)]->registry.Unload(name);
}

std::vector<std::string> ShardedRegistry::Names() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    for (std::string& name : shard->registry.Names()) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

void ShardedRegistry::SubmitAsync(ForecastRequest request,
                                  ForecastServer::ResponseCallback done) {
  Shard& shard = *shards_[ShardFor(request.model)];
  shard.server.SubmitAsync(std::move(request), std::move(done));
}

std::future<ForecastResponse> ShardedRegistry::Submit(
    ForecastRequest request) {
  Shard& shard = *shards_[ShardFor(request.model)];
  return shard.server.Submit(std::move(request));
}

ForecastResponse ShardedRegistry::SubmitAndWait(ForecastRequest request) {
  return Submit(std::move(request)).get();
}

void ShardedRegistry::Stop() {
  for (const auto& shard : shards_) shard->server.Stop();
}

ServerStats ShardedRegistry::shard_stats(int shard) const {
  STSM_CHECK_GE(shard, 0);
  STSM_CHECK_LT(shard, num_shards());
  return shards_[shard]->server.stats();
}

}  // namespace serve
}  // namespace stsm
