// Network ingress + sharded serving tests: loopback end-to-end requests
// through the epoll listener, pipelining, back-pressure read pauses,
// malformed-frame rejection, per-shard routing and cache stats, registry
// unload/hot-swap transitions (including the TSan-exercised
// replace-while-Find race), socket sessions that hot-swap a checkpoint
// mid-stream (fp32, bf16, and CSR with a pooled-buffer leak check), and
// ServerConfig construction validation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/st_model.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "serve/net/client.h"
#include "serve/net/listener.h"
#include "serve/net/wire.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/sharding.h"
#include "tensor/dtype.h"
#include "tensor/pool.h"
#include "testing/temp_dir.h"

namespace stsm {
namespace serve {
namespace {

// The fixture below is leaked, so its checkpoints stay loadable for every
// test in this process; this directory is removed at exit.
ScopedTempDir& CheckpointDir() {
  static ScopedTempDir dir;
  return dir;
}

struct NetFixture {
  SpatioTemporalDataset dataset;
  StsmConfig config_tcn;
  StsmConfig config_trans;
  SpaceSplit split;
  ModelSpec spec_tcn;     // "stsm": TCN temporal module.
  ModelSpec spec_trans;   // "stsm-trans": transformer temporal module.
  ModelSpec spec_tcn_v2;  // Same name, different weights: the hot-swap spec.
  std::string ckpt_tcn = CheckpointDir().File("tcn.bin");
  std::string ckpt_trans = CheckpointDir().File("trans.bin");
  std::string ckpt_tcn_v2 = CheckpointDir().File("tcn_v2.bin");
};

NetFixture& Fixture() {
  static NetFixture* fixture = [] {
    auto* f = new NetFixture();
    SimulatorConfig sim;
    sim.name = "net-tiny";
    sim.kind = RegionKind::kHighway;
    sim.num_sensors = 16;
    // The test-time DTW graph reads the test period's (30%) daily
    // profiles, so the period must span a day: four days of 48 steps.
    sim.num_days = 4;
    sim.steps_per_day = 48;
    sim.area_km = 12.0;
    sim.seed = 7;
    f->dataset = SimulateDataset(sim);

    f->config_tcn.input_length = 6;
    f->config_tcn.horizon = 3;
    f->config_tcn.hidden_dim = 8;
    f->config_tcn.num_blocks = 1;
    f->config_tcn.dtw_band = 6;
    f->config_tcn.seed = 3;
    f->config_trans = f->config_tcn;
    f->config_trans.temporal_module = TemporalModule::kTransformer;

    f->split = SplitSpace(f->dataset.coords, SplitAxis::kVertical);

    Rng rng_tcn(f->config_tcn.seed + 1);
    StModel tcn(f->config_tcn, &rng_tcn);
    EXPECT_TRUE(SaveModule(tcn, f->ckpt_tcn));
    Rng rng_trans(f->config_trans.seed + 2);
    StModel trans(f->config_trans, &rng_trans);
    EXPECT_TRUE(SaveModule(trans, f->ckpt_trans));
    Rng rng_v2(f->config_tcn.seed + 3);
    StModel tcn_v2(f->config_tcn, &rng_v2);
    EXPECT_TRUE(SaveModule(tcn_v2, f->ckpt_tcn_v2));

    f->spec_tcn = BuildModelSpec("stsm", f->dataset, f->split, f->config_tcn,
                                 f->ckpt_tcn);
    f->spec_trans = BuildModelSpec("stsm-trans", f->dataset, f->split,
                                   f->config_trans, f->ckpt_trans);
    f->spec_tcn_v2 = BuildModelSpec("stsm", f->dataset, f->split,
                                    f->config_tcn, f->ckpt_tcn_v2);
    return f;
  }();
  return *fixture;
}

ForecastRequest MakeRequest(const std::string& model, int start) {
  const NetFixture& f = Fixture();
  ForecastRequest request;
  request.model = model;
  request.start_step = start;
  request.regions = f.split.test;
  const int n = f.dataset.num_nodes();
  const int t = f.config_tcn.input_length;
  request.window.resize(static_cast<size_t>(t) * n);
  for (int step = 0; step < t; ++step) {
    for (int node = 0; node < n; ++node) {
      request.window[static_cast<size_t>(step) * n + node] =
          f.dataset.series.at(start + step, node);
    }
  }
  return request;
}

net::RequestFrame MakeFrame(uint64_t id, const std::string& model,
                            int start) {
  net::RequestFrame frame;
  frame.id = id;
  frame.request = MakeRequest(model, start);
  return frame;
}

// A ShardedRegistry serving `specs` (by default both fixture model kinds),
// fronted by a listener on an ephemeral loopback port.
struct LoopbackServer {
  explicit LoopbackServer(net::ListenerConfig config = {})
      : LoopbackServer(
            std::vector<ModelSpec>{Fixture().spec_tcn, Fixture().spec_trans},
            std::move(config)) {}

  explicit LoopbackServer(const std::vector<ModelSpec>& specs,
                          net::ListenerConfig config = {})
      : sharded(ShardedConfig{}),
        listener(
            [this](ForecastRequest request,
                   std::function<void(ForecastResponse)> done) {
              sharded.SubmitAsync(std::move(request), std::move(done));
            },
            std::move(config)) {
    for (const ModelSpec& spec : specs) {
      EXPECT_TRUE(sharded.Load(spec).healthy) << spec.name;
    }
    std::string error;
    EXPECT_TRUE(listener.Start(&error)) << error;
  }

  net::NetClient Connect() {
    net::NetClient client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", listener.port(), &error))
        << error;
    return client;
  }

  ShardedRegistry sharded;
  net::Listener listener;  // Declared last: destroyed (stopped) first.
};

template <typename Pred>
bool WaitFor(Pred pred,
             std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
  const auto deadline = Clock::now() + timeout;
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ---- sharding --------------------------------------------------------------

TEST(ShardedRegistryTest, RoutingIsStableAndSplitsTheModelKinds) {
  LoopbackServer server;
  ASSERT_EQ(server.sharded.num_shards(), 2);
  EXPECT_EQ(server.sharded.ShardFor("stsm"),
            server.sharded.ShardFor("stsm"));  // Deterministic.
  // The two served model kinds land on different shards (FNV-1a % 2), which
  // the acceptance smoke and the per-shard counter checks rely on.
  EXPECT_NE(server.sharded.ShardFor("stsm"),
            server.sharded.ShardFor("stsm-trans"));
  EXPECT_EQ(server.sharded.Names().size(), 2u);
}

TEST(ShardedRegistryTest, PerShardCacheStatsAttributeToTheOwningShard) {
  LoopbackServer server;
  for (const std::string model : {"stsm", "stsm-trans"}) {
    ASSERT_EQ(server.sharded.SubmitAndWait(MakeRequest(model, 1)).status,
              Status::kOk);
    const ForecastResponse again =
        server.sharded.SubmitAndWait(MakeRequest(model, 1));
    ASSERT_EQ(again.status, Status::kOk);
    EXPECT_TRUE(again.cache_hit);
  }
  for (int shard = 0; shard < server.sharded.num_shards(); ++shard) {
    const ServerStats stats = server.sharded.shard_stats(shard);
    EXPECT_EQ(stats.submitted, 2u) << "shard " << shard;
    EXPECT_GE(stats.cache.hits, 1u) << "shard " << shard;
  }
}

// ---- registry load/unload/hot-swap -----------------------------------------

TEST(ModelRegistryTest, LoadReportsThePreviousEntryHealthTransition) {
  NetFixture& f = Fixture();
  ModelRegistry registry;
  const LoadResult initial = registry.Load(f.spec_tcn);
  EXPECT_TRUE(initial.healthy);
  EXPECT_EQ(initial.previous, EntryHealth::kAbsent);

  const LoadResult swap = registry.Load(f.spec_tcn_v2);
  EXPECT_TRUE(swap.healthy);
  EXPECT_EQ(swap.previous, EntryHealth::kHealthy);

  ModelSpec broken = f.spec_tcn;
  broken.checkpoint_path = CheckpointDir().Absent();
  const LoadResult regression = registry.Load(broken);
  EXPECT_FALSE(regression.healthy);
  EXPECT_EQ(regression.previous, EntryHealth::kHealthy);

  const LoadResult recovery = registry.Load(f.spec_tcn);
  EXPECT_TRUE(recovery.healthy);
  EXPECT_EQ(recovery.previous, EntryHealth::kUnhealthy);
}

TEST(ModelRegistryTest, UnloadRemovesTheEntry) {
  NetFixture& f = Fixture();
  ModelRegistry registry;
  EXPECT_FALSE(registry.Unload("stsm"));  // Nothing registered yet.
  ASSERT_TRUE(registry.Load(f.spec_tcn).healthy);
  ASSERT_NE(registry.Find("stsm"), nullptr);
  EXPECT_TRUE(registry.Unload("stsm"));
  EXPECT_EQ(registry.Find("stsm"), nullptr);
  EXPECT_FALSE(registry.Unload("stsm"));  // Second unload: already gone.
  // A load after unload is an initial load again.
  EXPECT_EQ(registry.Load(f.spec_tcn).previous, EntryHealth::kAbsent);
}

// The hot-swap contract under the race the design promises to survive:
// readers holding a Find()-result keep a usable model while the entry is
// concurrently replaced and unloaded. Run under TSan in CI.
TEST(ModelRegistryTest, ReplaceWhileFindInFlight) {
  NetFixture& f = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load(f.spec_tcn).healthy);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::shared_ptr<const ServedModel> model =
            registry.Find("stsm");
        if (model != nullptr) {
          // Use the model after the registry may have dropped it.
          EXPECT_EQ(model->spec().num_nodes, Fixture().dataset.num_nodes());
          EXPECT_TRUE(model->healthy());
          observed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Keep swapping until the readers have demonstrably raced against the
  // replacements (bounded by a wall-clock guard for pathological schedulers).
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (int i = 0; i < 40 || (observed.load(std::memory_order_relaxed) < 500 &&
                             Clock::now() < deadline);
       ++i) {
    const LoadResult result =
        registry.Load((i % 2 == 0) ? f.spec_tcn_v2 : f.spec_tcn);
    EXPECT_TRUE(result.healthy);
    if (i % 10 == 9) {
      EXPECT_TRUE(registry.Unload("stsm"));
      ASSERT_TRUE(registry.Load(f.spec_tcn).healthy);
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(observed.load(), 0u);
}

TEST(ShardedRegistryTest, HotSwapUnderLoadFailsNoRequest) {
  NetFixture& f = Fixture();
  LoopbackServer server;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      int start = c * 7;
      while (!stop.load(std::memory_order_acquire)) {
        const ForecastResponse response = server.sharded.SubmitAndWait(
            MakeRequest("stsm", start++ % 32));
        answered.fetch_add(1, std::memory_order_relaxed);
        if (response.status != Status::kOk &&
            response.status != Status::kRejected) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int swap = 0; swap < 10; ++swap) {
    const LoadResult result = server.sharded.Swap(
        (swap % 2 == 0) ? f.spec_tcn_v2 : f.spec_tcn);
    EXPECT_TRUE(result.healthy);
    EXPECT_EQ(result.previous, EntryHealth::kHealthy);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  EXPECT_GT(answered.load(), 0u);
  // A swap must never surface as a failed request: every answer is either
  // served (possibly by the previous generation) or back-pressured.
  EXPECT_EQ(failed.load(), 0u);
}

// ---- loopback ingress ------------------------------------------------------

TEST(NetIngressTest, LoopbackRequestRoundTrips) {
  NetFixture& f = Fixture();
  LoopbackServer server;
  net::NetClient client = server.Connect();
  std::string error;
  ASSERT_TRUE(client.SendRequest(MakeFrame(99, "stsm", 0), &error)) << error;
  net::ResponseFrame response;
  ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
  EXPECT_EQ(response.id, 99u);
  ASSERT_EQ(response.response.status, Status::kOk)
      << response.response.message;
  EXPECT_EQ(response.response.horizon, f.config_tcn.horizon);
  ASSERT_EQ(response.response.forecast.size(),
            static_cast<size_t>(f.config_tcn.horizon) * f.split.test.size());
  for (float value : response.response.forecast) {
    EXPECT_TRUE(std::isfinite(value));
  }
  // The identical query again: answered from the shard cache, and the
  // cache-hit flag survives the wire.
  ASSERT_TRUE(client.SendRequest(MakeFrame(100, "stsm", 0), &error));
  net::ResponseFrame cached;
  ASSERT_TRUE(client.ReadResponse(&cached, &error)) << error;
  EXPECT_EQ(cached.id, 100u);
  EXPECT_TRUE(cached.response.cache_hit);
  EXPECT_EQ(cached.response.forecast, response.response.forecast);
}

TEST(NetIngressTest, PipelinedRequestsAcrossBothShardsAllAnswered) {
  LoopbackServer server;
  net::NetClient client = server.Connect();
  std::string error;
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    const std::string model = (i % 2 == 0) ? "stsm" : "stsm-trans";
    ASSERT_TRUE(client.SendRequest(
        MakeFrame(1000 + i, model, i % 16), &error))
        << error;
  }
  std::unordered_map<uint64_t, Status> statuses;
  for (int i = 0; i < kRequests; ++i) {
    net::ResponseFrame response;
    ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
    statuses[response.id] = response.response.status;
  }
  ASSERT_EQ(statuses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(statuses.count(1000 + i)) << "missing response " << i;
    EXPECT_EQ(statuses[1000 + i], Status::kOk) << "request " << i;
  }
  const net::ListenerStats stats = server.listener.stats();
  EXPECT_EQ(stats.frames_in, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.frames_out, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.malformed, 0u);
}

TEST(NetIngressTest, InflightCapPausesReadsButAnswersEverything) {
  net::ListenerConfig config;
  config.max_inflight_per_connection = 1;
  LoopbackServer server(config);
  net::NetClient client = server.Connect();
  std::string error;
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.SendRequest(MakeFrame(i, "stsm", i), &error)) << error;
  }
  for (int i = 0; i < kRequests; ++i) {
    net::ResponseFrame response;
    ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
    EXPECT_EQ(response.response.status, Status::kOk);
  }
  // With a single in-flight slot and pipelined sends, back-pressure must
  // have paused reads at least once — and buffered frames must still have
  // been parsed after completions drained (or the reads above would hang).
  EXPECT_GE(server.listener.stats().read_pauses, 1u);
}

TEST(NetIngressTest, UnknownModelAnsweredOverTheWire) {
  LoopbackServer server;
  net::NetClient client = server.Connect();
  std::string error;
  net::RequestFrame frame = MakeFrame(7, "stsm", 0);
  frame.request.model = "no-such-model";
  ASSERT_TRUE(client.SendRequest(frame, &error)) << error;
  net::ResponseFrame response;
  ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
  EXPECT_EQ(response.id, 7u);
  EXPECT_EQ(response.response.status, Status::kError);
  EXPECT_NE(response.response.message.find("unknown model"),
            std::string::npos);
}

TEST(NetIngressTest, GarbageBytesCloseTheConnection) {
  LoopbackServer server;
  net::NetClient client = server.Connect();
  std::string error;
  const std::vector<uint8_t> garbage(64, 0xA5);
  ASSERT_TRUE(client.SendBytes(garbage.data(), garbage.size(), &error));
  net::ResponseFrame response;
  EXPECT_FALSE(client.ReadResponse(&response, &error));
  EXPECT_TRUE(WaitFor([&] {
    const net::ListenerStats stats = server.listener.stats();
    return stats.malformed >= 1 && stats.closed >= 1;
  })) << "listener never recorded the malformed close";
}

TEST(NetIngressTest, ValidThenMalformedFrameAnswersThenCloses) {
  LoopbackServer server;
  net::NetClient client = server.Connect();
  std::string error;
  ASSERT_TRUE(client.SendRequest(MakeFrame(11, "stsm", 2), &error));
  net::ResponseFrame response;
  ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
  EXPECT_EQ(response.id, 11u);
  // An oversized length field: rejected at the header, before any
  // allocation, and terminal for the stream.
  std::vector<uint8_t> bad(net::kHeaderBytes, 0);
  std::memcpy(bad.data(), &net::kMagic, 4);
  bad[4] = net::kWireVersion;
  bad[5] = 1;
  const uint32_t huge = static_cast<uint32_t>(net::kMaxPayloadBytes) + 1;
  std::memcpy(bad.data() + 8, &huge, 4);
  ASSERT_TRUE(client.SendBytes(bad.data(), bad.size(), &error));
  EXPECT_FALSE(client.ReadResponse(&response, &error));
  EXPECT_TRUE(WaitFor(
      [&] { return server.listener.stats().malformed >= 1; }));
}

TEST(NetIngressTest, HalfCloseDrainsResponsesThenClosesGracefully) {
  LoopbackServer server;
  net::NetClient client = server.Connect();
  std::string error;
  ASSERT_TRUE(client.SendRequest(MakeFrame(21, "stsm-trans", 3), &error));
  client.ShutdownWrite();
  net::ResponseFrame response;
  ASSERT_TRUE(client.ReadResponse(&response, &error)) << error;
  EXPECT_EQ(response.id, 21u);
  EXPECT_EQ(response.response.status, Status::kOk);
  // After the last response the server closes its side too.
  EXPECT_FALSE(client.ReadResponse(&response, &error));
  EXPECT_TRUE(WaitFor([&] { return server.listener.stats().closed >= 1; }));
}

// ---- socket sessions with a mid-stream hot-swap ----------------------------

// Ceiling on any one request's send-to-read time in a socket session. It
// is a stall detector, not a latency target: an ingress stall or a lost
// wakeup shows as multi-second waits even at this load, while a healthy
// session stays orders of magnitude below it, TSan's slowdown included.
constexpr double kSendToReadCeilingMs = 10000.0;

// What one socket session saw, summed over its connections.
struct SocketSession {
  int sent = 0;
  int answered = 0;
  int ok = 0;
  int degraded = 0;
  int rejected = 0;
  int errors = 0;
  int unmatched = 0;  // Responses whose id was never sent (or came twice).
  double max_send_to_read_ms = 0.0;
  net::ListenerStats listener;
};

// One connection of a session: a sender thread pipelines frames and
// half-closes; a reader thread drains responses until the server's
// graceful close. SendRequest touches only the socket and ReadResponse
// owns the client's read buffer, so the two threads can share the client.
struct SessionConnection {
  net::NetClient client;
  Mutex mutex;
  std::unordered_map<uint64_t, Clock::time_point> sent_at
      STSM_GUARDED_BY(mutex);
  int sent = 0;         // Written by the sender only.
  SocketSession tally;  // Written by the reader only.
};

// Several loopback connections pipeline a fixed number of requests that
// alternate between the two served models, so both shards serve. Every
// sender stops halfway; the "stsm" checkpoint is then hot-swapped
// kSwaps times (alternating `swap_a` and `swap_b`) while the first halves
// are still in flight, and the senders finish their streams. 3 x 16
// requests never exceed one shard's default queue capacity (64).
SocketSession RunSocketHotSwap(LoopbackServer* server, const ModelSpec& swap_a,
                               const ModelSpec& swap_b) {
  constexpr int kConnections = 3;
  constexpr int kPerConnection = 16;
  constexpr int kSwaps = 4;
  std::vector<std::unique_ptr<SessionConnection>> connections;
  for (int c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<SessionConnection>());
    connections.back()->client = server->Connect();
  }

  std::atomic<int> halfway{0};
  std::atomic<bool> swapped{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    SessionConnection* conn = connections[c].get();
    threads.emplace_back([&, conn, c] {
      for (int i = 0; i < kPerConnection; ++i) {
        if (i == kPerConnection / 2) {
          halfway.fetch_add(1, std::memory_order_acq_rel);
          WaitFor([&] { return swapped.load(std::memory_order_acquire); },
                  std::chrono::seconds(30));
        }
        const uint64_t id = static_cast<uint64_t>(c) * 1000 + i;
        const net::RequestFrame frame = MakeFrame(
            id, (i % 2 == 0) ? "stsm" : "stsm-trans", (c * 5 + i) % 32);
        {
          MutexLock lock(conn->mutex);
          conn->sent_at.emplace(id, Clock::now());
        }
        std::string error;
        if (!conn->client.SendRequest(frame, &error)) {
          ADD_FAILURE() << "connection " << c << ": " << error;
          break;
        }
        ++conn->sent;
      }
      conn->client.ShutdownWrite();
    });
    threads.emplace_back([conn] {
      net::ResponseFrame frame;
      std::string error;
      while (conn->client.ReadResponse(&frame, &error)) {
        const Clock::time_point read_at = Clock::now();
        SocketSession& tally = conn->tally;
        {
          MutexLock lock(conn->mutex);
          const auto it = conn->sent_at.find(frame.id);
          if (it == conn->sent_at.end()) {
            ++tally.unmatched;
            continue;
          }
          tally.max_send_to_read_ms = std::max(
              tally.max_send_to_read_ms,
              std::chrono::duration<double, std::milli>(read_at - it->second)
                  .count());
          conn->sent_at.erase(it);
        }
        ++tally.answered;
        switch (frame.response.status) {
          case Status::kOk:
            ++tally.ok;
            break;
          case Status::kDegraded:
            ++tally.degraded;
            break;
          case Status::kRejected:
            ++tally.rejected;
            break;
          case Status::kError:
            ++tally.errors;
            break;
        }
      }
    });
  }

  EXPECT_TRUE(WaitFor(
      [&] { return halfway.load(std::memory_order_acquire) == kConnections; },
      std::chrono::seconds(30)))
      << "senders never reached the swap point";
  for (int swap = 0; swap < kSwaps; ++swap) {
    const LoadResult result =
        server->sharded.Swap(swap % 2 == 0 ? swap_a : swap_b);
    EXPECT_TRUE(result.healthy) << "swap " << swap;
    EXPECT_EQ(result.previous, EntryHealth::kHealthy) << "swap " << swap;
  }
  swapped.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  SocketSession session;
  for (const auto& conn : connections) {
    const SocketSession& tally = conn->tally;
    session.sent += conn->sent;
    session.answered += tally.answered;
    session.ok += tally.ok;
    session.degraded += tally.degraded;
    session.rejected += tally.rejected;
    session.errors += tally.errors;
    session.unmatched += tally.unmatched;
    session.max_send_to_read_ms =
        std::max(session.max_send_to_read_ms, tally.max_send_to_read_ms);
  }
  EXPECT_EQ(session.sent, kConnections * kPerConnection);
  session.listener = server->listener.stats();
  return session;
}

// Every frame of a session answered kOk: no request carries a deadline,
// every swap installs a healthy model and no shard queue can fill, so
// nothing may error, degrade or be rejected.
void ExpectEveryFrameServed(const SocketSession& session) {
  EXPECT_EQ(session.answered, session.sent);
  EXPECT_EQ(session.unmatched, 0);
  EXPECT_EQ(session.listener.frames_in, static_cast<uint64_t>(session.sent));
  EXPECT_EQ(session.listener.frames_out, session.listener.frames_in);
  EXPECT_EQ(session.listener.malformed, 0u);
  EXPECT_EQ(session.errors, 0);
  EXPECT_EQ(session.degraded, 0);
  EXPECT_EQ(session.rejected, 0);
  EXPECT_EQ(session.ok, session.sent);
  EXPECT_LT(session.max_send_to_read_ms, kSendToReadCeilingMs);
}

// The fixture's three specs rebuilt with `tweak` applied to both configs.
struct ServedSpecs {
  ModelSpec tcn;
  ModelSpec trans;
  ModelSpec tcn_v2;
};

ServedSpecs BuildServedSpecs(void (*tweak)(StsmConfig*)) {
  const NetFixture& f = Fixture();
  StsmConfig tcn = f.config_tcn;
  tweak(&tcn);
  StsmConfig trans = f.config_trans;
  tweak(&trans);
  return {BuildModelSpec("stsm", f.dataset, f.split, tcn, f.ckpt_tcn),
          BuildModelSpec("stsm-trans", f.dataset, f.split, trans,
                         f.ckpt_trans),
          BuildModelSpec("stsm", f.dataset, f.split, tcn, f.ckpt_tcn_v2)};
}

TEST(NetIngressTest, SocketHotSwapAnswersEveryFrame) {
  NetFixture& f = Fixture();
  LoopbackServer server;
  ExpectEveryFrameServed(RunSocketHotSwap(&server, f.spec_tcn_v2, f.spec_tcn));
}

TEST(NetIngressTest, SocketHotSwapAtBf16NeverDegrades) {
  const ServedSpecs specs = BuildServedSpecs(
      [](StsmConfig* config) { config->serve_dtype = DType::kBf16; });
  ASSERT_EQ(specs.tcn.adj_spatial.values_dtype(), DType::kBf16);
  LoopbackServer server(std::vector<ModelSpec>{specs.tcn, specs.trans});
  // bf16 rounding must not push a single request off the healthy path.
  ExpectEveryFrameServed(RunSocketHotSwap(&server, specs.tcn_v2, specs.tcn));
}

TEST(NetIngressTest, CsrServeSessionReturnsEveryPooledBuffer) {
  // Built first: the leaked fixture's own tensors predate the baseline.
  Fixture();
  const uint64_t live_before = BufferPool::Instance().Stats().live_buffers;
  {
    const ServedSpecs specs = BuildServedSpecs(
        [](StsmConfig* config) { config->sparse_adjacency = true; });
    ASSERT_TRUE(specs.tcn.adj_spatial.is_sparse());
    ASSERT_TRUE(specs.tcn.adj_temporal.is_sparse());
    LoopbackServer server(std::vector<ModelSpec>{specs.tcn, specs.trans});
    ExpectEveryFrameServed(
        RunSocketHotSwap(&server, specs.tcn_v2, specs.tcn));
    EXPECT_GT(BufferPool::Instance().Stats().live_buffers, live_before);
  }
  // Specs, registries, models, activations and the CSR arrays (pooled too)
  // are all gone with the server: every buffer went back to the pool.
  EXPECT_EQ(BufferPool::Instance().Stats().live_buffers, live_before);
}

// ---- ServerConfig validation -----------------------------------------------

TEST(ServerConfigDeathTest, ConstructionRejectsNonPositiveSettings) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  ModelRegistry registry;
  ServerConfig bad_workers;
  bad_workers.num_workers = 0;
  EXPECT_DEATH({ ForecastServer server(&registry, bad_workers); },
               "num_workers");
  ServerConfig bad_queue;
  bad_queue.queue_capacity = -1;
  EXPECT_DEATH({ ForecastServer server(&registry, bad_queue); },
               "queue_capacity");
  ServerConfig bad_batch;
  bad_batch.batch_max = 0;
  EXPECT_DEATH({ ForecastServer server(&registry, bad_batch); }, "batch_max");
  ServerConfig bad_cache;
  bad_cache.cache_capacity = -5;
  EXPECT_DEATH({ ForecastServer server(&registry, bad_cache); },
               "cache_capacity");
}

}  // namespace
}  // namespace serve
}  // namespace stsm
