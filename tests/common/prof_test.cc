#include "common/prof.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace stsm {
namespace prof {
namespace {

// Every test runs against the process-global registry, so each one starts
// from a clean slate and leaves profiling enabled state as it found it.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    SetEnabled(true);
    Reset();
  }
  void TearDown() override {
    Reset();
    SetEnabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ProfTest, RecordsTimerCountAndTotal) {
  RecordTimerNs("prof_test.alpha", 100);
  RecordTimerNs("prof_test.alpha", 300);
  RecordTimerNs("prof_test.beta", 50);

  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* alpha = snapshot.FindTimer("prof_test.alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->count, 2u);
  EXPECT_EQ(alpha->total_ns, 400u);
  EXPECT_EQ(alpha->min_ns, 100u);
  EXPECT_EQ(alpha->max_ns, 300u);
  EXPECT_DOUBLE_EQ(alpha->MeanNs(), 200.0);

  const StatSnapshot* beta = snapshot.FindTimer("prof_test.beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->count, 1u);
  EXPECT_EQ(beta->total_ns, 50u);
}

TEST_F(ProfTest, RecordsCounters) {
  RecordCounter("prof_test.events");
  RecordCounter("prof_test.events", 4);

  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* events = snapshot.FindCounter("prof_test.events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->count, 2u);
  EXPECT_EQ(events->total_ns, 5u);  // Counters store the sum in total_ns.
}

TEST_F(ProfTest, ScopedTimerRecordsPositiveDuration) {
  {
    ScopedTimer timer("prof_test.scope");
    // Do a little work so the duration is non-zero on coarse clocks.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* scope = snapshot.FindTimer("prof_test.scope");
  ASSERT_NE(scope, nullptr);
  EXPECT_EQ(scope->count, 1u);
}

TEST_F(ProfTest, DisabledModeRecordsNothing) {
  SetEnabled(false);
  RecordTimerNs("prof_test.disabled", 123);
  RecordCounter("prof_test.disabled_count", 7);
  { STSM_PROF_SCOPE("prof_test.disabled_scope"); }
  STSM_PROF_COUNT("prof_test.disabled_macro", 1);
  SetEnabled(true);

  const Snapshot snapshot = TakeSnapshot();
  EXPECT_EQ(snapshot.FindTimer("prof_test.disabled"), nullptr);
  EXPECT_EQ(snapshot.FindTimer("prof_test.disabled_scope"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("prof_test.disabled_count"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("prof_test.disabled_macro"), nullptr);
}

TEST_F(ProfTest, ResetClearsStatsButKeepsRecording) {
  RecordTimerNs("prof_test.reset", 10);
  Reset();
  EXPECT_EQ(TakeSnapshot().FindTimer("prof_test.reset"), nullptr);

  // The same name must keep working after Reset (thread-local caches hold
  // pointers into the registry).
  RecordTimerNs("prof_test.reset", 20);
  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* stat = snapshot.FindTimer("prof_test.reset");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 1u);
  EXPECT_EQ(stat->total_ns, 20u);
}

TEST_F(ProfTest, ConcurrentScopedTimersFromThreadPool) {
  constexpr int kTasks = 200;
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  pool.ParallelFor(0, kTasks, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      STSM_PROF_SCOPE("prof_test.pool");
      RecordTimerNs("prof_test.pool_manual", 7);
      executed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  ASSERT_EQ(executed.load(), kTasks);

  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* scoped = snapshot.FindTimer("prof_test.pool");
  ASSERT_NE(scoped, nullptr);
  EXPECT_EQ(scoped->count, static_cast<uint64_t>(kTasks));
  const StatSnapshot* manual = snapshot.FindTimer("prof_test.pool_manual");
  ASSERT_NE(manual, nullptr);
  EXPECT_EQ(manual->count, static_cast<uint64_t>(kTasks));
  EXPECT_EQ(manual->total_ns, static_cast<uint64_t>(kTasks) * 7u);
}

TEST_F(ProfTest, StatsSurviveThreadExit) {
  std::thread worker([] {
    for (int i = 0; i < 50; ++i) RecordTimerNs("prof_test.exited", 11);
  });
  worker.join();

  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* stat = snapshot.FindTimer("prof_test.exited");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 50u);
  EXPECT_EQ(stat->total_ns, 550u);
}

TEST_F(ProfTest, HistogramPercentilesBracketTrueValues) {
  // 100 samples of 1000ns, then 5 of 1ms: p50 should sit near 1000ns and
  // p99 near 1ms. Log2 buckets quantise, so allow a factor-of-two band.
  for (int i = 0; i < 100; ++i) RecordTimerNs("prof_test.hist", 1000);
  for (int i = 0; i < 5; ++i) RecordTimerNs("prof_test.hist", 1000000);

  const Snapshot snapshot = TakeSnapshot();
  const StatSnapshot* stat = snapshot.FindTimer("prof_test.hist");
  ASSERT_NE(stat, nullptr);
  const double p50 = stat->PercentileNs(0.50);
  const double p99 = stat->PercentileNs(0.99);
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 2000.0);
  EXPECT_GE(p99, 500000.0);
  EXPECT_LE(p99, 2000000.0);
  // Percentiles are clamped to the observed range.
  EXPECT_GE(stat->PercentileNs(0.0), static_cast<double>(stat->min_ns));
  EXPECT_LE(stat->PercentileNs(1.0), static_cast<double>(stat->max_ns));
}

}  // namespace
}  // namespace prof
}  // namespace stsm
