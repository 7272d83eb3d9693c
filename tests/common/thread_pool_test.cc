#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace stsm {
namespace {

// Sets STSM_NUM_THREADS for the test's lifetime and restores the previous
// value (or unsets it) on destruction.
class ScopedNumThreadsEnv {
 public:
  explicit ScopedNumThreadsEnv(const char* value) {
    const char* previous = std::getenv("STSM_NUM_THREADS");
    if (previous != nullptr) {
      had_previous_ = true;
      previous_ = previous;
    }
    setenv("STSM_NUM_THREADS", value, /*overwrite=*/1);
  }
  ~ScopedNumThreadsEnv() {
    if (had_previous_) {
      setenv("STSM_NUM_THREADS", previous_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("STSM_NUM_THREADS");
    }
  }

 private:
  bool had_previous_ = false;
  std::string previous_;
};

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(0, 1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, 4, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, ParallelSumMatchesSequential) {
  ThreadPool pool(8);
  const int64_t n = 100000;
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, n, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 100, [&](int64_t begin, int64_t end) {
      count.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeAcrossSizesAndPools) {
  // No gaps, no overlaps, for ranges that exercise every chunking branch:
  // below/at/above the worker count and with a ragged final chunk.
  const int64_t sizes[] = {1, 2, 3, 7, 16, 101, 1000};
  const int pool_sizes[] = {1, 2, 3, 8};
  for (int threads : pool_sizes) {
    ThreadPool pool(threads);
    for (int64_t total : sizes) {
      const int64_t begin = 5;  // Non-zero start catches begin-offset bugs.
      const int64_t end = begin + total;
      std::vector<std::atomic<int>> counts(total);
      pool.ParallelFor(begin, end, [&](int64_t chunk_begin, int64_t chunk_end) {
        ASSERT_GE(chunk_begin, begin);
        ASSERT_LE(chunk_end, end);
        ASSERT_LT(chunk_begin, chunk_end);
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          counts[i - begin].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < total; ++i) {
        EXPECT_EQ(counts[i].load(), 1)
            << "index " << i << " with " << threads << " threads over "
            << total << " items";
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunksTileTheRangeInOrder) {
  // Chunks are sized for the worker count; when that leaves fewer non-empty
  // chunks than workers (5 items on 4 threads: 2 + 2 + 1), no empty or
  // inverted chunk is handed out.
  ThreadPool pool(4);
  for (int64_t total = 1; total <= 17; ++total) {
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.ParallelFor(0, total, [&](int64_t begin, int64_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    int64_t next = 0;
    for (const auto& [begin, end] : chunks) {
      EXPECT_EQ(begin, next) << total << " items";
      EXPECT_LT(begin, end) << total << " items";
      next = end;
    }
    EXPECT_EQ(next, total);
    EXPECT_LE(chunks.size(), 4u) << total << " items";
  }
}

TEST(ThreadPoolTest, SmallRangeRunsInlineOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  {
    ThreadPool pool(4);
    std::thread::id executed;
    pool.ParallelFor(0, 1, [&](int64_t, int64_t) {
      executed = std::this_thread::get_id();
    });
    EXPECT_EQ(executed, caller) << "total == 1 should not touch the queue";
  }
  {
    ThreadPool pool(1);
    std::thread::id executed;
    pool.ParallelFor(0, 100, [&](int64_t, int64_t) {
      executed = std::this_thread::get_id();
    });
    EXPECT_EQ(executed, caller) << "1-thread pools should run inline";
  }
}

TEST(ThreadPoolTest, NestedParallelForOnItsOwnPoolCompletes) {
  // Each outer chunk runs on a worker and calls ParallelFor on the same
  // pool. Were the inner chunks queued while both workers block on them,
  // nothing would ever run them. The nesting runs on a helper thread so a
  // deadlock fails the test instead of hanging it.
  constexpr int64_t kOuter = 2;
  constexpr int64_t kInner = 100;
  ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  std::packaged_task<void()> nested([&] {
    pool.ParallelFor(0, kOuter, [&](int64_t outer_begin, int64_t outer_end) {
      for (int64_t o = outer_begin; o < outer_end; ++o) {
        pool.ParallelFor(0, kInner, [&, o](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            counts[o * kInner + i].fetch_add(1);
          }
        });
      }
    });
  });
  std::future<void> done = nested.get_future();
  std::thread helper(std::move(nested));
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "nested ParallelFor on a 2-thread pool did not finish";
    std::fflush(stdout);
    std::abort();  // The stuck pool can be neither joined nor destroyed.
  }
  helper.join();
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ConfiguredThreadCountHonoursEnv) {
  {
    ScopedNumThreadsEnv env("1");
    EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 1);
  }
  {
    ScopedNumThreadsEnv env("3");
    EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 3);
  }
}

TEST(ThreadPoolTest, ConfiguredThreadCountClampsToValidRange) {
  {
    ScopedNumThreadsEnv env("64");
    EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 16);
  }
  {
    ScopedNumThreadsEnv env("0");
    EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 1);
  }
  {
    ScopedNumThreadsEnv env("-4");
    EXPECT_EQ(ThreadPool::ConfiguredThreadCount(), 1);
  }
}

TEST(ThreadPoolTest, GlobalPoolAvailable) {
  EXPECT_GE(ThreadPool::Global().num_threads(), 1);
  std::atomic<int> count{0};
  ParallelFor(0, 64, [&](int64_t begin, int64_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace stsm
