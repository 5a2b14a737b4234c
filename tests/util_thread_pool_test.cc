#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace comparesets {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesZeroAndOne) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body called for n=0"; });

  std::atomic<size_t> calls{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1u);
}

TEST(ThreadPoolTest, ParallelForWithMoreIndicesThanThreads) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, SequentialParallelForCallsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<size_t> calls{0};
    pool.ParallelFor(37, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 37u);
  }
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable done;
  bool ran = false;
  pool.Submit([&] {
    std::lock_guard<std::mutex> lock(mutex);
    ran = true;
    done.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  EXPECT_TRUE(done.wait_for(lock, std::chrono::seconds(10),
                            [&] { return ran; }));
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPoolTest, ResolveThreadsClampsAndDefaults) {
  EXPECT_EQ(ThreadPool::ResolveThreads(8, 3), 3u);
  EXPECT_EQ(ThreadPool::ResolveThreads(2, 5), 2u);
  EXPECT_GE(ThreadPool::ResolveThreads(0, 16), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(4, 0), 4u);  // 0 = no cap.
}

TEST(ThreadPoolTest, NumThreadsMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  ThreadPool defaulted(0);
  EXPECT_GE(defaulted.num_threads(), 1u);
}

// A one-worker pool makes scheduling order observable: block the single
// worker, queue batch work, then one interactive task — the interactive
// task must run before every already-queued batch task (the scheduler
// drains the interactive class first; batch never gets ahead of it).
TEST(SchedulerTest, InteractiveNeverQueuesBehindBatch) {
  // All synchronization state is declared before the pool so that
  // ~ThreadPool (which drains and joins every worker) runs before any
  // of it is destroyed — a worker mid-notify must never touch a dead
  // condition variable.
  std::mutex mutex;
  std::condition_variable cv;
  bool gate_open = false;
  bool worker_blocked = false;
  std::vector<int> order;  // 0 = batch, 1 = interactive
  std::mutex order_mutex;
  std::condition_variable order_cv;
  ThreadPool pool(1);

  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    worker_blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return worker_blocked; }));
  }

  for (int i = 0; i < 10; ++i) {
    pool.Submit(
        [&] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(0);
          order_cv.notify_all();
        },
        RequestPriority::kBatch);
  }
  pool.Submit(
      [&] {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(1);
        order_cv.notify_all();
      },
      RequestPriority::kInteractive);

  {
    std::lock_guard<std::mutex> lock(mutex);
    gate_open = true;
  }
  cv.notify_all();
  std::unique_lock<std::mutex> order_lock(order_mutex);
  ASSERT_TRUE(order_cv.wait_for(order_lock, std::chrono::seconds(30),
                                [&] { return order.size() == 11u; }));
  EXPECT_EQ(order.front(), 1) << "a batch task ran before the queued "
                                 "interactive task (priority inversion)";
}

// Forces at least one steal: with two workers, one blocked inside a
// task, external submits round-robin across both deques — the free
// worker can only finish the whole backlog by stealing from the blocked
// worker's deque.
TEST(SchedulerTest, BlockedWorkerBacklogIsStolen) {
  // Sync state before the pool: ~ThreadPool joins workers before the
  // condition variable is destroyed (see the previous test).
  std::mutex mutex;
  std::condition_variable cv;
  bool gate_open = false;
  bool worker_blocked = false;
  std::atomic<int> done{0};
  ThreadPool pool(2);

  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    worker_blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return worker_blocked; }));
  }

  constexpr int kTasks = 10;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mutex);
      done.fetch_add(1);
      cv.notify_all();
    });
  }
  // Every task must finish while one of the two workers is still held:
  // round-robin parks half the backlog on the blocked worker's deque,
  // so the free worker has to steal to get there.
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done.load() == kTasks; }));
    gate_open = true;
  }
  cv.notify_all();
  EXPECT_GE(pool.steals(), 1u);
}

// Nested ParallelFor on one pool always finishes (docs/execution-model.md):
// every caller drains its own loop and waits only on indices that lanes
// already running have claimed, so tasks running ON the pool may call
// ParallelFor on the same pool, at any depth and pool size. Queued
// helpers land on the submitting worker's own deque and are stealable
// by idle peers. The three-level shape is the serving stack's: router
// scatter → shard batch (both kBatch) → intra-request fan-out.
TEST(SchedulerTest, NestedParallelForFromWorkerTasks) {
  constexpr int kOuter = 8;
  constexpr size_t kInner = 200;
  constexpr size_t kShards = 4;
  constexpr size_t kRequests = 4;
  constexpr size_t kItems = 16;
  for (size_t workers : {1u, 2u, 4u}) {
    for (int levels : {2, 3}) {
      std::atomic<size_t> total{0};
      std::atomic<int> outer_done{0};
      std::mutex mutex;
      std::condition_variable cv;
      ThreadPool pool(workers);  // Last: joined before the sync state dies.
      for (int t = 0; t < kOuter; ++t) {
        pool.Submit([&] {
          if (levels == 2) {
            pool.ParallelFor(kInner,
                             [&](size_t i) { total.fetch_add(i + 1); });
          } else {
            pool.ParallelFor(
                kShards,
                [&](size_t) {
                  pool.ParallelFor(
                      kRequests,
                      [&](size_t) {
                        pool.ParallelFor(
                            kItems, [&](size_t i) { total.fetch_add(i + 1); });
                      },
                      0, RequestPriority::kBatch);
                },
                0, RequestPriority::kBatch);
          }
          std::lock_guard<std::mutex> lock(mutex);
          outer_done.fetch_add(1);
          cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mutex);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                              [&] { return outer_done.load() == kOuter; }))
          << workers << " workers, " << levels << " levels";
      size_t want =
          levels == 2 ? kOuter * (kInner * (kInner + 1)) / 2
                      : kOuter * kShards * kRequests * (kItems * (kItems + 1)) /
                            2;
      EXPECT_EQ(total.load(), want)
          << workers << " workers, " << levels << " levels";
    }
  }
}

// Tasks submitted BY running tasks during destructor drain still run:
// stopping_ only ends a worker once the pending count truly hits zero,
// and chained submissions keep it above zero until the chain bottoms
// out.
TEST(SchedulerTest, SubmitDuringDrainRunsChainedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
      pool.Submit([&ran, &pool] {
        ran.fetch_add(1);
        pool.Submit([&ran, &pool] {
          ran.fetch_add(1);
          pool.Submit([&ran] { ran.fetch_add(1); }, RequestPriority::kBatch);
        });
      });
    }
  }
  EXPECT_EQ(ran.load(), 12);
}

// Mixed-class storm: both classes complete, none lost, under heavy
// concurrent submission from several external threads.
TEST(SchedulerTest, MixedPriorityStormCompletesEverything) {
  constexpr int kPerThread = 200;
  constexpr int kThreads = 4;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&pool, &ran, t] {
        for (int i = 0; i < kPerThread; ++i) {
          pool.Submit([&ran] { ran.fetch_add(1); },
                      (i + t) % 2 == 0 ? RequestPriority::kInteractive
                                       : RequestPriority::kBatch);
        }
      });
    }
    for (std::thread& s : submitters) s.join();
  }
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

TEST(SchedulerTest, PriorityNamesAndParsing) {
  EXPECT_STREQ(RequestPriorityName(RequestPriority::kInteractive),
               "interactive");
  EXPECT_STREQ(RequestPriorityName(RequestPriority::kBatch), "batch");
  RequestPriority parsed = RequestPriority::kInteractive;
  EXPECT_TRUE(ParseRequestPriority("batch", &parsed));
  EXPECT_EQ(parsed, RequestPriority::kBatch);
  EXPECT_TRUE(ParseRequestPriority("interactive", &parsed));
  EXPECT_EQ(parsed, RequestPriority::kInteractive);
  EXPECT_FALSE(ParseRequestPriority("urgent", &parsed));
  EXPECT_EQ(DemotePriority(RequestPriority::kInteractive,
                           RequestPriority::kBatch),
            RequestPriority::kBatch);
  EXPECT_EQ(DemotePriority(RequestPriority::kInteractive,
                           RequestPriority::kInteractive),
            RequestPriority::kInteractive);
}

}  // namespace
}  // namespace comparesets
