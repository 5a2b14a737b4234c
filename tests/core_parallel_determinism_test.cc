// The intra-request parallelism contract (docs/execution-model.md):
// fanning a request's per-item solves, CompaReSetS+ round refits, and
// similarity-graph rows over a thread pool returns BIT-IDENTICAL
// results to the serial path — same selections, same objective doubles,
// same error on cancellation/deadline expiry. These tests pin that
// guarantee at the selector level; service_intra_parallel_test pins the
// engine-level fan-out (lone and batched requests) on top.

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "core/selector.h"
#include "eval/runner.h"
#include "graph/similarity_graph.h"
#include "util/cancellation.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace comparesets {
namespace {

Workload SmallWorkload() {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 24;
  config.max_instances = 6;
  config.seed = 7;
  return Workload::BuildSynthetic(config).ValueOrDie();
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest() : workload_(SmallWorkload()), pool_(3) {}

  static SelectorOptions BaseOptions() {
    SelectorOptions options;
    options.m = 3;
    options.lambda = 1.0;
    options.mu = 0.1;
    return options;
  }

  Workload workload_;
  ThreadPool pool_;
};

TEST_F(ParallelDeterminismTest, LanesRespectPoolCapAndTaskCount) {
  ParallelContext empty;
  EXPECT_EQ(empty.Lanes(100), 1u);

  ParallelContext whole{&pool_, 0};
  EXPECT_EQ(whole.Lanes(100), 4u);  // 3 workers + the caller.
  EXPECT_EQ(whole.Lanes(2), 2u);    // Never more lanes than tasks.
  EXPECT_EQ(whole.Lanes(0), 0u);

  ParallelContext capped{&pool_, 2};
  EXPECT_EQ(capped.Lanes(100), 2u);
  ParallelContext serial{&pool_, 1};
  EXPECT_EQ(serial.Lanes(100), 1u);
}

TEST_F(ParallelDeterminismTest, RunParallelVisitsEveryIndexOnce) {
  ParallelContext context{&pool_, 0};
  std::vector<std::atomic<int>> visits(257);
  size_t lanes = RunParallel(context, visits.size(), [&](size_t i) {
    visits[i].fetch_add(1);
  });
  EXPECT_GT(lanes, 1u);
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelDeterminismTest, RunParallelTalliesFanoutCounters) {
  std::atomic<uint64_t> fanouts{0};
  std::atomic<uint64_t> tasks{0};
  ExecControl control;
  control.parallel_fanouts = &fanouts;
  control.parallel_tasks = &tasks;

  ParallelContext context{&pool_, 0};
  RunParallel(context, 8, [](size_t) {}, &control);
  EXPECT_EQ(fanouts.load(), 1u);
  EXPECT_EQ(tasks.load(), 8u);

  // A serial context must not count: nothing fanned out.
  ParallelContext serial{&pool_, 1};
  RunParallel(serial, 8, [](size_t) {}, &control);
  EXPECT_EQ(fanouts.load(), 1u);
  EXPECT_EQ(tasks.load(), 8u);
}

// The tentpole guarantee: for every selector on every instance,
// parallel selections == serial selections, bit for bit (vector
// equality on indices, exact == on the objective double).
TEST_F(ParallelDeterminismTest, SelectorsBitIdenticalAcrossLaneCounts) {
  for (const std::string& name :
       {std::string("Crs"), std::string("CompaReSetS"),
        std::string("CompaReSetS+")}) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok()) << name;

    SelectorOptions serial = BaseOptions();
    serial.parallel = ParallelContext{&pool_, 1};
    SelectorOptions parallel = BaseOptions();
    parallel.parallel = ParallelContext{&pool_, 0};
    SelectorOptions empty = BaseOptions();  // No pool at all.

    for (size_t k = 0; k < workload_.num_instances(); ++k) {
      const InstanceVectors& vectors = workload_.vectors()[k];
      auto a = selector.value()->Select(vectors, serial);
      auto b = selector.value()->Select(vectors, parallel);
      auto c = selector.value()->Select(vectors, empty);
      ASSERT_TRUE(a.ok() && b.ok() && c.ok()) << name << " instance " << k;
      EXPECT_EQ(a.value().selections, b.value().selections)
          << name << " instance " << k;
      EXPECT_EQ(a.value().objective, b.value().objective)
          << name << " instance " << k;
      EXPECT_EQ(a.value().selections, c.value().selections)
          << name << " instance " << k;
      EXPECT_EQ(a.value().objective, c.value().objective)
          << name << " instance " << k;
    }
  }
}

// Extra sync rounds multiply the parallel round refits; the Jacobi
// propose + ordered commit must stay deterministic across all of them.
TEST_F(ParallelDeterminismTest, ExtraSyncRoundsBitIdentical) {
  auto selector = MakeSelector("CompaReSetS+");
  ASSERT_TRUE(selector.ok());
  SelectorOptions serial = BaseOptions();
  serial.extra_sync_rounds = 3;
  serial.parallel = ParallelContext{&pool_, 1};
  SelectorOptions parallel = serial;
  parallel.parallel = ParallelContext{&pool_, 0};

  for (size_t k = 0; k < workload_.num_instances(); ++k) {
    const InstanceVectors& vectors = workload_.vectors()[k];
    auto a = selector.value()->Select(vectors, serial);
    auto b = selector.value()->Select(vectors, parallel);
    ASSERT_TRUE(a.ok() && b.ok()) << "instance " << k;
    EXPECT_EQ(a.value().selections, b.value().selections) << "instance " << k;
    EXPECT_EQ(a.value().objective, b.value().objective) << "instance " << k;
  }
}

TEST_F(ParallelDeterminismTest, SimilarityGraphParallelMatchesSerial) {
  auto selector = MakeSelector("CompaReSetS+");
  ASSERT_TRUE(selector.ok());
  for (size_t k = 0; k < workload_.num_instances(); ++k) {
    const InstanceVectors& vectors = workload_.vectors()[k];
    auto solved = selector.value()->Select(vectors, BaseOptions());
    ASSERT_TRUE(solved.ok());
    const std::vector<Selection>& selections = solved.value().selections;

    SimilarityGraph serial =
        BuildSimilarityGraph(vectors, selections, 1.0, 0.1);
    auto parallel = BuildSimilarityGraph(vectors, selections, 1.0, 0.1,
                                         ParallelContext{&pool_, 0}, nullptr);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel.value().num_vertices(), serial.num_vertices());
    for (size_t i = 0; i < serial.num_vertices(); ++i) {
      for (size_t j = 0; j < serial.num_vertices(); ++j) {
        EXPECT_EQ(parallel.value().weight(i, j), serial.weight(i, j))
            << "instance " << k << " edge (" << i << "," << j << ")";
      }
    }
  }
}

// The scheduling class is a runtime control, exactly like the lane cap:
// a solve fanned out at batch priority over a work-stealing pool must
// return the same bits as interactive at every lane count. Lane work is
// claimed by atomic index, merged in index order — which worker (or
// which steal) ran a lane never reaches the result.
TEST_F(ParallelDeterminismTest, BitIdenticalAcrossPrioritiesAndLanes) {
  const RequestPriority priorities[] = {RequestPriority::kInteractive,
                                        RequestPriority::kBatch};
  const size_t lane_caps[] = {1, 2, 4};
  for (const std::string& name :
       {std::string("Crs"), std::string("CompaReSetS"),
        std::string("CompaReSetS+")}) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok()) << name;

    SelectorOptions reference = BaseOptions();
    reference.parallel = ParallelContext{&pool_, 1};

    for (size_t k = 0; k < workload_.num_instances(); ++k) {
      const InstanceVectors& vectors = workload_.vectors()[k];
      auto want = selector.value()->Select(vectors, reference);
      ASSERT_TRUE(want.ok()) << name << " instance " << k;
      for (RequestPriority priority : priorities) {
        for (size_t lanes : lane_caps) {
          SelectorOptions options = BaseOptions();
          options.parallel = ParallelContext{&pool_, lanes, priority};
          auto got = selector.value()->Select(vectors, options);
          ASSERT_TRUE(got.ok())
              << name << " instance " << k << " lanes " << lanes << " "
              << RequestPriorityName(priority);
          EXPECT_EQ(got.value().selections, want.value().selections)
              << name << " instance " << k << " lanes " << lanes << " "
              << RequestPriorityName(priority);
          EXPECT_EQ(got.value().objective, want.value().objective)
              << name << " instance " << k << " lanes " << lanes << " "
              << RequestPriorityName(priority);
        }
      }
    }
  }
}

// Workers check the shared control at their iteration boundaries: a
// request cancelled before the sweep must come back kCancelled from the
// parallel path exactly as from the serial one.
TEST_F(ParallelDeterminismTest, CancellationSurfacesFromParallelSweep) {
  CancelToken cancel;
  cancel.Cancel();
  ExecControl control;
  control.cancel = &cancel;

  for (const std::string& name :
       {std::string("Crs"), std::string("CompaReSetS"),
        std::string("CompaReSetS+")}) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok()) << name;
    SelectorOptions options = BaseOptions();
    options.parallel = ParallelContext{&pool_, 0};
    auto result =
        selector.value()->Select(workload_.vectors()[0], options, &control);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << name;
  }
}

TEST_F(ParallelDeterminismTest, DeadlineSurfacesFromParallelGraphBuild) {
  auto selector = MakeSelector("CompaReSetS");
  ASSERT_TRUE(selector.ok());
  auto solved = selector.value()->Select(workload_.vectors()[0], BaseOptions());
  ASSERT_TRUE(solved.ok());

  Deadline expired(1e-9);
  ExecControl control;
  control.deadline = &expired;
  auto graph = BuildSimilarityGraph(
      workload_.vectors()[0], solved.value().selections, 1.0, 0.1,
      ParallelContext{&pool_, 0}, &control);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace comparesets
