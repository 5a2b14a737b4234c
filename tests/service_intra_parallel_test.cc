// Engine-level contract of intra-request parallelism
// (docs/execution-model.md): every request, lone or inside a pooled
// SelectBatch, fans its internal work out on the engine's one pool, and
// every configuration returns bit-identical responses. Also pins the new observability:
// solver.intra_parallel_* counters, trace fields, and span timings.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/runner.h"
#include "service/engine.h"

namespace comparesets {
namespace {

std::shared_ptr<const IndexedCorpus> TestCorpus() {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 24;
  config.max_instances = 6;
  config.seed = 11;
  static Workload workload = Workload::BuildSynthetic(config).ValueOrDie();
  return workload.indexed_corpus();
}

std::vector<std::string> InstanceTargets(size_t count) {
  auto corpus = TestCorpus();
  std::vector<std::string> targets;
  for (const ProblemInstance& instance : corpus->instances()) {
    if (targets.size() >= count) break;
    targets.push_back(instance.target().id);
  }
  return targets;
}

SelectRequest MakeRequest(const std::string& target,
                          const std::string& selector = "CompaReSetS+") {
  SelectRequest request;
  request.target_id = target;
  request.selector = selector;
  request.options.m = 3;
  return request;
}

EngineOptions FastOptions() {
  EngineOptions options;
  options.measure_alignment = false;  // Irrelevant here; keep tests fast.
  return options;
}

TEST(ServiceIntraParallelTest, SelectBitIdenticalAcrossIntraThreadSettings) {
  for (const std::string& selector :
       {std::string("Crs"), std::string("CompaReSetS"),
        std::string("CompaReSetS+")}) {
    EngineOptions serial_options = FastOptions();
    serial_options.threads = 3;
    serial_options.max_intra_request_threads = 1;
    SelectionEngine serial_engine(TestCorpus(), serial_options);

    EngineOptions parallel_options = FastOptions();
    parallel_options.threads = 3;
    parallel_options.max_intra_request_threads = 0;  // Whole pool.
    SelectionEngine parallel_engine(TestCorpus(), parallel_options);

    for (const std::string& target : InstanceTargets(4)) {
      auto a = serial_engine.Select(MakeRequest(target, selector));
      auto b = parallel_engine.Select(MakeRequest(target, selector));
      ASSERT_TRUE(a.ok()) << selector << " " << target;
      ASSERT_TRUE(b.ok()) << selector << " " << target;
      EXPECT_EQ(a.value().selections, b.value().selections)
          << selector << " " << target;
      EXPECT_EQ(a.value().objective, b.value().objective)
          << selector << " " << target;
    }
  }
}

TEST(ServiceIntraParallelTest, LoneSelectFansOutAndCountsIt) {
  EngineOptions options = FastOptions();
  options.threads = 3;
  options.result_capacity = 0;  // No memo: every Select really solves.
  SelectionEngine engine(TestCorpus(), options);

  auto response = engine.Select(MakeRequest(InstanceTargets(1)[0]));
  ASSERT_TRUE(response.ok());
  // The instance has > 1 item and the pool has workers, so the per-item
  // sweep must have fanned out at least once (bootstrap + sync round
  // for CompaReSetS+) and tallied more tasks than fan-outs.
  EXPECT_GT(response.value().trace.intra_parallel_fanouts, 0u);
  EXPECT_GT(response.value().trace.intra_parallel_tasks,
            response.value().trace.intra_parallel_fanouts);

  // Spans name the solver phases; CompaReSetS+ records its bootstrap
  // item sweep and at least one sync round.
  bool saw_items = false;
  bool saw_round = false;
  for (const TraceSpan& span : response.value().trace.spans) {
    if (span.name == "compare_sets.items") saw_items = true;
    if (span.name == "compare_sets_plus.round") saw_round = true;
    EXPECT_GE(span.seconds, 0.0) << span.name;
  }
  EXPECT_TRUE(saw_items);
  EXPECT_TRUE(saw_round);

  // The registry aggregates the same tallies.
  std::string metrics = engine.DumpMetrics();
  EXPECT_NE(metrics.find("solver.intra_parallel_fanouts"), std::string::npos);
  EXPECT_NE(metrics.find("solver.intra_parallel_tasks"), std::string::npos);
}

TEST(ServiceIntraParallelTest, MemoHitSkipsSolveButTraceStaysFresh) {
  EngineOptions options = FastOptions();
  options.threads = 3;
  SelectionEngine engine(TestCorpus(), options);
  std::string target = InstanceTargets(1)[0];

  auto first = engine.Select(MakeRequest(target));
  ASSERT_TRUE(first.ok());
  auto second = engine.Select(MakeRequest(target));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().result_cache_hit);
  EXPECT_EQ(second.value().selections, first.value().selections);
  // No solve ran, so the memo hit's trace reports no fan-out.
  EXPECT_EQ(second.value().trace.intra_parallel_fanouts, 0u);
  EXPECT_TRUE(second.value().trace.spans.empty());
}

// One pool, one context: requests inside a pooled batch fan their
// per-item work out on the same pool the batch fans out on (nested
// ParallelFor on one pool always finishes), and every payload matches
// the lone Select's.
TEST(ServiceIntraParallelTest, PooledBatchRequestsFanOutInside) {
  EngineOptions options = FastOptions();
  options.threads = 3;
  options.result_capacity = 0;
  SelectionEngine engine(TestCorpus(), options);

  std::vector<SelectRequest> requests;
  for (const std::string& target : InstanceTargets(4)) {
    requests.push_back(MakeRequest(target));
  }
  auto responses = engine.SelectBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << "request " << i;
    EXPECT_GT(responses[i].value().trace.intra_parallel_fanouts, 0u)
        << "request " << i;
    auto lone = engine.Select(requests[i]);
    ASSERT_TRUE(lone.ok()) << "request " << i;
    EXPECT_EQ(responses[i].value().selections, lone.value().selections)
        << "request " << i;
    EXPECT_EQ(responses[i].value().objective, lone.value().objective)
        << "request " << i;
  }
}

// A single-threaded engine runs batch requests inline, one at a time —
// so each request may still lend the idle pool to its internal fan-out.
TEST(ServiceIntraParallelTest, InlineBatchStillFansOutIntraRequest) {
  EngineOptions options = FastOptions();
  options.threads = 1;
  options.result_capacity = 0;
  SelectionEngine engine(TestCorpus(), options);

  std::vector<SelectRequest> requests;
  for (const std::string& target : InstanceTargets(2)) {
    requests.push_back(MakeRequest(target));
  }
  auto responses = engine.SelectBatch(requests);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << "request " << i;
    EXPECT_GT(responses[i].value().trace.intra_parallel_fanouts, 0u)
        << "request " << i;
  }
}

// Contention stress: batch fan-out and intra-request fan-out share the
// one pool across repeated rounds; responses must stay bit-identical to
// the single-request answers every time (races here are exactly what
// ASan/TSan runs of this test exist to catch).
TEST(ServiceIntraParallelTest, RepeatedNestedBatchesStayDeterministic) {
  EngineOptions options = FastOptions();
  options.threads = 2;
  options.result_capacity = 0;
  SelectionEngine engine(TestCorpus(), options);

  std::vector<std::string> targets = InstanceTargets(3);
  std::vector<SelectRequest> requests;
  for (const std::string& target : targets) {
    requests.push_back(MakeRequest(target));
    requests.push_back(MakeRequest(target, "CompaReSetS"));
  }

  // Reference answers from lone Selects (whole pool to each request).
  std::vector<std::vector<Selection>> expected;
  for (const SelectRequest& request : requests) {
    auto response = engine.Select(request);
    ASSERT_TRUE(response.ok());
    expected.push_back(response.value().selections);
  }

  for (int round = 0; round < 100; ++round) {
    auto responses = engine.SelectBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << "round " << round << " request " << i;
      ASSERT_EQ(responses[i].value().selections, expected[i])
          << "round " << round << " request " << i;
    }
  }
}

// Cancellation must land inside the parallel sweep and surface as
// kCancelled, with the engine still healthy afterwards.
TEST(ServiceIntraParallelTest, CancellationMidParallelSweepSurfaces) {
  EngineOptions options = FastOptions();
  options.threads = 3;
  options.result_capacity = 0;
  SelectionEngine engine(TestCorpus(), options);
  std::string target = InstanceTargets(1)[0];

  CancelToken cancel;
  cancel.Cancel();
  SelectRequest request = MakeRequest(target);
  request.cancel = &cancel;
  auto cancelled = engine.Select(request);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // Deadline expiry inside the fan-out behaves the same way.
  SelectRequest expired = MakeRequest(target);
  expired.deadline_seconds = 1e-9;
  auto timed_out = engine.Select(expired);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  // The pool survives the aborted sweeps: a clean request still works.
  auto healthy = engine.Select(MakeRequest(target));
  ASSERT_TRUE(healthy.ok());
}

}  // namespace
}  // namespace comparesets
