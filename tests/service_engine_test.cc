#include "service/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "eval/alignment.h"
#include "eval/runner.h"
#include "opinion/vectors.h"

namespace comparesets {
namespace {

std::shared_ptr<const IndexedCorpus> MakeCorpus(size_t products,
                                                uint64_t seed = 42) {
  auto config = DefaultConfig("Cellphone", products);
  config.status().CheckOK();
  config.value().seed = seed;
  auto corpus = GenerateCorpus(config.value());
  corpus.status().CheckOK();
  return IndexedCorpus::Build(std::move(corpus).value()).ValueOrDie();
}

SelectRequest RequestFor(const IndexedCorpus& corpus, size_t instance,
                         const std::string& selector = "CompaReSetS") {
  SelectRequest request;
  request.target_id = corpus.instances()[instance].target().id;
  request.selector = selector;
  return request;
}

TEST(SelectionEngineTest, SelectAnswersKnownTarget) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  auto response = engine.Select(RequestFor(*corpus, 0));
  ASSERT_TRUE(response.ok()) << response.status();
  const SelectResponse& r = response.value();
  EXPECT_EQ(r.target_id, corpus->instances()[0].target().id);
  EXPECT_EQ(r.item_ids.size(), corpus->instances()[0].num_items());
  EXPECT_EQ(r.selections.size(), r.item_ids.size());
  for (const Selection& s : r.selections) {
    EXPECT_GE(s.size(), 1u);
    EXPECT_LE(s.size(), 3u);  // Default m.
  }
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GT(r.prepare_seconds, 0.0);
  EXPECT_GT(r.alignment.among_pairs, 0u);
}

TEST(SelectionEngineTest, UnknownSelectorReturnsStatus) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request = RequestFor(*corpus, 0, "Frobnicator");
  auto response = engine.Select(request);
  EXPECT_FALSE(response.ok());
}

TEST(SelectionEngineTest, UnknownTargetReturnsNotFound) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request;
  request.target_id = "no-such-product";
  auto response = engine.Select(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);

  SelectRequest empty;
  EXPECT_EQ(engine.Select(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SelectionEngineTest, ExplicitComparativeSet) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  const ProblemInstance& instance = corpus->instances()[0];

  SelectRequest request;
  request.target_id = instance.target().id;
  request.comparative_ids = {instance.items[1]->id, instance.items[2]->id};
  auto response = engine.Select(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().item_ids.size(), 3u);
  EXPECT_EQ(response.value().item_ids[1], instance.items[1]->id);

  request.comparative_ids = {"no-such-product"};
  EXPECT_EQ(engine.Select(request).status().code(), StatusCode::kNotFound);

  request.comparative_ids = {instance.target().id};
  EXPECT_EQ(engine.Select(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SelectionEngineTest, RepeatedQueryHitsCacheWithIdenticalResult) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request = RequestFor(*corpus, 0, "CompaReSetS+");

  auto cold = engine.Select(request);
  auto warm = engine.Select(request);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(cold.value().cache_hit);
  EXPECT_FALSE(cold.value().result_cache_hit);
  // An exact repeat is served whole from the result memo (no solve, no
  // vector-cache traffic).
  EXPECT_TRUE(warm.value().cache_hit);
  EXPECT_TRUE(warm.value().result_cache_hit);
  EXPECT_EQ(warm.value().solve_seconds, 0.0);
  EXPECT_EQ(cold.value().selections, warm.value().selections);
  EXPECT_EQ(cold.value().objective, warm.value().objective);

  VectorCacheStats stats = engine.CacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  // Same instance, one SelectorOptions field changed at a time: the memo
  // misses (every field is part of its key) while the prepared vectors
  // are reused.
  const SelectRequest base = request;
  std::vector<std::pair<const char*, SelectRequest>> variants;
  auto vary = [&](const char* field, auto&& mutate) {
    SelectRequest variant = base;
    mutate(variant.options);
    variants.emplace_back(field, std::move(variant));
  };
  vary("m", [](SelectorOptions& o) { o.m = 2; });
  vary("lambda", [](SelectorOptions& o) { o.lambda = 0.5; });
  vary("mu", [](SelectorOptions& o) { o.mu = 0.25; });
  vary("seed", [](SelectorOptions& o) { o.seed = 8; });
  vary("extra_sync_rounds", [](SelectorOptions& o) { o.extra_sync_rounds = 1; });
  vary("min_tier", [](SelectorOptions& o) { o.min_tier = QualityTier::kAnytime; });
  vary("sample_threshold", [](SelectorOptions& o) { o.sample_threshold = 1000; });
  vary("sample_size", [](SelectorOptions& o) { o.sample_size = 1000; });
  uint64_t vector_hits = engine.CacheStats().hits;
  for (const auto& [field, variant] : variants) {
    auto vector_warm = engine.Select(variant);
    ASSERT_TRUE(vector_warm.ok()) << field << ": " << vector_warm.status();
    EXPECT_TRUE(vector_warm.value().cache_hit) << field;
    EXPECT_FALSE(vector_warm.value().result_cache_hit) << field;
    EXPECT_EQ(engine.CacheStats().hits, ++vector_hits) << field;
  }
}

TEST(SelectionEngineTest, HugeBudgetAnswersLikeTheLargestReviewCount) {
  // m arrives on the wire as a u64; a budget past every item's review
  // count must answer at once, exactly as the largest count does.
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  const ProblemInstance& instance = corpus->instances()[0];
  size_t largest = 0;
  for (size_t i = 0; i < instance.num_items(); ++i) {
    largest = std::max(largest, instance.items[i]->reviews.size());
  }
  for (const char* selector : {"Crs", "CompaReSetS", "CompaReSetS+"}) {
    SelectRequest huge = RequestFor(*corpus, 0, selector);
    huge.options.m = SIZE_MAX;
    SelectRequest bounded = huge;
    bounded.options.m = largest;
    auto got = engine.Select(huge);
    auto want = engine.Select(bounded);
    ASSERT_TRUE(got.ok()) << selector << ": " << got.status();
    ASSERT_TRUE(want.ok()) << selector << ": " << want.status();
    EXPECT_EQ(got.value().selections, want.value().selections) << selector;
    EXPECT_EQ(got.value().objective, want.value().objective) << selector;
  }
}

TEST(SelectionEngineTest, ResultMemoCanBeDisabled) {
  auto corpus = MakeCorpus(60);
  EngineOptions options;
  options.result_capacity = 0;
  SelectionEngine engine(corpus, options);
  SelectRequest request = RequestFor(*corpus, 0);

  auto cold = engine.Select(request);
  auto warm = engine.Select(request);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_FALSE(warm.value().result_cache_hit);
  EXPECT_TRUE(warm.value().cache_hit);  // The vector cache still serves.
  EXPECT_EQ(cold.value().selections, warm.value().selections);
  EXPECT_EQ(cold.value().objective, warm.value().objective);
}

TEST(SelectionEngineTest, ResultMemoEvictsAtCapacity) {
  auto corpus = MakeCorpus(80);
  EngineOptions options;
  options.result_capacity = 1;
  SelectionEngine engine(corpus, options);
  ASSERT_GE(corpus->num_instances(), 2u);
  SelectRequest first = RequestFor(*corpus, 0);
  SelectRequest second = RequestFor(*corpus, 1);

  ASSERT_TRUE(engine.Select(first).ok());
  ASSERT_TRUE(engine.Select(second).ok());  // Evicts `first` (capacity 1).

  auto again = engine.Select(first);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().result_cache_hit);
  EXPECT_TRUE(again.value().cache_hit);  // Vectors survived in their cache.
  EXPECT_TRUE(engine.Select(first).value().result_cache_hit);
  // Both evictions are counted: `second` evicted `first`, and the
  // re-solve of `first` evicted `second`.
  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.result_evictions 2\n"),
            std::string::npos)
      << dump;
}

TEST(SelectionEngineTest, BatchMatchesSequentialSelects) {
  auto corpus = MakeCorpus(80);
  EngineOptions options;
  options.threads = 4;
  SelectionEngine engine(corpus, options);

  std::vector<SelectRequest> requests;
  size_t n = std::min<size_t>(corpus->num_instances(), 8);
  for (size_t i = 0; i < n; ++i) {
    for (const char* selector : {"Crs", "CompaReSetS", "CompaReSetS+"}) {
      requests.push_back(RequestFor(*corpus, i, selector));
    }
  }
  // One bad request must not poison the batch.
  SelectRequest bad;
  bad.target_id = "no-such-product";
  requests.push_back(bad);

  std::vector<Result<SelectResponse>> batch = engine.SelectBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  EXPECT_FALSE(batch.back().ok());

  for (size_t i = 0; i + 1 < requests.size(); ++i) {
    auto sequential = engine.Select(requests[i]);
    ASSERT_TRUE(batch[i].ok()) << batch[i].status();
    ASSERT_TRUE(sequential.ok());
    EXPECT_EQ(batch[i].value().selections, sequential.value().selections)
        << "request " << i;
    EXPECT_EQ(batch[i].value().objective, sequential.value().objective);
    EXPECT_EQ(batch[i].value().item_ids, sequential.value().item_ids);
  }
}

TEST(SelectionEngineTest, SwapCorpusInvalidatesCacheAndServesNewCatalog) {
  auto old_corpus = MakeCorpus(60, /*seed=*/42);
  SelectionEngine engine(old_corpus);
  SelectRequest request = RequestFor(*old_corpus, 0);
  ASSERT_TRUE(engine.Select(request).ok());
  EXPECT_EQ(engine.CacheStats().entries, 1u);

  // Same generator config, different seed: same id space, different
  // reviews — a stale vector entry would silently answer from the old
  // catalog.
  auto new_corpus = MakeCorpus(60, /*seed=*/7);
  ASSERT_TRUE(engine.Publish(new_corpus, 0).ok());
  EXPECT_EQ(engine.corpus(), new_corpus);
  EXPECT_EQ(engine.CacheStats().entries, 0u);
  // Freshly generated products share nothing with the old snapshot, so
  // the vector entry and the memo entry are both dropped.
  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.publish_carried 0\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("counter engine.publish_dropped 2\n"),
            std::string::npos)
      << dump;

  auto response = engine.Select(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response.value().cache_hit);  // Rebuilt, not stale.

  // And the rebuilt entry reflects the new snapshot's review set.
  auto reference = SelectionEngine(new_corpus).Select(request);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(response.value().selections, reference.value().selections);
  EXPECT_EQ(response.value().objective, reference.value().objective);
}

TEST(SelectionEngineTest, CacheEvictionRespectsCapacity) {
  auto corpus = MakeCorpus(80);
  EngineOptions options;
  options.cache_capacity = 2;
  SelectionEngine engine(corpus, options);
  size_t n = std::min<size_t>(corpus->num_instances(), 4);
  ASSERT_GE(n, 3u);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(engine.Select(RequestFor(*corpus, i)).ok());
  }
  VectorCacheStats stats = engine.CacheStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, n - 2);
}

TEST(SelectionEngineTest, MetricsDumpCoversRequestCounters) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request = RequestFor(*corpus, 0);
  ASSERT_TRUE(engine.Select(request).ok());
  ASSERT_TRUE(engine.Select(request).ok());

  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.requests 2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("counter engine.cache_misses 1"), std::string::npos);
  EXPECT_NE(dump.find("counter engine.result_hits 1"), std::string::npos);
  EXPECT_NE(dump.find("counter engine.result_misses 1"), std::string::npos);
  EXPECT_NE(dump.find("histogram engine.solve_seconds"), std::string::npos);
  EXPECT_NE(dump.find("gauge cache.entries 1"), std::string::npos);
  EXPECT_NE(dump.find("gauge result_cache.entries 1"), std::string::npos);
}

/// Observations of engine.alignment_seconds so far (0 before the first).
uint64_t AlignmentCount(const SelectionEngine& engine) {
  for (const auto& [name, histogram] : engine.SnapshotMetrics().histograms) {
    if (name == "engine.alignment_seconds") return histogram.count;
  }
  return 0;
}

TEST(SelectionEngineTest, AlignmentIsTimedOncePerSolvedAnswer) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request = RequestFor(*corpus, 0);
  EXPECT_EQ(AlignmentCount(engine), 0u);
  auto miss = engine.Select(request);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss.value().result_cache_hit);
  EXPECT_EQ(AlignmentCount(engine), 1u);
  // A memo hit replays the stored alignment; nothing is measured.
  auto hit = engine.Select(request);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit.value().result_cache_hit);
  EXPECT_EQ(AlignmentCount(engine), 1u);

  EngineOptions options;
  options.measure_alignment = false;
  SelectionEngine unmeasured(corpus, options);
  auto solved = unmeasured.Select(request);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_FALSE(solved.value().result_cache_hit);
  EXPECT_EQ(solved.value().alignment.among_pairs, 0u);
  EXPECT_EQ(AlignmentCount(unmeasured), 0u);
}

/// Value of counter `name` (0 when it was never touched).
uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

double GaugeValue(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [gauge, value] : snapshot.gauges) {
    if (gauge == name) return value;
  }
  return 0.0;
}

size_t SelectedReviews(const SelectResponse& response) {
  size_t total = 0;
  for (const Selection& selection : response.selections) {
    total += selection.size();
  }
  return total;
}

TEST(SelectionEngineTest, AlignmentDocumentsAreBuiltOncePerReview) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request = RequestFor(*corpus, 0, "CompaReSetS+");
  auto first = engine.Select(request);
  ASSERT_TRUE(first.ok()) << first.status();
  MetricsSnapshot cold = engine.SnapshotMetrics();
  EXPECT_EQ(CounterValue(cold, "engine.alignment_docs_built"),
            SelectedReviews(first.value()));
  EXPECT_EQ(CounterValue(cold, "engine.alignment_docs_reused"), 0u);

  // Same instance, another μ: the vector cache hits, the result memo
  // misses, and every review both answers selected is reused.
  request.options.mu = 0.3;
  auto second = engine.Select(request);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_FALSE(second.value().result_cache_hit);
  MetricsSnapshot warm = engine.SnapshotMetrics();
  uint64_t built = CounterValue(warm, "engine.alignment_docs_built") -
                   CounterValue(cold, "engine.alignment_docs_built");
  uint64_t reused = CounterValue(warm, "engine.alignment_docs_reused");
  EXPECT_EQ(built + reused, SelectedReviews(second.value()));
  EXPECT_GT(reused, 0u);

  // The built documents and blocks count toward the cache footprint.
  EngineOptions unmeasured_options;
  unmeasured_options.measure_alignment = false;
  SelectionEngine unmeasured(corpus, unmeasured_options);
  ASSERT_TRUE(unmeasured.Select(request).ok());
  EXPECT_GT(GaugeValue(engine.SnapshotMetrics(), "cache.approx_bytes"),
            GaugeValue(unmeasured.SnapshotMetrics(), "cache.approx_bytes"));
}

TEST(SelectionEngineTest, ConcurrentAlignmentFromTheMemoIsBitIdentical) {
  // Several callers solve one target at different λ and μ at once, so
  // they fill one instance's document memo and item blocks together;
  // every alignment must still equal the one-off measurement, bit for
  // bit. (Runs under the TSan leg of tools/check.sh.)
  auto corpus = MakeCorpus(60);
  EngineOptions options;
  options.result_capacity = 0;  // Every request solves and aligns.
  SelectionEngine engine(corpus, options);
  const ProblemInstance& instance = corpus->instances()[0];
  constexpr size_t kCallers = 4;
  constexpr size_t kPerCaller = 6;
  std::vector<std::vector<SelectResponse>> answers(kCallers);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t k = 0; k < kPerCaller; ++k) {
        SelectRequest request = RequestFor(*corpus, 0, "CompaReSetS+");
        request.options.lambda = 0.5 + 0.5 * static_cast<double>(c % 3);
        request.options.mu = 0.05 * static_cast<double>(1 + k + c);
        auto response = engine.Select(request);
        if (response.ok()) answers[c].push_back(std::move(response).value());
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  size_t checked = 0;
  for (const auto& per_caller : answers) {
    ASSERT_EQ(per_caller.size(), kPerCaller);
    for (const SelectResponse& response : per_caller) {
      AlignmentScores expected =
          MeasureAlignment(instance, response.selections);
      EXPECT_EQ(std::memcmp(&response.alignment, &expected,
                            sizeof(AlignmentScores)),
                0);
      ++checked;
    }
  }
  EXPECT_EQ(checked, kCallers * kPerCaller);
}

// Acceptance parity: over a 240-product synthetic workload, the batched
// engine path must reproduce the pre-refactor RunSelector results for
// every selector, bit for bit.
TEST(SelectionEngineTest, MatchesRunSelectorOver240ProductWorkload) {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 240;
  config.max_instances = 20;
  auto workload = Workload::BuildSynthetic(config);
  ASSERT_TRUE(workload.ok()) << workload.status();

  EngineOptions engine_options;
  engine_options.threads = 2;
  engine_options.cache_capacity = 64;
  SelectionEngine engine(workload.value().indexed_corpus(), engine_options);

  for (const std::string& name : AllSelectorNames()) {
    SelectorOptions options;
    options.m = 3;
    auto selector = MakeSelector(name).ValueOrDie();
    auto reference = RunSelector(*selector, workload.value(), options);
    ASSERT_TRUE(reference.ok()) << reference.status();

    std::vector<SelectRequest> requests;
    for (size_t i = 0; i < workload.value().num_instances(); ++i) {
      SelectRequest request;
      request.target_id = workload.value().instances()[i].target().id;
      request.selector = name;
      request.options = options;
      requests.push_back(std::move(request));
    }
    std::vector<Result<SelectResponse>> responses =
        engine.SelectBatch(requests);
    ASSERT_EQ(responses.size(), reference.value().results.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << responses[i].status();
      EXPECT_EQ(responses[i].value().selections,
                reference.value().results[i].selections)
          << name << " instance " << i;
      EXPECT_EQ(responses[i].value().objective,
                reference.value().results[i].objective)
          << name << " instance " << i;
    }
  }
}

// Acceptance: a 1ms-deadline request fails fast with kDeadlineExceeded
// (the deadline trips inside the NOMP/NNLS iteration checks, it does
// not hang a worker), while the identical request without a deadline
// still produces the selections a bare selector run yields, bit for
// bit — the control plumbing must not perturb the numerics.
TEST(SelectionEngineTest, DeadlineExpiryFailsFastAndCleanRequestIsExact) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);

  SelectRequest request = RequestFor(*corpus, 0, "CompaReSetS+");
  request.deadline_seconds = 0.001;
  auto expired = engine.Select(request);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  request.deadline_seconds = 0.0;
  auto clean = engine.Select(request);
  ASSERT_TRUE(clean.ok()) << clean.status();
  // A failed attempt must never have been memoized.
  EXPECT_FALSE(clean.value().result_cache_hit);

  auto selector = MakeSelector("CompaReSetS+").ValueOrDie();
  OpinionModel model = OpinionModel::Binary(corpus->num_aspects());
  InstanceVectors vectors =
      BuildInstanceVectors(model, corpus->instances()[0]);
  auto reference = selector->Select(vectors, request.options);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(clean.value().selections, reference.value().selections);
  EXPECT_EQ(clean.value().objective, reference.value().objective);

  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.deadline_exceeded 1"),
            std::string::npos)
      << dump;
}

TEST(SelectionEngineTest, PreCancelledRequestReturnsCancelled) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  CancelToken cancel;
  cancel.Cancel();

  SelectRequest request = RequestFor(*corpus, 0);
  request.cancel = &cancel;
  auto response = engine.Select(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
}

// Cancellation racing a SelectBatch must leave the engine's warm state
// consistent: every response is either ok or kCancelled, and re-issuing
// the batch afterwards (caches now populated by whichever requests
// finished) still reproduces a fresh engine's answers exactly.
TEST(SelectionEngineTest, CancellationDuringBatchLeavesCachesUncorrupted) {
  auto corpus = MakeCorpus(80);
  EngineOptions options;
  options.threads = 2;
  SelectionEngine engine(corpus, options);

  size_t n = std::min<size_t>(corpus->num_instances(), 6);
  CancelToken cancel;
  std::vector<SelectRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    SelectRequest request = RequestFor(*corpus, i, "CompaReSetS+");
    request.cancel = &cancel;
    requests.push_back(std::move(request));
  }

  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cancel.Cancel();
  });
  std::vector<Result<SelectResponse>> racing = engine.SelectBatch(requests);
  canceller.join();
  for (const auto& response : racing) {
    if (!response.ok()) {
      EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
    }
  }

  // Clean re-run through the now part-warm engine vs a cold engine.
  for (SelectRequest& request : requests) request.cancel = nullptr;
  std::vector<Result<SelectResponse>> warm = engine.SelectBatch(requests);
  SelectionEngine cold_engine(corpus, options);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(warm[i].ok()) << warm[i].status();
    auto cold = cold_engine.Select(requests[i]);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(warm[i].value().selections, cold.value().selections) << i;
    EXPECT_EQ(warm[i].value().objective, cold.value().objective) << i;
  }
}

TEST(SelectionEngineTest, TransientFaultsAreRetriedWithBackoff) {
  auto corpus = MakeCorpus(60);
  FaultPlan plan;
  plan.cache_lookup.fail_first = 2;
  EngineOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  options.max_attempts = 3;
  options.retry_backoff_seconds = 0.0005;
  SelectionEngine engine(corpus, options);

  auto response = engine.Select(RequestFor(*corpus, 0));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response.value().trace.attempts, 3);
  EXPECT_GT(response.value().trace.backoff_seconds, 0.0);
  EXPECT_EQ(options.fault_injector->injected_errors(), 2u);

  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.retries 2"), std::string::npos) << dump;
}

TEST(SelectionEngineTest, TransientFaultsSurfaceAfterMaxAttempts) {
  auto corpus = MakeCorpus(60);
  FaultPlan plan;
  plan.cache_lookup.fail_first = 10;  // More than the engine will retry.
  EngineOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  options.max_attempts = 2;
  options.retry_backoff_seconds = 0.0005;
  SelectionEngine engine(corpus, options);

  auto response = engine.Select(RequestFor(*corpus, 0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInternal);
  EXPECT_NE(response.status().message().find("injected fault"),
            std::string::npos);
  EXPECT_EQ(options.fault_injector->injected_errors(), 2u);  // One per try.

  // The failure is traced with its attempt count.
  std::vector<RequestTrace> traces = engine.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].status, "internal");
  EXPECT_EQ(traces[0].attempts, 2);
}

TEST(SelectionEngineTest, OverloadReturnsResourceExhausted) {
  auto corpus = MakeCorpus(80);
  // Pin each solve at >= 50ms so concurrent requests pile up on the
  // single admission slot deterministically.
  FaultPlan plan;
  plan.solve.delay_rate = 1.0;
  plan.solve.delay_seconds = 0.05;
  EngineOptions options;
  options.threads = 4;
  options.max_in_flight = 1;
  options.max_queue = 0;  // No waiting room: overflow is refused.
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  SelectionEngine engine(corpus, options);

  size_t n = std::min<size_t>(corpus->num_instances(), 4);
  ASSERT_GE(n, 2u);
  std::vector<SelectRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    requests.push_back(RequestFor(*corpus, i));
  }
  std::vector<Result<SelectResponse>> responses = engine.SelectBatch(requests);

  size_t succeeded = 0, rejected = 0;
  for (const auto& response : responses) {
    if (response.ok()) {
      ++succeeded;
    } else {
      ASSERT_EQ(response.status().code(), StatusCode::kResourceExhausted)
          << response.status();
      ++rejected;
    }
  }
  EXPECT_GE(succeeded, 1u);
  EXPECT_GE(rejected, 1u);
  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.rejected"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram engine.queue_seconds"), std::string::npos);
}

TEST(SelectionEngineTest, OverloadDegradesToAnytimeWhenFloorAllows) {
  auto corpus = MakeCorpus(60);
  // One admission slot, no queue — and the test occupies the slot
  // out-of-band via the shared pipeline, so EVERY engine request is an
  // overload, deterministically (no timing, no thread races).
  PipelineOptions pipeline_options;
  pipeline_options.max_in_flight = 1;
  pipeline_options.max_queue = 0;
  auto pipeline = std::make_shared<RequestPipeline>(pipeline_options);
  EngineOptions options;
  options.pipeline = pipeline;
  SelectionEngine engine(corpus, options);

  Deadline unlimited(0.0);
  ASSERT_TRUE(pipeline->Admit(unlimited, nullptr).ok());

  // The pre-tier contract: an exact-floor request is refused.
  SelectRequest request = RequestFor(*corpus, 0);
  auto refused = engine.Select(request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // The same overload with the anytime floor answers with the greedy
  // incumbent instead of the rejection.
  request.options.min_tier = QualityTier::kAnytime;
  auto degraded = engine.Select(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded.value().tier, QualityTier::kAnytime);
  EXPECT_EQ(degraded.value().objective_gap, 0.0);
  EXPECT_EQ(degraded.value().trace.tier, "anytime");
  EXPECT_EQ(degraded.value().trace.status, "ok");
  std::string dump = engine.DumpMetrics();
  EXPECT_NE(dump.find("counter engine.degraded"), std::string::npos) << dump;
  EXPECT_NE(dump.find("counter engine.tier_anytime"), std::string::npos);

  // Degraded answers are never memoized: once the slot frees, the same
  // request solves exactly — the overload answer must not shadow it.
  pipeline->Release();
  auto exact = engine.Select(request);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_FALSE(exact.value().result_cache_hit);
  EXPECT_EQ(exact.value().tier, QualityTier::kExact);

  // The degraded selections were the greedy selector's, verbatim.
  SelectRequest greedy_request = RequestFor(*corpus, 0, "CompaReSetSGreedy");
  auto greedy = engine.Select(greedy_request);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  EXPECT_EQ(degraded.value().selections, greedy.value().selections);
}

TEST(SelectionEngineTest, EngineWideFloorDegradesExactRequests) {
  auto corpus = MakeCorpus(60);
  PipelineOptions pipeline_options;
  pipeline_options.max_in_flight = 1;
  pipeline_options.max_queue = 0;
  auto pipeline = std::make_shared<RequestPipeline>(pipeline_options);
  EngineOptions options;
  options.pipeline = pipeline;
  // Operator-set policy: this engine degrades under load even for
  // callers that did not opt in (LooserTier of the two floors rules).
  options.min_quality_tier = QualityTier::kAnytime;
  SelectionEngine engine(corpus, options);

  Deadline unlimited(0.0);
  ASSERT_TRUE(pipeline->Admit(unlimited, nullptr).ok());
  auto degraded = engine.Select(RequestFor(*corpus, 0));
  pipeline->Release();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded.value().tier, QualityTier::kAnytime);
}

TEST(SelectionEngineTest, QueuedRequestsAdmitAsSlotsFree) {
  auto corpus = MakeCorpus(80);
  EngineOptions options;
  options.threads = 3;
  options.max_in_flight = 1;
  options.max_queue = 8;  // Room for everyone: nobody is refused.
  SelectionEngine engine(corpus, options);

  size_t n = std::min<size_t>(corpus->num_instances(), 3);
  std::vector<SelectRequest> requests;
  for (size_t i = 0; i < n; ++i) {
    requests.push_back(RequestFor(*corpus, i));
  }
  std::vector<Result<SelectResponse>> responses = engine.SelectBatch(requests);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status();
  }
}

TEST(SelectionEngineTest, FaultInjectedSwapKeepsServingOldSnapshot) {
  auto old_corpus = MakeCorpus(60, /*seed=*/42);
  FaultPlan plan;
  plan.corpus_swap.fail_first = 1;
  EngineOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  SelectionEngine engine(old_corpus, options);
  ASSERT_TRUE(engine.Select(RequestFor(*old_corpus, 0)).ok());

  auto new_corpus = MakeCorpus(60, /*seed=*/7);
  Status swap = engine.Publish(new_corpus, 0);
  ASSERT_FALSE(swap.ok());
  EXPECT_EQ(swap.code(), StatusCode::kInternal);
  // Refused swap: old snapshot still serving, caches untouched.
  EXPECT_EQ(engine.corpus(), old_corpus);
  EXPECT_EQ(engine.CacheStats().entries, 1u);

  ASSERT_TRUE(engine.Publish(new_corpus, 0).ok());  // fail_first spent.
  EXPECT_EQ(engine.corpus(), new_corpus);
}

// A request that resolved against the old snapshot and stores its
// answer after Publish moved on stores it under the old epoch's key: the
// answer is never served for an instance the publication changed, while
// an instance the publication left alone stays warm.
TEST(SelectionEngineTest, StoreRacingPublishNeverServesAChangedInstance) {
  auto config = DefaultConfig("Cellphone", 60);
  config.status().CheckOK();
  Corpus base = GenerateCorpus(config.value()).ValueOrDie();
  base.Finalize();
  auto old_snapshot = IndexedCorpus::Build(base).ValueOrDie();
  SelectRequest changed = RequestFor(*old_snapshot, 0);

  // The new catalog: one more review on the changed request's target, a
  // fresh Product object; every other product is shared.
  Corpus grown = base;
  Product* target = grown.MutableProduct(grown.IndexOf(changed.target_id));
  Review extra = target->reviews[0];
  extra.id += "-again";
  target->reviews.push_back(extra);
  auto new_snapshot = IndexedCorpus::Build(std::move(grown)).ValueOrDie();
  ASSERT_NE(new_snapshot->FindProduct(changed.target_id),
            old_snapshot->FindProduct(changed.target_id));

  // An instance that does not hold the changed product.
  SelectRequest kept;
  for (const ProblemInstance& instance : old_snapshot->instances()) {
    if (std::none_of(instance.items.begin(), instance.items.end(),
                     [&](const Product* item) {
                       return item->id == changed.target_id;
                     })) {
      kept.target_id = instance.target().id;
      kept.selector = "CompaReSetS";
      break;
    }
  }
  ASSERT_FALSE(kept.target_id.empty());

  // Every solve sleeps first, holding a request between its prepare on
  // the old snapshot and its memo store.
  FaultPlan plan;
  plan.solve.delay_rate = 1.0;
  plan.solve.delay_seconds = 0.2;
  EngineOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  SelectionEngine engine(old_snapshot, options);
  ASSERT_TRUE(engine.Select(kept).ok());

  std::thread in_flight([&] {
    auto answer = engine.Select(changed);
    EXPECT_TRUE(answer.ok()) << answer.status();
    if (answer.ok()) {
      EXPECT_EQ(answer.value().trace.corpus_epoch, 0u);
    }
  });
  // Publish once the request has started preparing on the old snapshot.
  while (engine.CacheStats().misses < 2) std::this_thread::yield();
  ASSERT_TRUE(engine.Publish(new_snapshot, 1).ok());
  in_flight.join();

  auto fresh = engine.Select(changed);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(fresh.value().result_cache_hit);
  EXPECT_FALSE(fresh.value().cache_hit);
  EXPECT_EQ(fresh.value().trace.corpus_epoch, 1u);
  auto reference = SelectionEngine(new_snapshot).Select(changed);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(fresh.value().selections, reference.value().selections);
  EXPECT_EQ(fresh.value().objective, reference.value().objective);

  auto warm = engine.Select(kept);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm.value().result_cache_hit);
  EXPECT_EQ(warm.value().trace.corpus_epoch, 1u);
}

TEST(SelectionEngineTest, TracesRecordTheRequestLifecycle) {
  auto corpus = MakeCorpus(60);
  SelectionEngine engine(corpus);
  SelectRequest request = RequestFor(*corpus, 0);
  ASSERT_TRUE(engine.Select(request).ok());
  ASSERT_TRUE(engine.Select(request).ok());  // Memo hit.
  SelectRequest bad;
  bad.target_id = "no-such-product";
  ASSERT_FALSE(engine.Select(bad).ok());

  std::vector<RequestTrace> traces = engine.Traces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].request_id, 1u);
  EXPECT_EQ(traces[0].shard_id, 0u);       // Unsharded engine.
  EXPECT_EQ(traces[0].corpus_epoch, 0u);   // No swap has happened.
  EXPECT_EQ(traces[0].status, "ok");
  EXPECT_FALSE(traces[0].result_cache_hit);
  EXPECT_GT(traces[0].solver_iterations, 0u);
  EXPECT_GT(traces[0].total_seconds, 0.0);
  EXPECT_EQ(traces[1].request_id, 2u);
  EXPECT_TRUE(traces[1].result_cache_hit);
  EXPECT_EQ(traces[2].status, "not found");

  std::string jsonl = engine.DumpTraces();
  EXPECT_NE(jsonl.find("\"request_id\":1"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"shard_id\":0"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"corpus_epoch\":0"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"status\":\"not found\""), std::string::npos);
  // One line per request.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 3);
}

// corpus_epoch in traces tracks Publish, so a trace stream can be
// correlated with catalog swaps; shard_id comes from EngineOptions.
TEST(SelectionEngineTest, TracesCarryEpochAcrossSwapsAndConfiguredShardId) {
  auto corpus = MakeCorpus(60);
  EngineOptions options;
  options.shard_id = 3;
  SelectionEngine engine(corpus, options);
  SelectRequest request = RequestFor(*corpus, 0);

  EXPECT_EQ(engine.corpus_epoch(), 0u);
  ASSERT_TRUE(engine.Select(request).ok());
  ASSERT_TRUE(engine.Publish(MakeCorpus(60, /*seed=*/7), 0).ok());
  EXPECT_EQ(engine.corpus_epoch(), 1u);
  ASSERT_TRUE(engine.Select(request).ok());

  std::vector<RequestTrace> traces = engine.Traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].corpus_epoch, 0u);
  EXPECT_EQ(traces[1].corpus_epoch, 1u);
  EXPECT_EQ(traces[0].shard_id, 3u);
  EXPECT_EQ(traces[1].shard_id, 3u);
  std::string jsonl = engine.DumpTraces();
  EXPECT_NE(jsonl.find("\"corpus_epoch\":1"), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"shard_id\":3"), std::string::npos) << jsonl;
}

TEST(SelectionEngineTest, TraceRingEvictsOldestAtCapacity) {
  auto corpus = MakeCorpus(60);
  EngineOptions options;
  options.trace_capacity = 2;
  SelectionEngine engine(corpus, options);
  SelectRequest request = RequestFor(*corpus, 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Select(request).ok());
  }
  std::vector<RequestTrace> traces = engine.Traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].request_id, 3u);
  EXPECT_EQ(traces[1].request_id, 4u);
}

}  // namespace
}  // namespace comparesets
