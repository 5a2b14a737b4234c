// The sharding regression oracle: a ShardRouter over N range shards
// must answer bit-identically to one SelectionEngine over the whole
// corpus. Shards hold exact slices of the same instance enumeration and
// every selector is a pure function of (vectors, options), so routing
// is pure dispatch — any divergence here means the partitioner changed
// instance content or the router changed request semantics.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "data/synthetic.h"
#include "service/router.h"

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

void ExpectSameRouge(const RougeScore& got, const RougeScore& want) {
  EXPECT_EQ(got.precision, want.precision);
  EXPECT_EQ(got.recall, want.recall);
  EXPECT_EQ(got.f1, want.f1);
}

void ExpectSameTriple(const RougeTriple& got, const RougeTriple& want) {
  ExpectSameRouge(got.rouge1, want.rouge1);
  ExpectSameRouge(got.rouge2, want.rouge2);
  ExpectSameRouge(got.rougeL, want.rougeL);
}

/// Bit-for-bit payload equality, plus (by default) the cache flags — a
/// router must not just compute the same answer but hit the same warm
/// paths. `check_flags = false` compares payloads only: on a pooled
/// engine a target repeated under other options races its siblings,
/// so its warm-state flags depend on scheduling while the payloads
/// stay bit-identical.
void ExpectSameResponse(const Result<SelectResponse>& got,
                        const Result<SelectResponse>& want,
                        const std::string& where, bool check_flags = true) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": " << got.status() << " vs " << want.status();
  if (!want.ok()) {
    // Full Status equality (code AND message): routing must not leak
    // into user-visible errors.
    EXPECT_TRUE(got.status() == want.status())
        << where << ": " << got.status() << " vs " << want.status();
    return;
  }
  const SelectResponse& g = got.value();
  const SelectResponse& w = want.value();
  EXPECT_EQ(g.target_id, w.target_id) << where;
  EXPECT_EQ(g.item_ids, w.item_ids) << where;
  EXPECT_EQ(g.selections, w.selections) << where;
  EXPECT_EQ(g.objective, w.objective) << where;
  // Exact-floor streams: every answer is full-quality on both sides,
  // proving the tier refactor left the default path untouched.
  EXPECT_EQ(g.tier, w.tier) << where;
  EXPECT_EQ(g.objective_gap, w.objective_gap) << where;
  EXPECT_EQ(g.tier, QualityTier::kExact) << where;
  EXPECT_EQ(g.objective_gap, 0.0) << where;
  ExpectSameTriple(g.alignment.target_vs_comparative,
                   w.alignment.target_vs_comparative);
  ExpectSameTriple(g.alignment.among_items, w.alignment.among_items);
  EXPECT_EQ(g.alignment.target_pairs, w.alignment.target_pairs) << where;
  EXPECT_EQ(g.alignment.among_pairs, w.alignment.among_pairs) << where;
  if (check_flags) {
    EXPECT_EQ(g.cache_hit, w.cache_hit) << where;
    EXPECT_EQ(g.result_cache_hit, w.result_cache_hit) << where;
  }
}

/// A mixed request stream exercising every response shape: several
/// selectors, exact repeats (memo hits), explicit comparative sets,
/// and both failure kinds (unknown target, empty target).
std::vector<SelectRequest> MixedStream(const IndexedCorpus& corpus) {
  std::vector<SelectRequest> requests;
  const std::vector<ProblemInstance>& instances = corpus.instances();
  const char* selectors[] = {"CompaReSetS", "CompaReSetS+", "CompaReSetSGreedy"};
  for (size_t i = 0; i < 9 && i < instances.size(); ++i) {
    SelectRequest request;
    request.target_id = instances[i].target().id;
    request.selector = selectors[i % 3];
    requests.push_back(request);
  }
  // Exact repeats of the first three — served whole from the memo, so
  // the flags must match too.
  for (size_t i = 0; i < 3; ++i) requests.push_back(requests[i]);
  // An explicit comparative set drawn from a real instance.
  SelectRequest explicit_set;
  explicit_set.target_id = instances[0].target().id;
  explicit_set.comparative_ids = {instances[0].items[1]->id,
                                  instances[0].items[2]->id};
  explicit_set.selector = "CompaReSetS";
  requests.push_back(explicit_set);
  // Failures: unknown and empty targets must fail identically.
  SelectRequest unknown;
  unknown.target_id = "no-such-product";
  requests.push_back(unknown);
  requests.push_back(SelectRequest{});
  return requests;
}

/// The catalog every RouterDeterminismTest instance serves (immutable,
/// so built once).
std::shared_ptr<const IndexedCorpus> SuiteCorpus() {
  static const std::shared_ptr<const IndexedCorpus> corpus = MakeCorpus(80);
  return corpus;
}

/// The serial single engine's answers for one scenario, computed on
/// first use and shared by every (shards, threads) instance: the
/// reference depends on none of the parameters.
const std::vector<Result<SelectResponse>>& ReferenceAnswers(
    const std::string& scenario,
    const std::function<std::vector<Result<SelectResponse>>()>& compute) {
  static std::map<std::string, std::vector<Result<SelectResponse>>> answers;
  auto it = answers.find(scenario);
  if (it == answers.end()) it = answers.emplace(scenario, compute()).first;
  return it->second;
}

/// (shards, pool threads). The reference is always a serial single
/// engine; the router runs its scatter, the shard batches and each
/// request's fan-out on one pool of `threads` workers. Only a 1-thread
/// pool runs requests in the serial order that fixes the warm-state
/// flags, so wider pools compare payloads and Statuses only.
class RouterDeterminismTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t shards() const { return std::get<0>(GetParam()); }
  size_t threads() const { return std::get<1>(GetParam()); }
  bool check_flags() const { return threads() == 1; }

  /// A router over `shards()` shards on a `threads()`-worker pool,
  /// otherwise configured like `engine_options`.
  std::unique_ptr<ShardRouter> MakeRouter(EngineOptions engine_options) const {
    RouterOptions router_options;
    router_options.engine = engine_options;
    router_options.engine.threads = threads();
    auto router = ShardRouter::Create(SuiteCorpus(), shards(), router_options);
    router.status().CheckOK();
    return std::move(router).value();
  }
};

TEST_P(RouterDeterminismTest, SelectMatchesTheSingleEngine) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  std::vector<SelectRequest> requests = MixedStream(*SuiteCorpus());
  const auto& want = ReferenceAnswers("select", [&] {
    SelectionEngine reference(SuiteCorpus(), engine_options);
    std::vector<Result<SelectResponse>> answers;
    for (const SelectRequest& request : requests) {
      answers.push_back(reference.Select(request));
    }
    return answers;
  });
  auto router = MakeRouter(engine_options);
  ASSERT_EQ(router->num_shards(), shards());

  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(router->Select(requests[i]), want[i],
                       "Select target=" + requests[i].target_id,
                       check_flags());
  }
}

TEST_P(RouterDeterminismTest, SelectBatchMatchesTheSingleEngine) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  std::vector<SelectRequest> requests = MixedStream(*SuiteCorpus());
  const auto& want = ReferenceAnswers("batch", [&] {
    return SelectionEngine(SuiteCorpus(), engine_options).SelectBatch(requests);
  });
  auto router = MakeRouter(engine_options);

  std::vector<Result<SelectResponse>> got = router->SelectBatch(requests);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(got[i], want[i],
                       "batch[" + std::to_string(i) +
                           "] target=" + requests[i].target_id,
                       check_flags());
  }
}

TEST_P(RouterDeterminismTest, PriorityClassIsPayloadInvisible) {
  // The scheduling class is a runtime control like deadline/cancel: it
  // decides who waits, never what is computed. A stream stamped kBatch
  // answers bit-identically to the same stream stamped kInteractive —
  // and to an engine configured not to demote batches at all.
  EngineOptions engine_options;
  engine_options.threads = 1;
  const RequestPriority priorities[] = {RequestPriority::kInteractive,
                                        RequestPriority::kBatch};
  std::vector<std::vector<SelectRequest>> streams;
  for (RequestPriority priority : priorities) {
    streams.push_back(MixedStream(*SuiteCorpus()));
    for (SelectRequest& request : streams.back()) request.priority = priority;
  }
  // Both streams through one reference engine, one batch after the
  // other, answers concatenated.
  const auto& want = ReferenceAnswers("priority", [&] {
    SelectionEngine reference(SuiteCorpus(), engine_options);
    std::vector<Result<SelectResponse>> answers;
    for (const std::vector<SelectRequest>& stream : streams) {
      for (auto& answer : reference.SelectBatch(stream)) {
        answers.push_back(std::move(answer));
      }
    }
    return answers;
  });
  auto router = MakeRouter(engine_options);
  EngineOptions fifo_options = engine_options;
  fifo_options.batch_priority = RequestPriority::kInteractive;
  auto fifo_router = MakeRouter(fifo_options);

  size_t offset = 0;
  for (const std::vector<SelectRequest>& requests : streams) {
    std::vector<Result<SelectResponse>> got = router->SelectBatch(requests);
    std::vector<Result<SelectResponse>> fifo =
        fifo_router->SelectBatch(requests);
    ASSERT_EQ(got.size(), requests.size());
    ASSERT_EQ(fifo.size(), requests.size());
    ASSERT_LE(offset + requests.size(), want.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const std::string where =
          std::string(RequestPriorityName(requests[i].priority)) + " batch[" +
          std::to_string(i) + "] target=" + requests[i].target_id;
      ExpectSameResponse(got[i], want[offset + i], where, check_flags());
      ExpectSameResponse(fifo[i], want[offset + i], "fifo " + where,
                         check_flags());
    }
    offset += requests.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByThreads, RouterDeterminismTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

TEST(PooledBatchTest, PooledBatchCoalescesExactRepeats) {
  // On a pooled engine, exact repeats run behind their head on its
  // lane, so they deterministically memo-hit instead of racing.
  // Payloads still match the serial reference.
  auto corpus = MakeCorpus(80);
  EngineOptions serial_options;
  serial_options.threads = 1;
  SelectionEngine reference(corpus, serial_options);
  EngineOptions pooled_options;
  pooled_options.threads = 2;
  SelectionEngine pooled(corpus, pooled_options);

  std::vector<SelectRequest> requests = MixedStream(*corpus);
  std::vector<Result<SelectResponse>> want = reference.SelectBatch(requests);
  std::vector<Result<SelectResponse>> got = pooled.SelectBatch(requests);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(got[i], want[i],
                       "pooled-batch[" + std::to_string(i) + "]",
                       /*check_flags=*/false);
  }
  // MixedStream indices 9..11 repeat 0..2 exactly.
  for (size_t i = 9; i < 12; ++i) {
    ASSERT_TRUE(got[i].ok());
    EXPECT_TRUE(got[i].value().result_cache_hit)
        << "repeat " << i << " must memo-hit its head";
  }
}

}  // namespace
}  // namespace comparesets
