#include "service/router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "service/backend.h"

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

std::unique_ptr<ShardRouter> MakeRouter(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    RouterOptions options = {}) {
  options.engine.threads = 1;
  auto router = ShardRouter::Create(std::move(corpus), num_shards,
                                    std::move(options));
  router.status().CheckOK();
  return std::move(router).value();
}

/// One known target id per shard, from the full corpus's enumeration.
std::vector<std::string> TargetPerShard(const IndexedCorpus& full,
                                        const ShardRouter& router) {
  std::vector<std::string> targets(router.num_shards());
  for (const ProblemInstance& instance : full.instances()) {
    const std::string& id = instance.target().id;
    size_t shard = router.ShardForTarget(id);
    if (targets[shard].empty()) targets[shard] = id;
  }
  for (const std::string& target : targets) EXPECT_FALSE(target.empty());
  return targets;
}

SelectRequest RequestFor(const std::string& target_id) {
  SelectRequest request;
  request.target_id = target_id;
  request.selector = "CompaReSetS";
  return request;
}

TEST(ShardRouterTest, EveryTargetMapsToExactlyTheShardOwningItsRange) {
  auto full = MakeCorpus(80);
  auto router = MakeRouter(full, 3);
  const std::vector<std::string>& bounds = router->bounds();
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(router->ShardForTarget(""), 0u);  // Key-space origin.
  EXPECT_EQ(router->ShardForTarget("zzzz-no-such-id"), 2u);  // Past the end.
  EXPECT_EQ(router->ShardForTarget(bounds[1]), 1u);  // Bound is inclusive.
  for (const ProblemInstance& instance : full->instances()) {
    size_t shard = router->ShardForTarget(instance.target().id);
    EXPECT_TRUE(router->shard_engine(shard).corpus()->shard().range.Contains(
        instance.target().id));
  }
}

TEST(ShardRouterTest, UnknownTargetFailsLikeASingleEngine) {
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2);
  auto response = router->Select(RequestFor("no-such-product"));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST(ShardRouterTest, DownShardRefusesOnlyItsRange) {
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2);
  auto targets = TargetPerShard(*full, *router);

  router->SetShardState(0, ShardState::kDown).CheckOK();
  auto down = router->Select(RequestFor(targets[0]));
  ASSERT_FALSE(down.ok());
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);
  // The refusal names the affected range so operators know the blast
  // radius from the error alone.
  EXPECT_NE(down.status().message().find("shard 0"), std::string::npos)
      << down.status();
  EXPECT_NE(down.status().message().find("down"), std::string::npos);

  // The other range keeps serving.
  auto up = router->Select(RequestFor(targets[1]));
  ASSERT_TRUE(up.ok()) << up.status();

  // Batches fail only the down shard's slots, in request order.
  auto batch = router->SelectBatch(
      {RequestFor(targets[1]), RequestFor(targets[0])});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[1].status().code(), StatusCode::kUnavailable);

  router->SetShardState(0, ShardState::kServing).CheckOK();
  EXPECT_TRUE(router->Select(RequestFor(targets[0])).ok());
}

TEST(ShardRouterTest, SetShardStateValidatesItsArguments) {
  auto router = MakeRouter(MakeCorpus(60), 2);
  EXPECT_EQ(router->SetShardState(5, ShardState::kDown).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router->SetShardState(0, ShardState::kSwapping).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, RouteFaultFailsTheRequestBeforeAnyEngineSeesIt) {
  FaultPlan plan;
  plan.route.fail_first = 1;
  RouterOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2, std::move(options));
  auto targets = TargetPerShard(*full, *router);

  auto faulted = router->Select(RequestFor(targets[0]));
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_TRUE(router->shard_engine(s).Traces().empty());
  }
  // One scripted failure dealt; the next roll routes normally.
  EXPECT_TRUE(router->Select(RequestFor(targets[0])).ok());
}

TEST(ShardRouterTest, GatherFaultFailsExactlyThatShardsSubBatch) {
  FaultPlan plan;
  plan.gather.fail_first = 1;
  RouterOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2, std::move(options));
  auto targets = TargetPerShard(*full, *router);

  // 1-lane router: gather tasks run serially in shard order, so the
  // single scripted fault lands on shard 0's task.
  auto batch = router->SelectBatch({RequestFor(targets[0]),
                                    RequestFor(targets[1]),
                                    RequestFor(targets[0])});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].status().code(), StatusCode::kInternal);
  EXPECT_EQ(batch[2].status().code(), StatusCode::kInternal);
  ASSERT_TRUE(batch[1].ok()) << batch[1].status();
  // Shard 0's engine never saw its sub-batch.
  EXPECT_TRUE(router->shard_engine(0).Traces().empty());
  EXPECT_EQ(router->shard_engine(1).Traces().size(), 1u);
}

TEST(ShardRouterTest, DeadlineExpiringMidGatherCancelsRemainingShardWork) {
  FaultPlan plan;
  plan.gather.delay_rate = 1.0;      // Every gather task sleeps...
  plan.gather.delay_seconds = 0.05;  // ...past every request's budget.
  RouterOptions options;
  options.fault_injector = std::make_shared<FaultInjector>(plan);
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2, std::move(options));
  auto targets = TargetPerShard(*full, *router);

  std::vector<SelectRequest> requests = {RequestFor(targets[0]),
                                         RequestFor(targets[1])};
  for (SelectRequest& request : requests) request.deadline_seconds = 0.01;
  auto batch = router->SelectBatch(requests);
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& response : batch) {
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(response.status().message().find("before gather dispatch"),
              std::string::npos)
        << response.status();
  }
  // Expired requests were dropped at the router — no engine burned a
  // solve on work whose caller had already given up.
  for (size_t s = 0; s < router->num_shards(); ++s) {
    EXPECT_TRUE(router->shard_engine(s).Traces().empty());
  }
}

// The tentpole's cache-locality claim: swapping ONE shard bumps only
// that shard's epoch, and the other shards' memo/vector caches keep
// serving warm hits afterwards. Inside the swapped shard the
// per-instance rule holds: re-publishing the same catalog (whose
// products the new snapshot shares) keeps its entries warm under the
// new epoch, while a freshly generated catalog carries nothing.
TEST(ShardRouterTest, PerShardSwapKeepsOtherShardsWarm) {
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2);
  auto targets = TargetPerShard(*full, *router);

  // Warm both shards (cold solve + memo fill).
  for (const std::string& target : targets) {
    auto cold = router->Select(RequestFor(target));
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_FALSE(cold.value().result_cache_hit);
  }

  Status swapped = router->SwapShardCorpus(0, full);
  ASSERT_TRUE(swapped.ok()) << swapped;
  auto statuses = router->ShardStatuses();
  EXPECT_EQ(statuses[0].corpus_epoch, 1u);
  EXPECT_EQ(statuses[1].corpus_epoch, 0u);
  EXPECT_EQ(statuses[0].state, ShardState::kServing);

  // Same catalog, same Product objects: shard 0's entry moved to the
  // new epoch, so the repeat is a memo hit there.
  auto carried = router->Select(RequestFor(targets[0]));
  ASSERT_TRUE(carried.ok()) << carried.status();
  EXPECT_TRUE(carried.value().result_cache_hit);
  EXPECT_EQ(carried.value().trace.corpus_epoch, 1u);

  // Same ids, freshly generated products: nothing carries, the repeat
  // re-solves against the new catalog.
  ASSERT_TRUE(router->SwapShardCorpus(0, MakeCorpus(60, /*seed=*/7)).ok());
  auto resolved = router->Select(RequestFor(targets[0]));
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_FALSE(resolved.value().result_cache_hit);
  EXPECT_FALSE(resolved.value().cache_hit);

  // Shard 1 never moved: its memo still answers whole.
  auto warm = router->Select(RequestFor(targets[1]));
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm.value().result_cache_hit);
  EXPECT_EQ(warm.value().solve_seconds, 0.0);
  VectorCacheStats stats = router->shard_engine(1).CacheStats();
  EXPECT_EQ(stats.misses, 1u);  // Only the cold solve; nothing re-prepared.
  EXPECT_GE(stats.entries, 1u);
}

TEST(ShardRouterTest, SwapStressOnlyTouchesTheSwappedShard) {
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 3);
  auto targets = TargetPerShard(*full, *router);
  for (const std::string& target : targets) {
    ASSERT_TRUE(router->Select(RequestFor(target)).ok());
  }
  // Hammer shard 1 with swaps; shards 0 and 2 must stay warm throughout.
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(router->SwapShardCorpus(1, full).ok());
    auto warm0 = router->Select(RequestFor(targets[0]));
    auto warm2 = router->Select(RequestFor(targets[2]));
    ASSERT_TRUE(warm0.ok());
    ASSERT_TRUE(warm2.ok());
    EXPECT_TRUE(warm0.value().result_cache_hit);
    EXPECT_TRUE(warm2.value().result_cache_hit);
  }
  EXPECT_EQ(router->ShardStatuses()[1].corpus_epoch, 4u);
  EXPECT_EQ(router->ShardStatuses()[0].corpus_epoch, 0u);
}

TEST(ShardRouterTest, FailedSwapKeepsTheOldSnapshotAndState) {
  FaultPlan plan;
  plan.corpus_swap.fail_first = 1;
  RouterOptions options;
  options.engine.fault_injector = std::make_shared<FaultInjector>(plan);
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2, std::move(options));
  auto targets = TargetPerShard(*full, *router);
  ASSERT_TRUE(router->Select(RequestFor(targets[0])).ok());

  Status failed = router->SwapShardCorpus(0, full);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  auto statuses = router->ShardStatuses();
  // Epoch unchanged, state restored, and the old snapshot still serves
  // (warm, even: the memo survived the failed swap).
  EXPECT_EQ(statuses[0].corpus_epoch, 0u);
  EXPECT_EQ(statuses[0].state, ShardState::kServing);
  auto warm = router->Select(RequestFor(targets[0]));
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm.value().result_cache_hit);

  // The scripted fault is spent; the retry swap lands.
  ASSERT_TRUE(router->SwapShardCorpus(0, full).ok());
  EXPECT_EQ(router->ShardStatuses()[0].corpus_epoch, 1u);
}

// SwapShardCorpus and ApplyShardDelta share one publication routine
// and so one kSwapping state machine: a failed publication restores
// whatever state the shard had (kDown here, not just kServing), a
// successful one revives it, and the untouched shard's memo stays warm
// throughout.
TEST(ShardRouterTest, PublicationRestoresPriorStateAndRevivesOnSuccess) {
  FaultPlan plan;
  plan.corpus_swap.fail_first = 2;
  RouterOptions options;
  options.engine.fault_injector = std::make_shared<FaultInjector>(plan);
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2, std::move(options));
  auto targets = TargetPerShard(*full, *router);
  ASSERT_TRUE(router->Select(RequestFor(targets[1])).ok());

  router->SetShardState(0, ShardState::kDown).CheckOK();
  std::shared_ptr<const IndexedCorpus> slice = router->shard_engine(0).corpus();
  EXPECT_EQ(router->ApplyShardDelta(0, slice, 3).code(), StatusCode::kInternal);
  EXPECT_EQ(router->SwapShardCorpus(0, full).code(), StatusCode::kInternal);
  auto statuses = router->ShardStatuses();
  EXPECT_EQ(statuses[0].state, ShardState::kDown);
  EXPECT_EQ(statuses[0].corpus_epoch, 0u);
  EXPECT_EQ(router->shard_engine(0).ingested_reviews(), 0u);

  // The scripted faults are spent: the delta lands and revives shard 0.
  ASSERT_TRUE(router->ApplyShardDelta(0, slice, 3).ok());
  ASSERT_TRUE(router->SwapShardCorpus(0, full).ok());
  statuses = router->ShardStatuses();
  EXPECT_EQ(statuses[0].state, ShardState::kServing);
  EXPECT_EQ(statuses[0].corpus_epoch, 2u);
  EXPECT_EQ(statuses[1].corpus_epoch, 0u);
  EXPECT_EQ(router->shard_engine(0).ingested_reviews(), 3u);
  EXPECT_TRUE(router->Select(RequestFor(targets[0])).ok());
  auto warm = router->Select(RequestFor(targets[1]));
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm.value().result_cache_hit);

  // engine.corpus_swaps counts every publication; delta_applies only
  // those that carried streamed reviews.
  std::string dump = router->DumpMetrics();
  for (const char* line :
       {"counter router.shard_delta_failures 1\n",
        "counter router.shard_swap_failures 1\n",
        "counter router.shard_deltas 1\n", "counter router.shard_swaps 1\n",
        "counter engine.corpus_swap_failures 2\n",
        "counter engine.corpus_swaps 2\n", "counter engine.delta_applies 1\n",
        "counter engine.ingest_reviews_applied 3\n"}) {
    EXPECT_NE(dump.find(line), std::string::npos) << line << dump;
  }
}

// CreateLocalBackends is the one place shard engines are built, so every
// admission knob must reach the shared pipeline — the batch budget
// included, or a fleet silently sheds batch work at max_queue.
TEST(ShardRouterTest, LocalFleetCarriesTheConfiguredBatchBudget) {
  EngineOptions engine_options;
  engine_options.threads = 1;
  engine_options.max_queue = 64;
  engine_options.max_batch_queue = 5;
  for (size_t num_shards : {1u, 3u}) {
    auto local = CreateLocalBackends(MakeCorpus(60), num_shards, engine_options);
    ASSERT_TRUE(local.ok()) << local.status();
    ASSERT_EQ(local.value().backends.size(), num_shards);
    for (const auto& backend : local.value().backends) {
      auto* shard = dynamic_cast<LocalShardBackend*>(backend.get());
      ASSERT_NE(shard, nullptr);
      EXPECT_EQ(shard->engine().pipeline()->configured_batch_queue(), 5u);
    }
    RouterOptions options;
    options.engine = engine_options;
    auto router = MakeRouter(MakeCorpus(60), num_shards, options);
    EXPECT_EQ(router->pipeline()->configured_batch_queue(), 5u);
  }
}

/// A shard behind a transport that cannot be reached: probes fail, and
/// there is no in-process engine to publish into.
class UnreachableBackend : public ShardBackend {
 public:
  Result<SelectResponse> Select(const SelectRequest&) override {
    return Status::Unavailable("unreachable");
  }
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) override {
    return std::vector<Result<SelectResponse>>(
        requests.size(), Status::Unavailable("unreachable"));
  }
  Result<ShardStatus> Probe() override {
    return Status::Unavailable("unreachable");
  }
  std::string name() const override { return "test:unreachable"; }
};

TEST(ShardRouterTest, RemoteShardsReportFailedProbesAndRefusePublication) {
  auto full = MakeCorpus(60);
  auto local = CreateLocalBackends(full, 2, EngineOptions{});
  ASSERT_TRUE(local.ok()) << local.status();
  std::vector<std::string> bounds = local.value().bounds;
  std::vector<std::unique_ptr<ShardBackend>> backends;
  backends.push_back(std::move(local.value().backends[0]));
  backends.push_back(std::make_unique<UnreachableBackend>());
  auto router = ShardRouter::Create(bounds, std::move(backends));
  ASSERT_TRUE(router.ok()) << router.status();

  router.value()->SetShardState(1, ShardState::kDown).CheckOK();
  std::vector<ShardStatus> statuses = router.value()->ShardStatuses();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ready);
  EXPECT_FALSE(statuses[1].ready);
  EXPECT_EQ(statuses[1].shard_id, 1u);
  EXPECT_EQ(statuses[1].range.begin, bounds[1]);
  EXPECT_EQ(statuses[1].state, ShardState::kDown);

  Status refused = router.value()->ApplyShardDelta(1, full, 1);
  EXPECT_EQ(refused.code(), StatusCode::kNotImplemented) << refused;
  EXPECT_NE(refused.message().find("test:unreachable"), std::string::npos);
  EXPECT_EQ(router.value()->SwapShardCorpus(1, full).code(),
            StatusCode::kNotImplemented);
  EXPECT_EQ(router.value()->ShardStatuses()[1].state, ShardState::kDown);
  EXPECT_EQ(router.value()->WaitReady(0.0).code(), StatusCode::kTimeout);
}

TEST(ShardRouterTest, SwapValidatesItsArguments) {
  auto router = MakeRouter(MakeCorpus(60), 2);
  EXPECT_EQ(router->SwapShardCorpus(9, MakeCorpus(60)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router->SwapShardCorpus(0, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, TracesCarryTheOwningShardId) {
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2);
  auto targets = TargetPerShard(*full, *router);
  ASSERT_TRUE(router->Select(RequestFor(targets[1])).ok());
  std::vector<RequestTrace> traces = router->Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].shard_id, 1u);
  EXPECT_EQ(traces[0].corpus_epoch, 0u);
  EXPECT_NE(router->DumpTraces().find("\"shard_id\":1"), std::string::npos);
}

TEST(ShardRouterTest, PrometheusExportLabelsEveryShard) {
  auto full = MakeCorpus(60);
  auto router = MakeRouter(full, 2);
  auto targets = TargetPerShard(*full, *router);
  ASSERT_TRUE(router->Select(RequestFor(targets[0])).ok());
  ASSERT_TRUE(router->Select(RequestFor(targets[1])).ok());
  std::string out = router->RenderPrometheus();
  EXPECT_NE(out.find("router_requests_total 2\n"), std::string::npos) << out;
  EXPECT_NE(out.find("engine_requests_total{shard=\"0\"} 1\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("engine_requests_total{shard=\"1\"} 1\n"),
            std::string::npos);
  // One family header for the per-shard samples, not one per shard.
  EXPECT_EQ(out.find("# TYPE engine_requests_total counter"),
            out.rfind("# TYPE engine_requests_total counter"));
}

/// This process's thread count, read once it holds still: a thread
/// that was just joined can stay listed in /proc/self/task a moment.
size_t SettledThreadCount() {
  auto count = [] {
    size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  size_t last = count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    size_t now = count();
    if (now == last) return now;
    last = now;
  }
  return last;
}

// One pool per serving process: a router over N in-process shards with
// engine.threads = T starts exactly T workers — the router's scatter
// and every shard engine share them — and joins them all when it goes.
TEST(ShardRouterTest, LocalFleetStartsOnePoolOfEngineThreads) {
  auto full = MakeCorpus(60);
  const size_t before = SettledThreadCount();
  {
    RouterOptions options;
    options.engine.threads = 2;
    auto router = ShardRouter::Create(full, 4, options);
    ASSERT_TRUE(router.ok()) << router.status();
    EXPECT_EQ(SettledThreadCount(), before + 2);

    // The shared workers serve a batch spanning every shard.
    std::vector<SelectRequest> requests;
    for (const std::string& target : TargetPerShard(*full, *router.value())) {
      requests.push_back(RequestFor(target));
    }
    for (const auto& response : router.value()->SelectBatch(requests)) {
      EXPECT_TRUE(response.ok()) << response.status();
    }
    EXPECT_EQ(SettledThreadCount(), before + 2);
  }
  EXPECT_EQ(SettledThreadCount(), before);
}

}  // namespace
}  // namespace comparesets
