// The transport oracle: the RPC serving path must be a bitwise no-op.
// For N ∈ {1, 2, 4} shards, a ShardRouter over RPC backends talking to real
// ShardServer processes-worth of state over Unix sockets must answer
// byte-identically — full payload, cache flags, and Status (code AND
// message) — to the in-process ShardRouter AND to one SelectionEngine
// over the whole corpus. The equality must survive injected transport
// faults (connect / send / recv), mid-gather deadline expiry, and
// hedged requests, because none of those may ever change WHAT is
// answered — only how the bytes got there.
//
// The servers here run in-process threads rather than forked children
// (tools_rpc_cli_test covers the multi-process topology end to end);
// the wire path — framing, serialization, socket I/O, pooling — is the
// real one either way.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "service/backend.h"
#include "service/router.h"
#include "util/timer.h"

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

/// Bit-for-bit payload + cache-flag + Status equality, as in the
/// in-process sharding oracle (service_router_determinism_test.cc).
/// Doubles compare with ==, so this checks IEEE-754 bit patterns after
/// a round trip through the wire codec.
void ExpectSameResponse(const Result<SelectResponse>& got,
                        const Result<SelectResponse>& want,
                        const std::string& where, bool check_flags = true) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": " << got.status() << " vs " << want.status();
  if (!want.ok()) {
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
  // The oracle streams run at the exact floor: the tier must survive
  // the wire round-trip and match the in-process answer on both sides.
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

/// Same mixed stream as the in-process oracle: several selectors, exact
/// repeats (memo hits), an explicit comparative set, and both failure
/// kinds.
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
  for (size_t i = 0; i < 3; ++i) requests.push_back(requests[i]);
  SelectRequest explicit_set;
  explicit_set.target_id = instances[0].target().id;
  explicit_set.comparative_ids = {instances[0].items[1]->id,
                                  instances[0].items[2]->id};
  explicit_set.selector = "CompaReSetS";
  requests.push_back(explicit_set);
  SelectRequest unknown;
  unknown.target_id = "no-such-product";
  requests.push_back(unknown);
  requests.push_back(SelectRequest{});
  return requests;
}

/// A fleet of shard servers over Unix sockets plus a ShardRouter
/// fronting them — the whole RPC stack, minus fork/exec.
struct RpcFixture {
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<ShardRouter> router;
  /// Borrowed pointers into router's backends, for stats.
  std::vector<RpcShardBackend*> rpc_backends;

  ~RpcFixture() {
    router.reset();  // Drop pooled connections before servers stop.
    for (auto& server : servers) {
      if (server) server->Shutdown();
    }
  }
};

/// Builds one server per shard (range slices of `corpus`), then an
/// ShardRouter of RpcShardBackends pointing at them.
std::unique_ptr<RpcFixture> StartFleet(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    const EngineOptions& engine_options, const std::string& socket_tag,
    std::shared_ptr<FaultInjector> client_faults = nullptr,
    std::shared_ptr<FaultInjector> router_faults = nullptr,
    int max_transport_attempts = 0) {
  auto local = CreateLocalBackends(corpus, num_shards, engine_options);
  local.status().CheckOK();

  auto fixture = std::make_unique<RpcFixture>();
  std::vector<std::unique_ptr<ShardBackend>> rpc_backends;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ShardServerOptions server_options;
    server_options.address = "unix:" + ::testing::TempDir() + "/oracle-" +
                             socket_tag + "-" + std::to_string(shard) + ".sock";
    auto server = ShardServer::Start(
        std::move(local.value().backends[shard]), server_options);
    server.status().CheckOK();

    RpcBackendOptions backend_options;
    backend_options.replicas = {server.value()->bound_address()};
    backend_options.shard_id = shard;
    backend_options.fault_injector = client_faults;
    backend_options.max_transport_attempts = max_transport_attempts;
    auto backend = RpcShardBackend::Create(backend_options);
    backend.status().CheckOK();
    fixture->rpc_backends.push_back(backend.value().get());
    rpc_backends.push_back(std::move(backend).value());
    fixture->servers.push_back(std::move(server).value());
  }

  RouterOptions router_options;
  router_options.engine.threads = 1;
  router_options.fault_injector = std::move(router_faults);
  auto router = ShardRouter::Create(
      std::move(local).value().bounds, std::move(rpc_backends), router_options);
  router.status().CheckOK();
  fixture->router = std::move(router).value();
  fixture->router->WaitReady(30.0).CheckOK();
  return fixture;
}

class TransportOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TransportOracleTest, RpcMatchesLocalRouterAndSingleEngine) {
  const size_t num_shards = GetParam();
  auto corpus = MakeCorpus(80);
  EngineOptions engine_options;
  engine_options.threads = 1;

  SelectionEngine reference(corpus, engine_options);
  RouterOptions router_options;
  router_options.engine = engine_options;
  auto local_router = ShardRouter::Create(corpus, num_shards, router_options);
  ASSERT_TRUE(local_router.ok()) << local_router.status();

  auto fleet = StartFleet(corpus, num_shards, engine_options,
                          "plain" + std::to_string(num_shards));
  ASSERT_EQ(fleet->router->num_shards(), num_shards);

  // Health first: every shard must expose its slice accurately.
  std::vector<Result<ShardStatus>> health;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    health.push_back(fleet->router->backend(shard).Probe());
  }
  size_t instances_total = 0;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    ASSERT_TRUE(health[shard].ok()) << health[shard].status();
    EXPECT_TRUE(health[shard].value().ready);
    EXPECT_EQ(health[shard].value().shard_id, shard);
    instances_total += health[shard].value().num_instances;
  }
  EXPECT_EQ(instances_total, corpus->instances().size());

  // One-at-a-time Selects: rpc == local router == single engine.
  for (const SelectRequest& request : MixedStream(*corpus)) {
    Result<SelectResponse> want = reference.Select(request);
    ExpectSameResponse(local_router.value()->Select(request), want,
                       "local Select target=" + request.target_id);
    ExpectSameResponse(fleet->router->Select(request), want,
                       "rpc Select target=" + request.target_id);
  }

  // Batch path: the request stream crosses the wire as one frame per
  // shard, so the in-order memo semantics inside each engine are
  // preserved exactly.
  auto fresh_corpus = MakeCorpus(80);
  SelectionEngine fresh_reference(fresh_corpus, engine_options);
  auto fresh_fleet = StartFleet(fresh_corpus, num_shards, engine_options,
                                "batch" + std::to_string(num_shards));
  std::vector<SelectRequest> requests = MixedStream(*fresh_corpus);
  std::vector<Result<SelectResponse>> want =
      fresh_reference.SelectBatch(requests);
  std::vector<Result<SelectResponse>> got =
      fresh_fleet->router->SelectBatch(requests);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(got[i], want[i],
                       "rpc batch[" + std::to_string(i) +
                           "] target=" + requests[i].target_id);
  }
}

TEST_P(TransportOracleTest, NonFiniteWeightsRefusedIdenticallyOnBothPaths) {
  // λ = NaN / μ = +inf travel bit-exact as doubles; the shard's selector
  // must refuse them with the same Status (code AND message) the
  // in-process router and a single engine return — never a NaN answer.
  const size_t num_shards = GetParam();
  auto corpus = MakeCorpus(60);
  EngineOptions engine_options;
  engine_options.threads = 1;
  SelectionEngine reference(corpus, engine_options);
  RouterOptions router_options;
  router_options.engine = engine_options;
  auto local_router = ShardRouter::Create(corpus, num_shards, router_options);
  ASSERT_TRUE(local_router.ok()) << local_router.status();
  auto fleet = StartFleet(corpus, num_shards, engine_options,
                          "nonfinite" + std::to_string(num_shards));

  std::vector<SelectRequest> requests;
  for (size_t i = 0; i < 2; ++i) {
    SelectRequest request;
    request.target_id = corpus->instances()[i].target().id;
    for (const std::string& selector : AllSelectorNames()) {
      request.selector = selector;
      request.options.lambda = std::numeric_limits<double>::quiet_NaN();
      requests.push_back(request);
      request.options.lambda = 1.0;
      request.options.mu = std::numeric_limits<double>::infinity();
      requests.push_back(request);
      request.options.mu = 0.1;
    }
  }
  for (const SelectRequest& request : requests) {
    Result<SelectResponse> want = reference.Select(request);
    ASSERT_FALSE(want.ok()) << request.selector;
    EXPECT_EQ(want.status().code(), StatusCode::kInvalidArgument);
    ExpectSameResponse(local_router.value()->Select(request), want,
                       "local Select selector=" + request.selector);
    ExpectSameResponse(fleet->router->Select(request), want,
                       "rpc Select selector=" + request.selector);
  }
  std::vector<Result<SelectResponse>> got = fleet->router->SelectBatch(requests);
  std::vector<Result<SelectResponse>> want = reference.SelectBatch(requests);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResponse(got[i], want[i], "rpc batch[" + std::to_string(i) + "]");
  }
}

TEST_P(TransportOracleTest, TransportFaultsNeverChangeAnswers) {
  const size_t num_shards = GetParam();
  auto corpus = MakeCorpus(60);
  EngineOptions engine_options;
  engine_options.threads = 1;
  SelectionEngine reference(corpus, engine_options);

  // Every transport seam fails a few times up front AND keeps failing
  // at a steady rate; with enough attempts budgeted, retry-to-replica
  // absorbs all of it and the payload equality must be untouched.
  FaultPlan plan;
  plan.seed = 7;
  plan.connect.fail_first = 2;
  plan.send.fail_first = 2;
  plan.send.error_rate = 0.2;
  plan.recv.fail_first = 2;
  plan.recv.error_rate = 0.2;
  auto injector = std::make_shared<FaultInjector>(plan);

  auto fleet = StartFleet(corpus, num_shards, engine_options,
                          "faults" + std::to_string(num_shards), injector,
                          nullptr, /*max_transport_attempts=*/64);

  // Payload + Status must match bit-for-bit. Warm-state flags are
  // deliberately NOT compared here: a recv fault fires AFTER the
  // request reached the server, so the retry re-executes it
  // (at-least-once delivery) and legitimately memo-hits state the
  // never-failed reference hasn't built yet. The answer's bytes are
  // identical either way — that is the transport guarantee.
  for (const SelectRequest& request : MixedStream(*corpus)) {
    ExpectSameResponse(fleet->router->Select(request),
                       reference.Select(request),
                       "faulted Select target=" + request.target_id,
                       /*check_flags=*/false);
  }
  EXPECT_GT(injector->injected_errors(), 0u);
  uint64_t retries = 0;
  for (RpcShardBackend* backend : fleet->rpc_backends) {
    retries += backend->transport_retries();
  }
  EXPECT_GT(retries, 0u);
}

TEST_P(TransportOracleTest, MidGatherDeadlineExpiryIsCanonicalOnBothPaths) {
  const size_t num_shards = GetParam();
  if (num_shards < 2) {
    GTEST_SKIP() << "needs >= 2 shards for a mid-gather expiry";
  }
  auto corpus = MakeCorpus(60);
  EngineOptions engine_options;
  engine_options.threads = 1;

  // Both routers sleep 50 ms at every gather seam under identical
  // plans; requests carry a 5 ms deadline. Serial gather order means
  // shard 0's sleep burns the budget, so every request bound for a
  // later shard is dropped pre-dispatch with the router's canonical
  // message — identically on the local and the RPC path.
  auto make_plan = [] {
    FaultPlan plan;
    plan.seed = 11;
    plan.gather.delay_rate = 1.0;
    plan.gather.delay_seconds = 0.05;
    return plan;
  };
  RouterOptions local_options;
  local_options.engine = engine_options;
  local_options.fault_injector = std::make_shared<FaultInjector>(make_plan());
  auto local_router = ShardRouter::Create(corpus, num_shards, local_options);
  ASSERT_TRUE(local_router.ok()) << local_router.status();

  auto fleet = StartFleet(corpus, num_shards, engine_options,
                          "deadline" + std::to_string(num_shards), nullptr,
                          std::make_shared<FaultInjector>(make_plan()));

  std::vector<SelectRequest> requests;
  for (const ProblemInstance& instance : corpus->instances()) {
    SelectRequest request;
    request.target_id = instance.target().id;
    request.deadline_seconds = 0.005;
    requests.push_back(request);
    if (requests.size() == 8) break;
  }

  std::vector<Result<SelectResponse>> want =
      local_router.value()->SelectBatch(requests);
  std::vector<Result<SelectResponse>> got = fleet->router->SelectBatch(requests);
  ASSERT_EQ(got.size(), want.size());
  size_t expired = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(got[i].ok(), want[i].ok()) << "deadline batch[" << i << "]";
    if (!want[i].ok()) {
      EXPECT_TRUE(got[i].status() == want[i].status())
          << got[i].status() << " vs " << want[i].status();
      if (want[i].status().code() == StatusCode::kDeadlineExceeded &&
          want[i].status().message().find(
              "deadline exceeded before gather dispatch to shard") !=
              std::string::npos) {
        ++expired;
      }
    }
  }
  // The scenario is only meaningful if the canonical expiry actually
  // fired; with a 50 ms sleep against a 5 ms budget it always does.
  EXPECT_GT(expired, 0u);
}

// Shard state is the router's, not the transport's: on a router over
// RPC backends, marking shard s down refuses exactly s's range with the
// same Status bytes the in-process router produces, every other range
// stays byte-identical, and the router.* counters tally the same. A
// snapshot cannot be published into a remote shard — that is a typed
// refusal, never a crash.
TEST_P(TransportOracleTest, DownShardRefusesOnlyItsRangeOnBothPaths) {
  const size_t num_shards = GetParam();
  auto corpus = MakeCorpus(60);
  EngineOptions engine_options;
  engine_options.threads = 1;
  RouterOptions local_options;
  local_options.engine = engine_options;
  auto local_router = ShardRouter::Create(corpus, num_shards, local_options);
  ASSERT_TRUE(local_router.ok()) << local_router.status();
  ShardRouter& local = *local_router.value();
  auto fleet = StartFleet(corpus, num_shards, engine_options,
                          "down" + std::to_string(num_shards));
  ShardRouter& rpc = *fleet->router;

  // Two targets per shard, so every range is exercised.
  std::vector<SelectRequest> requests;
  std::vector<size_t> per_shard(num_shards, 0);
  for (const ProblemInstance& instance : corpus->instances()) {
    size_t shard = local.ShardForTarget(instance.target().id);
    if (per_shard[shard] == 2) continue;
    ++per_shard[shard];
    SelectRequest request;
    request.target_id = instance.target().id;
    requests.push_back(request);
  }
  ASSERT_EQ(requests.size(), 2 * num_shards);

  size_t refused = 0;
  for (size_t down = 0; down < num_shards; ++down) {
    ASSERT_TRUE(local.SetShardState(down, ShardState::kDown).ok());
    ASSERT_TRUE(rpc.SetShardState(down, ShardState::kDown).ok());
    std::string round = "down=" + std::to_string(down);

    std::vector<Result<SelectResponse>> want_batch = local.SelectBatch(requests);
    std::vector<Result<SelectResponse>> got_batch = rpc.SelectBatch(requests);
    ASSERT_EQ(got_batch.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      bool in_down_range = local.ShardForTarget(requests[i].target_id) == down;
      Result<SelectResponse> want = local.Select(requests[i]);
      Result<SelectResponse> got = rpc.Select(requests[i]);
      ExpectSameResponse(got, want, round + " Select[" + std::to_string(i) +
                                        "]");
      ExpectSameResponse(got_batch[i], want_batch[i],
                         round + " batch[" + std::to_string(i) + "]");
      if (in_down_range) {
        refused += 2;
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << round;
        EXPECT_EQ(got_batch[i].status().code(), StatusCode::kUnavailable)
            << round;
      } else {
        EXPECT_TRUE(got.ok()) << round << ": " << got.status();
        EXPECT_TRUE(got_batch[i].ok()) << round << ": " << got_batch[i].status();
      }
    }
    std::vector<ShardStatus> statuses = rpc.ShardStatuses();
    ASSERT_EQ(statuses.size(), num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_TRUE(statuses[s].ready) << round;
      EXPECT_EQ(statuses[s].state,
                s == down ? ShardState::kDown : ShardState::kServing)
          << round << " shard " << s;
    }
    ASSERT_TRUE(local.SetShardState(down, ShardState::kServing).ok());
    ASSERT_TRUE(rpc.SetShardState(down, ShardState::kServing).ok());
  }
  std::string unavailable =
      "counter router.unavailable " + std::to_string(refused) + "\n";
  EXPECT_NE(local.DumpMetrics().find(unavailable), std::string::npos);
  EXPECT_NE(rpc.DumpMetrics().find(unavailable), std::string::npos)
      << rpc.DumpMetrics();

  for (size_t s = 0; s < num_shards; ++s) {
    EXPECT_EQ(rpc.ApplyShardDelta(s, corpus, 1).code(),
              StatusCode::kNotImplemented);
    EXPECT_EQ(rpc.SwapShardCorpus(s, corpus).code(),
              StatusCode::kNotImplemented);
    EXPECT_EQ(rpc.ShardStatuses()[s].state, ShardState::kServing);
  }
  ExpectSameResponse(rpc.Select(requests[0]), local.Select(requests[0]),
                     "after refused publication");
}

/// Blocks until each replica engine has finished `count` requests. A
/// hedged Select returns the first answer while the other leg may still
/// be solving; whether that leg has memoized its answer decides the
/// cache flags of a later exact repeat that it wins, so every hedge
/// settles on both replicas before the next request is sent.
void AwaitReplicas(const std::vector<SelectionEngine*>& engines,
                   size_t count) {
  for (SelectionEngine* engine : engines) {
    Timer waited;
    while (engine->Traces().size() < count) {
      ASSERT_LT(waited.ElapsedSeconds(), 30.0)
          << "a replica never finished request " << count;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

TEST(TransportHedgingTest, HedgedSelectsMatchAndLeaveNoResidue) {
  auto corpus = MakeCorpus(60);
  EngineOptions engine_options;
  engine_options.threads = 1;
  SelectionEngine reference(corpus, engine_options);

  // Two replica servers over the SAME whole corpus (shards=1 twice).
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::string> replicas;
  std::vector<SelectionEngine*> replica_engines;
  for (int replica = 0; replica < 2; ++replica) {
    auto local = CreateLocalBackends(corpus, 1, engine_options);
    local.status().CheckOK();
    replica_engines.push_back(local.value().backends[0]->local_engine());
    ShardServerOptions server_options;
    server_options.address = "unix:" + ::testing::TempDir() + "/oracle-hedge-" +
                             std::to_string(replica) + ".sock";
    auto server = ShardServer::Start(std::move(local.value().backends[0]),
                                     server_options);
    server.status().CheckOK();
    replicas.push_back(server.value()->bound_address());
    servers.push_back(std::move(server).value());
  }

  RpcBackendOptions backend_options;
  backend_options.replicas = replicas;
  backend_options.hedge_selects = true;
  auto backend = RpcShardBackend::Create(backend_options);
  backend.status().CheckOK();

  // Every hedged Select must return the FIRST replica answer — which,
  // with deterministic engines on identical corpora, is byte-identical
  // to the reference no matter which leg won the race.
  std::vector<SelectRequest> requests = MixedStream(*corpus);
  size_t sent = 0;
  for (const SelectRequest& request : requests) {
    ExpectSameResponse(backend.value()->Select(request),
                       reference.Select(request),
                       "hedged Select target=" + request.target_id);
    AwaitReplicas(replica_engines, ++sent);
  }
  EXPECT_GT(backend.value()->hedged_selects(), 0u);

  // No duplicate side effects: the losing leg's late answer must never
  // surface later. Re-running the stream uses pooled (winner) and
  // fresh connections; if a stale response were sitting in a pooled
  // channel, these repeats would read the WRONG frame and diverge.
  for (const SelectRequest& request : requests) {
    ExpectSameResponse(backend.value()->Select(request),
                       reference.Select(request),
                       "post-hedge repeat target=" + request.target_id);
    AwaitReplicas(replica_engines, ++sent);
  }

  backend.value().reset();
  for (auto& server : servers) server->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Shards, TransportOracleTest,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace comparesets
