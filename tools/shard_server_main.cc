// shard_server — hosts ONE shard's SelectionEngine behind the wire
// protocol (net/server.h).
//
//   shard_server --listen unix:/tmp/shard0.sock --shards 4
//                --shard_index 0 [data flags] [engine flags]
//
// The shard's slice is NOT shipped over the wire: the server loads the
// same corpus the router describes (same data flags) and re-derives the
// partition with the same deterministic CorpusPartitioner, so every
// process independently computes identical bounds and identical shard
// snapshots. That determinism is what lets the transport oracle demand
// byte-identical responses from a multi-process topology.
//
// Status lines go to stderr; stdout carries exactly one machine-
// readable "LISTENING <address>" line (scripts use it to learn an
// ephemeral TCP port). The server runs until a kShutdownRequest
// arrives (comparesets serve sends one per child on teardown) or the
// process is signalled.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "data/synthetic.h"
#include "net/server.h"
#include "service/backend.h"
#include "service/partitioner.h"
#include "service/slo_controller.h"
#include "util/flags.h"
#include "util/logging.h"

using namespace comparesets;

namespace {

Result<Corpus> LoadData(const FlagParser& flags) {
  const std::string& reviews = flags.GetString("reviews");
  const std::string& metadata = flags.GetString("metadata");
  if (!reviews.empty() || !metadata.empty()) {
    if (reviews.empty() || metadata.empty()) {
      return Status::InvalidArgument(
          "--reviews and --metadata must be given together");
    }
    return LoadAmazonCorpusFromFiles("UserData", reviews, metadata);
  }
  COMPARESETS_ASSIGN_OR_RETURN(
      SyntheticConfig config,
      DefaultConfig(flags.GetString("category"),
                    static_cast<size_t>(flags.GetInt("products"))));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  return GenerateCorpus(config);
}

// Copies the engine flags into EngineOptions; refuses flags that do not
// parse and negative counts.
Status FillEngineOptions(const FlagParser& flags,
                         EngineOptions* engine_options) {
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->threads,
                               flags.GetCount("threads"));
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->max_intra_request_threads,
                               flags.GetCount("intra_threads"));
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->cache_capacity,
                               flags.GetCount("cache_capacity"));
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->max_in_flight,
                               flags.GetCount("max_in_flight"));
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->max_queue,
                               flags.GetCount("max_queue"));
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->max_batch_queue,
                               flags.GetCount("max_batch_queue"));
  COMPARESETS_ASSIGN_OR_RETURN(size_t retries, flags.GetCount("retries"));
  engine_options->max_attempts =
      static_cast<int>(std::min<size_t>(retries + 1, INT_MAX));
  if (!ParseRequestPriority(flags.GetString("batch_priority"),
                            &engine_options->batch_priority)) {
    return Status::InvalidArgument(
        "--batch_priority must be interactive or batch");
  }
  COMPARESETS_ASSIGN_OR_RETURN(engine_options->min_quality_tier,
                               ParseQualityTier(flags.GetString("min_tier")));
  engine_options->shard_id = static_cast<size_t>(flags.GetInt("shard_index"));
  return Status::OK();
}

int Run(const FlagParser& flags) {
  const std::string& listen = flags.GetString("listen");
  if (listen.empty()) {
    std::fprintf(stderr, "--listen is required (unix:PATH or tcp:HOST:PORT)\n");
    return 2;
  }
  int shards = flags.GetInt("shards");
  int shard_index = flags.GetInt("shard_index");
  if (shards < 1 || shard_index < 0 || shard_index >= shards) {
    std::fprintf(stderr, "need 0 <= --shard_index < --shards (got %d/%d)\n",
                 shard_index, shards);
    return 2;
  }
  // Checked before the corpus loads and the engine builds its pool.
  EngineOptions engine_options;
  Status filled = FillEngineOptions(flags, &engine_options);
  if (!filled.ok()) {
    std::fprintf(stderr, "%s\n", filled.ToString().c_str());
    return 2;
  }

  auto corpus = LoadData(flags);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 2;
  }
  auto indexed = IndexedCorpus::Build(std::move(corpus).value());
  if (!indexed.ok()) {
    std::fprintf(stderr, "%s\n", indexed.status().ToString().c_str());
    return 2;
  }

  // Same partitioner call the router makes: bounds (and therefore the
  // shard snapshot) match the routing side bit-for-bit.
  auto bounds = CorpusPartitioner::ComputeBounds(
      *indexed.value(), static_cast<size_t>(shards));
  if (!bounds.ok()) {
    std::fprintf(stderr, "%s\n", bounds.status().ToString().c_str());
    return 2;
  }
  std::shared_ptr<const IndexedCorpus> shard_corpus;
  if (shards == 1) {
    shard_corpus = indexed.value();
  } else {
    auto extracted = CorpusPartitioner::ExtractShard(
        *indexed.value(), bounds.value(), static_cast<size_t>(shard_index));
    if (!extracted.ok()) {
      std::fprintf(stderr, "%s\n", extracted.status().ToString().c_str());
      return 2;
    }
    shard_corpus = std::move(extracted).value();
  }

  ShardKeyRange range;
  range.begin = bounds.value()[static_cast<size_t>(shard_index)];
  if (static_cast<size_t>(shard_index) + 1 < bounds.value().size()) {
    range.end = bounds.value()[static_cast<size_t>(shard_index) + 1];
  }
  auto engine = std::make_shared<SelectionEngine>(std::move(shard_corpus),
                                                  std::move(engine_options));

  // Each shard process runs its own SLO control loop over its own
  // engine: the trace ring, degrade floor, and batch budget all live
  // here, so the router side never needs to reach across the wire.
  std::unique_ptr<SloController> slo;
  double slo_ms = flags.GetDouble("slo_ms");
  if (slo_ms > 0.0) {
    SloControllerOptions slo_options;
    slo_options.slo_seconds = slo_ms / 1000.0;
    slo = std::make_unique<SloController>(slo_options, engine->pipeline(),
                                          std::vector<SelectionEngine*>{
                                              engine.get()});
  }

  auto backend = std::make_unique<LocalShardBackend>(engine, range);

  ShardServerOptions server_options;
  server_options.address = listen;
  auto server = ShardServer::Start(std::move(backend), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "shard %d/%d %s serving on %s\n", shard_index, shards,
               range.ToString().c_str(),
               server.value()->bound_address().c_str());
  std::printf("LISTENING %s\n", server.value()->bound_address().c_str());
  std::fflush(stdout);

  if (slo != nullptr) slo->Start();
  server.value()->WaitForShutdown();
  if (slo != nullptr) {
    slo->Stop();
    std::fprintf(stderr, "shard %d/%d SLO sheds=%llu restores=%llu\n",
                 shard_index, shards,
                 static_cast<unsigned long long>(slo->sheds()),
                 static_cast<unsigned long long>(slo->restores()));
  }
  std::fprintf(stderr, "shard %d/%d shut down cleanly\n", shard_index, shards);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  FlagParser flags;
  flags.AddString("listen", "", "address to serve on (unix:PATH|tcp:HOST:PORT)");
  flags.AddInt("shards", 1, "total shards in the topology");
  flags.AddInt("shard_index", 0, "which shard this server hosts");
  flags.AddString("category", "Cellphone",
                  "synthetic category (Cellphone|Toy|Clothing)");
  flags.AddInt("products", 240, "synthetic corpus size");
  flags.AddInt("seed", 42, "synthetic generator seed");
  flags.AddString("reviews", "", "Amazon-layout reviews JSONL path");
  flags.AddString("metadata", "", "Amazon-layout metadata JSONL path");
  flags.AddInt("threads", 0, "engine worker threads (0 = hardware)");
  flags.AddInt("intra_threads", 0,
               "lane cap for one request's internal fan-out"
               " (0 = whole pool, 1 = serial solve)");
  flags.AddInt("cache_capacity", 256, "engine vector-cache entries");
  flags.AddInt("max_in_flight", 0,
               "admission limit on concurrent solves (0 = unthrottled)");
  flags.AddInt("max_queue", 64, "admission queue slots beyond max_in_flight");
  flags.AddInt("max_batch_queue", 0,
               "admission queue slots for batch-priority requests"
               " (0 = same as --max_queue)");
  flags.AddString("batch_priority", "batch",
                  "scheduling class for sub-batch requests"
                  " (batch|interactive)");
  flags.AddDouble("slo_ms", 0.0,
                  "latency SLO for this shard's shedding control loop"
                  " (0 = off)");
  flags.AddInt("retries", 0, "retries per query on transient failures");
  flags.AddString("min_tier", "exact",
                  "engine-wide degradation floor"
                  " (exact|anytime|sampled)");

  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;
  return Run(flags);
}
