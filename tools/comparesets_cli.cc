// comparesets — command-line front-end to the full pipeline.
//
//   comparesets stats   [--category C | --reviews F --metadata F]
//   comparesets select  [data flags] [--target ID] [--algorithm A] [--m N]
//   comparesets narrow  [data flags] [--target ID] [--k N] [--m N]
//   comparesets serve   [data flags] [--queries F] [--threads N]
//                       [--intra_threads N] [--shards N]
//                       [--metrics] [--prometheus] [--deadline_ms D]
//                       [--max_in_flight N] [--retries R] [--trace_out F]
//                       [--transport local|rpc] [--shard_server PATH]
//                       [--connect A1,A2,..] [--ready_timeout S]
//                       [--min_tier exact|anytime|sampled] [--degrade]
//                       [--sample_threshold N] [--sample_size N]
//                       [--metrics_port P] [--ingest_log F]
//                       [--ingest_batch N] [--ingest_interval_ms MS]
//                       [--batch_priority interactive|batch]
//                       [--max_batch_queue N] [--slo_ms MS]
//
// Data source: either a synthetic category (--category Cellphone|Toy|
// Clothing, --products N, --seed S) or Amazon-layout JSONL files
// (--reviews, --metadata). `select` prints the comparative review sets;
// `narrow` additionally reduces the comparative list to the core k items
// via the exact TargetHkS solver. `serve` answers a batch of query lines
// through a ShardRouter over N range-partitioned shard engines
// (--shards 1, the default, is byte-for-byte the single warm engine).
//
// --transport rpc moves each shard into its own shard_server process:
// the CLI spawns one child per shard on private Unix sockets (or, with
// --connect, dials an already-running fleet), waits for every shard's
// readiness probe, routes the same queries through the same ShardRouter
// over RPC backends, and asks each spawned child to shut down when
// done. Responses are byte-identical to --transport local — the
// transport-oracle CI job holds the two paths to the same output.
//
// --ingest_log tails a review WAL (service/ingest) on the local
// transport: committed records are drained into per-shard delta
// snapshots before the batch is answered (and, with
// --ingest_interval_ms > 0, polled in the background while it runs),
// so queries see reviews appended after the process started.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/selector.h"
#include "data/export.h"
#include "net/socket.h"
#include "service/metrics_http.h"
#include "data/loader.h"
#include "data/statistics.h"
#include "data/synthetic.h"
#include "eval/alignment.h"
#include "graph/targethks_exact.h"
#include "net/client.h"
#include "opinion/vectors.h"
#include "service/engine.h"
#include "service/ingest/driver.h"
#include "service/partitioner.h"
#include "service/router.h"
#include "service/slo_controller.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace comparesets;

namespace {

void AddDataFlags(FlagParser* flags) {
  flags->AddString("category", "Cellphone",
                   "synthetic category (Cellphone|Toy|Clothing)");
  flags->AddInt("products", 240, "synthetic corpus size");
  flags->AddInt("seed", 42, "synthetic generator seed");
  flags->AddString("reviews", "", "Amazon-layout reviews JSONL path");
  flags->AddString("metadata", "", "Amazon-layout metadata JSONL path");
}

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

Result<ProblemInstance> PickInstance(const Corpus& corpus,
                                     const std::string& target_id) {
  std::vector<ProblemInstance> instances = corpus.BuildInstances();
  if (instances.empty()) {
    return Status::NotFound("corpus yields no problem instances");
  }
  if (target_id.empty()) return instances.front();
  for (ProblemInstance& instance : instances) {
    if (instance.target().id == target_id) return std::move(instance);
  }
  return Status::NotFound("no instance with target id '" + target_id + "'");
}

void PrintSelections(const ProblemInstance& instance,
                     const std::vector<Selection>& selections,
                     const std::vector<size_t>& items) {
  for (size_t v : items) {
    const Product& product = *instance.items[v];
    std::printf("\n%s %s — %s\n", v == 0 ? "[target]" : "[compare]",
                product.id.c_str(),
                product.title.empty() ? "(untitled)" : product.title.c_str());
    for (size_t review_index : selections[v]) {
      const Review& review = product.reviews[review_index];
      std::printf("  (%.0f*) %s\n", review.rating, review.text.c_str());
    }
  }
}

// Prints a refused Status; returns 2, the usage/parse exit code.
int UsageError(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 2;
}

int RunStats(const FlagParser& flags) {
  auto corpus = LoadData(flags);
  if (!corpus.ok()) return UsageError(corpus.status());
  std::printf("%s", ComputeStatistics(corpus.value()).ToString().c_str());
  return 0;
}

int RunExport(const FlagParser& flags) {
  auto corpus = LoadData(flags);
  if (!corpus.ok()) return UsageError(corpus.status());
  const std::string& prefix = flags.GetString("prefix");
  Status exported = ExportCorpusFiles(corpus.value(), prefix);
  if (!exported.ok()) return UsageError(exported);
  std::printf("Wrote %s.reviews.jsonl, %s.metadata.jsonl, "
              "%s.annotations.jsonl (%zu products, %zu reviews)\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str(),
              corpus.value().num_products(), corpus.value().num_reviews());
  return 0;
}

int RunSelect(const FlagParser& flags, bool narrow) {
  auto m = flags.GetCount("m");
  if (!m.ok()) return UsageError(m.status());
  auto core_size = flags.GetCount("k");
  if (!core_size.ok()) return UsageError(core_size.status());
  auto corpus = LoadData(flags);
  if (!corpus.ok()) return UsageError(corpus.status());
  auto instance = PickInstance(corpus.value(), flags.GetString("target"));
  if (!instance.ok()) return UsageError(instance.status());

  OpinionModel model = OpinionModel::Binary(corpus.value().num_aspects());
  InstanceVectors vectors = BuildInstanceVectors(model, instance.value());

  SelectorOptions options;
  options.m = m.value();
  options.lambda = flags.GetDouble("lambda");
  options.mu = flags.GetDouble("mu");
  auto selector = MakeSelector(flags.GetString("algorithm"));
  if (!selector.ok()) return UsageError(selector.status());
  auto result = selector.value()->Select(vectors, options);
  if (!result.ok()) return UsageError(result.status());

  std::printf("Target %s with %zu comparative products; %s selected up to "
              "%zu reviews per product (Eq. 5 objective %.4f).\n",
              instance.value().target().id.c_str(),
              instance.value().num_items() - 1,
              flags.GetString("algorithm").c_str(), options.m,
              result.value().objective);

  std::vector<size_t> items;
  if (narrow) {
    size_t k = std::min(core_size.value(), instance.value().num_items());
    SimilarityGraph graph =
        BuildSimilarityGraph(vectors, result.value().selections,
                             options.lambda, options.mu);
    ExactSolverOptions exact_options;
    exact_options.time_limit_seconds = flags.GetDouble("time_limit");
    auto core = SolveTargetHksExact(graph, k, exact_options);
    if (!core.ok()) return UsageError(core.status());
    std::printf("Core list: %zu of %zu items, weight %.4f%s.\n", k,
                instance.value().num_items(), core.value().weight,
                core.value().proven_optimal ? " (proven optimal)" : "");
    items = core.value().vertices;
  } else {
    for (size_t v = 0; v < instance.value().num_items(); ++v) {
      items.push_back(v);
    }
  }
  PrintSelections(instance.value(), result.value().selections, items);

  AlignmentScores scores = MeasureAlignmentSubset(
      instance.value(), result.value().selections, items);
  std::printf("\nAlignment: target-vs-comparative R-L %.2f, among-items "
              "R-L %.2f (x100)\n",
              100.0 * scores.target_vs_comparative.rougeL.f1,
              100.0 * scores.among_items.rougeL.f1);
  return 0;
}

// The serve-wide degradation floor: --min_tier, loosened to at least
// kAnytime by the --degrade shorthand.
Result<QualityTier> ResolveTierFloor(const FlagParser& flags) {
  COMPARESETS_ASSIGN_OR_RETURN(QualityTier floor,
                               ParseQualityTier(flags.GetString("min_tier")));
  if (flags.GetBool("degrade")) {
    floor = LooserTier(floor, QualityTier::kAnytime);
  }
  return floor;
}

// One serve query per line: `target_id [algorithm] [m] [comp1,comp2,..]`.
// Blank lines and lines starting with '#' are skipped; fields after the
// target id default to the CLI-level --algorithm / --m flags and the
// corpus's also-bought instance.
Result<std::vector<SelectRequest>> ParseQueries(std::istream& in,
                                                const FlagParser& flags) {
  SelectorOptions defaults;
  COMPARESETS_ASSIGN_OR_RETURN(defaults.m, flags.GetCount("m"));
  defaults.lambda = flags.GetDouble("lambda");
  defaults.mu = flags.GetDouble("mu");
  COMPARESETS_ASSIGN_OR_RETURN(defaults.min_tier, ResolveTierFloor(flags));
  COMPARESETS_ASSIGN_OR_RETURN(defaults.sample_threshold,
                               flags.GetCount("sample_threshold"));
  COMPARESETS_ASSIGN_OR_RETURN(defaults.sample_size,
                               flags.GetCount("sample_size"));

  std::vector<SelectRequest> requests;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> fields = SplitWhitespace(trimmed);

    SelectRequest request;
    request.target_id = fields[0];
    request.selector = flags.GetString("algorithm");
    request.options = defaults;
    if (fields.size() > 1) request.selector = fields[1];
    if (fields.size() > 2) {
      int m = std::atoi(fields[2].c_str());
      if (m <= 0) {
        return Status::ParseError("query line " + std::to_string(line_number) +
                                  ": bad m '" + fields[2] + "'");
      }
      request.options.m = static_cast<size_t>(m);
    }
    if (fields.size() > 3) request.comparative_ids = Split(fields[3], ',');
    if (fields.size() > 4) {
      return Status::ParseError("query line " + std::to_string(line_number) +
                                ": too many fields");
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

// Reads serve queries (stdin or --queries) and stamps the CLI-level
// deadline onto each. Returns a shell exit code; 0 = ok.
int ReadServeRequests(const FlagParser& flags,
                      std::vector<SelectRequest>* requests) {
  const std::string& queries_path = flags.GetString("queries");
  if (queries_path.empty()) {
    auto parsed = ParseQueries(std::cin, flags);
    if (!parsed.ok()) return UsageError(parsed.status());
    *requests = std::move(parsed).value();
  } else {
    std::ifstream file(queries_path);
    if (!file) {
      std::fprintf(stderr, "cannot open queries file '%s'\n",
                   queries_path.c_str());
      return 2;
    }
    auto parsed = ParseQueries(file, flags);
    if (!parsed.ok()) return UsageError(parsed.status());
    *requests = std::move(parsed).value();
  }
  double deadline_seconds = flags.GetDouble("deadline_ms") / 1000.0;
  for (SelectRequest& request : *requests) {
    request.deadline_seconds = deadline_seconds;
  }
  return 0;
}

// Prints one line per response (the serve output contract — identical
// across transports) and the closing summary; returns the failure count.
size_t PrintServeResponses(const std::vector<SelectRequest>& requests,
                           const std::vector<Result<SelectResponse>>& responses,
                           size_t num_shards) {
  size_t failed = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) {
      ++failed;
      std::printf("[%zu] target=%s ERROR %s\n", i,
                  requests[i].target_id.c_str(),
                  responses[i].status().ToString().c_str());
      continue;
    }
    const SelectResponse& response = responses[i].value();
    size_t selected = 0;
    for (const Selection& s : response.selections) selected += s.size();
    std::printf(
        "[%zu] target=%s algorithm=%s m=%zu items=%zu reviews=%zu "
        "objective=%.4f tier=%s gap=%.4f align_RL=%.2f cache=%s "
        "solve_ms=%.2f\n",
        i, response.target_id.c_str(), requests[i].selector.c_str(),
        requests[i].options.m, response.item_ids.size(), selected,
        response.objective, QualityTierName(response.tier),
        response.objective_gap,
        100.0 * response.alignment.among_items.rougeL.f1,
        response.result_cache_hit ? "memo" : response.cache_hit ? "hit" : "miss",
        1000.0 * response.solve_seconds);
  }
  if (num_shards == 1) {
    std::printf("Answered %zu queries (%zu failed) from one engine.\n",
                responses.size(), failed);
  } else {
    std::printf("Answered %zu queries (%zu failed) across %zu shards.\n",
                responses.size(), failed, num_shards);
  }
  return failed;
}

// Copies the serve-relevant engine flags into EngineOptions; refuses
// flags that do not parse and negative counts.
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
                               ResolveTierFloor(flags));
  return Status::OK();
}

// One HTTP/1.0 scrape of our own metrics endpoint, over a real TCP
// client socket — proves the exporter end to end (bind, accept thread,
// request parse, response framing) before serve exits.
Result<std::string> ScrapeMetricsOnce(const std::string& address) {
  COMPARESETS_ASSIGN_OR_RETURN(Socket socket, Socket::Connect(address, 5.0));
  std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  COMPARESETS_RETURN_NOT_OK(
      socket.SendAll(request.data(), request.size(), 5.0));
  // Read to EOF (the server closes after one response).
  std::string body;
  char c = 0;
  while (socket.RecvAll(&c, 1, 5.0).ok()) body.push_back(c);
  return body;
}

// Forks one shard_server child. The child's stdout is rerouted to
// stderr so the CLI's stdout stays exactly the query-response stream.
// `floor` is the already-resolved --min_tier/--degrade floor.
pid_t SpawnShardServer(const std::string& binary, const FlagParser& flags,
                       int shards, int shard_index, QualityTier floor,
                       const std::string& address) {
  std::vector<std::string> args = {
      binary,
      "--listen=" + address,
      "--shards=" + std::to_string(shards),
      "--shard_index=" + std::to_string(shard_index),
      "--category=" + flags.GetString("category"),
      "--products=" + std::to_string(flags.GetInt("products")),
      "--seed=" + std::to_string(flags.GetInt("seed")),
      "--reviews=" + flags.GetString("reviews"),
      "--metadata=" + flags.GetString("metadata"),
      "--threads=" + std::to_string(flags.GetInt("threads")),
      "--intra_threads=" + std::to_string(flags.GetInt("intra_threads")),
      "--cache_capacity=" + std::to_string(flags.GetInt("cache_capacity")),
      "--max_in_flight=" + std::to_string(flags.GetInt("max_in_flight")),
      "--max_queue=" + std::to_string(flags.GetInt("max_queue")),
      "--max_batch_queue=" + std::to_string(flags.GetInt("max_batch_queue")),
      "--batch_priority=" + flags.GetString("batch_priority"),
      "--slo_ms=" + std::to_string(flags.GetDouble("slo_ms")),
      "--retries=" + std::to_string(flags.GetInt("retries")),
      std::string("--min_tier=") + QualityTierName(floor),
  };
  pid_t pid = fork();
  if (pid != 0) return pid;
  dup2(STDERR_FILENO, STDOUT_FILENO);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  execv(binary.c_str(), argv.data());
  std::fprintf(stderr, "cannot exec shard server '%s'\n", binary.c_str());
  _exit(127);
}

// Reaps spawned shard servers: polite shutdown frame first, SIGTERM for
// any child that does not comply, then waitpid on everyone.
void TearDownFleet(const std::vector<pid_t>& pids,
                   const std::vector<std::string>& addresses) {
  for (size_t i = 0; i < pids.size(); ++i) {
    Status stopped = RequestServerShutdown(addresses[i], 5.0);
    if (!stopped.ok()) {
      std::fprintf(stderr, "shard %zu shutdown handshake failed (%s); "
                   "sending SIGTERM\n",
                   i, stopped.ToString().c_str());
      kill(pids[i], SIGTERM);
    }
  }
  for (pid_t pid : pids) {
    int wait_status = 0;
    waitpid(pid, &wait_status, 0);
  }
}

/// The per-shard header `serve` prints before answering on a
/// multi-shard fleet — one line per shard from the router's status
/// records, identical on either transport.
void PrintShardHeader(const ShardRouter& router) {
  if (router.num_shards() <= 1) return;
  for (const ShardStatus& status : router.ShardStatuses()) {
    if (!status.ready) {
      std::printf("shard %zu %s: not ready\n", status.shard_id,
                  status.range.ToString().c_str());
      continue;
    }
    std::printf("shard %zu %s: %zu instances, %zu products\n",
                status.shard_id, status.range.ToString().c_str(),
                status.num_instances, status.num_products);
  }
}

// `engine` holds the already-checked engine flags; the shard servers
// are spawned with the same values.
int RunServeRpc(const FlagParser& flags, const std::string& program_dir,
                const EngineOptions& engine) {
  // Refused up front, before any child is spawned or query answered:
  // the delta builder lives in the serving process, so accepting the
  // flag here would silently serve the stale base corpus — the exact
  // failure mode the WAL exists to prevent.
  if (!flags.GetString("ingest_log").empty()) {
    Status refused = Status::InvalidArgument(
        "--ingest_log is not available over --transport rpc (the delta "
        "builder lives in the serving process); run --transport local, "
        "or replay the WAL into the corpus files the shard servers load");
    return UsageError(refused);
  }
  int shards_flag = flags.GetInt("shards");
  if (shards_flag < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  size_t num_shards = static_cast<size_t>(shards_flag);

  // The router side derives the partition bounds from the same data the
  // servers load — CorpusPartitioner is deterministic, so both sides of
  // the wire agree on the ranges without shipping the corpus.
  auto corpus = LoadData(flags);
  if (!corpus.ok()) return UsageError(corpus.status());
  auto indexed = IndexedCorpus::Build(std::move(corpus).value());
  if (!indexed.ok()) return UsageError(indexed.status());
  auto bounds = CorpusPartitioner::ComputeBounds(*indexed.value(), num_shards);
  if (!bounds.ok()) return UsageError(bounds.status());

  std::vector<std::string> addresses;
  std::vector<pid_t> pids;
  const std::string& connect = flags.GetString("connect");
  if (!connect.empty()) {
    addresses = Split(connect, ',');
    if (addresses.size() != num_shards) {
      std::fprintf(stderr, "--connect lists %zu addresses for %zu shards\n",
                   addresses.size(), num_shards);
      return 2;
    }
  } else {
    std::string binary = flags.GetString("shard_server");
    if (binary.empty()) binary = program_dir + "shard_server";
    for (size_t s = 0; s < num_shards; ++s) {
      addresses.push_back("unix:/tmp/csrp-" + std::to_string(getpid()) + "-" +
                          std::to_string(s) + ".sock");
      pids.push_back(SpawnShardServer(binary, flags, shards_flag,
                                      static_cast<int>(s),
                                      engine.min_quality_tier,
                                      addresses[s]));
    }
  }

  double ready_timeout = flags.GetDouble("ready_timeout");
  for (size_t s = 0; s < num_shards; ++s) {
    Status ready = WaitForServerReady(addresses[s], ready_timeout);
    if (!ready.ok()) {
      std::fprintf(stderr, "shard %zu at %s never became ready: %s\n", s,
                   addresses[s].c_str(), ready.ToString().c_str());
      if (!pids.empty()) TearDownFleet(pids, addresses);
      return 2;
    }
  }

  std::vector<std::unique_ptr<ShardBackend>> backends;
  backends.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    RpcBackendOptions backend_options;
    backend_options.replicas = {addresses[s]};
    backend_options.shard_id = s;
    auto backend = RpcShardBackend::Create(std::move(backend_options));
    if (!backend.ok()) {
      if (!pids.empty()) TearDownFleet(pids, addresses);
      return UsageError(backend.status());
    }
    backends.push_back(std::move(backend).value());
  }
  // The scatter over remote shards is the only work on this process's
  // pool, so only its size matters here.
  RouterOptions router_options;
  router_options.engine.threads = engine.threads;
  auto router = ShardRouter::Create(bounds.value(), std::move(backends),
                                    router_options);
  if (!router.ok()) {
    if (!pids.empty()) TearDownFleet(pids, addresses);
    return UsageError(router.status());
  }
  PrintShardHeader(*router.value());

  std::vector<SelectRequest> requests;
  int read_rc = ReadServeRequests(flags, &requests);
  if (read_rc != 0) {
    if (!pids.empty()) TearDownFleet(pids, addresses);
    return read_rc;
  }
  if (requests.empty()) {
    std::printf("No queries.\n");
    if (!pids.empty()) TearDownFleet(pids, addresses);
    return 0;
  }

  std::vector<Result<SelectResponse>> responses =
      router.value()->SelectBatch(requests);
  size_t failed = PrintServeResponses(requests, responses, num_shards);

  if (flags.GetBool("metrics") || flags.GetBool("prometheus") ||
      flags.GetInt("metrics_port") >= 0 ||
      !flags.GetString("trace_out").empty()) {
    std::fprintf(stderr,
                 "--metrics/--prometheus/--metrics_port/--trace_out are not "
                 "available over --transport rpc (remote registries)\n");
  }
  if (!pids.empty()) TearDownFleet(pids, addresses);
  return failed == 0 ? 0 : 1;
}

int RunServe(const FlagParser& flags, const std::string& program_dir) {
  // Engine flags are checked before any pool is built or child spawned.
  RouterOptions router_options;
  Status filled = FillEngineOptions(flags, &router_options.engine);
  if (!filled.ok()) return UsageError(filled);
  const std::string& transport = flags.GetString("transport");
  if (transport == "rpc") {
    return RunServeRpc(flags, program_dir, router_options.engine);
  }
  if (transport != "local") {
    std::fprintf(stderr, "--transport must be local or rpc\n");
    return 2;
  }

  auto corpus = LoadData(flags);
  if (!corpus.ok()) return UsageError(corpus.status());
  // The ingestion driver's delta builder needs its own copy of the base
  // corpus (the identical one the router's snapshots are built from) —
  // take it before the move into the index build.
  const std::string& ingest_log = flags.GetString("ingest_log");
  Corpus ingest_base;
  if (!ingest_log.empty()) ingest_base = corpus.value();
  auto indexed = IndexedCorpus::Build(std::move(corpus).value());
  if (!indexed.ok()) return UsageError(indexed.status());

  int shards_flag = flags.GetInt("shards");
  if (shards_flag < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }
  auto router = ShardRouter::Create(indexed.value(),
                                    static_cast<size_t>(shards_flag),
                                    router_options);
  if (!router.ok()) return UsageError(router.status());
  PrintShardHeader(*router.value());

  // The Prometheus endpoint comes up before any query is answered, so
  // an external scraper can watch a long batch live; the endpoint is
  // self-scraped once after the batch as an end-to-end check.
  MetricsHttpServer metrics_http;
  int metrics_port = flags.GetInt("metrics_port");
  if (metrics_port >= 0) {
    ShardRouter* router_ptr = router.value().get();
    Status started = metrics_http.Start(
        metrics_port, [router_ptr] { return router_ptr->RenderPrometheus(); });
    if (!started.ok()) return UsageError(started);
    std::printf("METRICS LISTENING %s\n", metrics_http.bound_address().c_str());
  }

  // The SLO control loop polls every shard engine's trace ring and
  // flips the degrade-floor / batch-budget levers when the rolling p99
  // crosses --slo_ms. It only observes and writes atomics, so it rides
  // alongside the batch without perturbing determinism.
  std::unique_ptr<SloController> slo;
  double slo_ms = flags.GetDouble("slo_ms");
  if (slo_ms > 0.0) {
    SloControllerOptions slo_options;
    slo_options.slo_seconds = slo_ms / 1000.0;
    std::vector<SelectionEngine*> engines;
    for (size_t s = 0; s < router.value()->num_shards(); ++s) {
      engines.push_back(router.value()->mutable_shard_engine(s));
    }
    slo = std::make_unique<SloController>(
        slo_options, router.value()->pipeline(), std::move(engines));
  }

  std::unique_ptr<IngestDriver> ingest;
  if (!ingest_log.empty()) {
    IngestDriverOptions ingest_options;
    ingest_options.wal_path = ingest_log;
    ingest_options.batch_size =
        static_cast<size_t>(flags.GetInt("ingest_batch"));
    ingest_options.interval_ms =
        static_cast<uint64_t>(flags.GetInt("ingest_interval_ms"));
    auto driver = IngestDriver::Create(std::move(ingest_base),
                                       router.value().get(), ingest_options);
    if (!driver.ok()) return UsageError(driver.status());
    ingest = std::move(driver).value();
  }

  std::vector<SelectRequest> requests;
  int read_rc = ReadServeRequests(flags, &requests);
  if (read_rc != 0) return read_rc;
  if (requests.empty()) {
    std::printf("No queries.\n");
    return 0;
  }

  if (ingest != nullptr) {
    // Synchronous pre-query drain: everything committed to the WAL
    // before this point is served to the batch. The background poller
    // (if enabled) only starts afterwards so the two never overlap.
    auto drained = ingest->DrainOnce();
    if (!drained.ok()) return UsageError(drained.status());
    std::printf("INGEST drained %zu records in %zu batches from %s\n",
                drained.value().records_applied, drained.value().batches,
                ingest_log.c_str());
    if (flags.GetInt("ingest_interval_ms") > 0) ingest->Start();
  }

  if (slo != nullptr) slo->Start();
  std::vector<Result<SelectResponse>> responses =
      router.value()->SelectBatch(requests);
  if (slo != nullptr) slo->Stop();
  size_t failed = PrintServeResponses(requests, responses,
                                      router.value()->num_shards());
  if (slo != nullptr) {
    SloSample final_sample = slo->TickOnce();
    std::printf(
        "SLO p99=%.2fms target=%.2fms sheds=%llu restores=%llu "
        "shedding=%s\n",
        1000.0 * final_sample.p99_seconds, slo_ms,
        static_cast<unsigned long long>(slo->sheds()),
        static_cast<unsigned long long>(slo->restores()),
        slo->shedding() ? "yes" : "no");
  }
  if (ingest != nullptr) {
    ingest->Stop();
    IngestDrainStats totals = ingest->TotalStats();
    std::printf(
        "INGEST total applied=%zu dropped=%zu batches=%zu "
        "shards_touched=%zu bytes=%llu\n",
        totals.records_applied, totals.records_dropped, totals.batches,
        totals.shards_touched,
        static_cast<unsigned long long>(totals.bytes_consumed));
  }
  if (metrics_port >= 0) {
    auto scraped = ScrapeMetricsOnce(metrics_http.bound_address());
    if (!scraped.ok()) return UsageError(scraped.status());
    std::printf("\n%s", scraped.value().c_str());
    metrics_http.Stop();
  }
  if (flags.GetBool("metrics")) {
    std::printf("\n%s", router.value()->DumpMetrics().c_str());
  }
  if (flags.GetBool("prometheus")) {
    std::printf("\n%s", router.value()->RenderPrometheus().c_str());
  }
  const std::string& trace_out = flags.GetString("trace_out");
  if (!trace_out.empty()) {
    // One JSON object per request, oldest first ("-" = stdout); lines
    // carry shard_id + corpus_epoch for correlation with swaps.
    std::string jsonl = router.value()->DumpTraces();
    if (trace_out == "-") {
      std::printf("%s", jsonl.c_str());
    } else {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot open trace file '%s'\n",
                     trace_out.c_str());
        return 2;
      }
      out << jsonl;
      std::printf("Wrote %zu request traces to %s.\n",
                  router.value()->Traces().size(), trace_out.c_str());
    }
  }
  return failed == 0 ? 0 : 1;
}

void PrintUsage(const char* program) {
  std::printf(
      "Usage: %s <stats|select|narrow|serve|export> [flags]\n"
      "  stats   print Table-2-style dataset statistics\n"
      "  select  comparative review-set selection for one target\n"
      "  narrow  select, then reduce to the core k items (TargetHkS)\n"
      "  serve   answer query lines (stdin or --queries) through a router\n"
      "          over --shards warm engines; line format:\n"
      "          target [algorithm] [m] [c1,c2,..]\n"
      "  export  write the corpus as Amazon-layout JSONL (--prefix)\n"
      "Run '%s select --help' for flags.\n",
      program, program);
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) {
    PrintUsage(argv[0]);
    return 2;
  }
  std::string command = argv[1];

  FlagParser flags;
  AddDataFlags(&flags);
  flags.AddString("target", "", "target product id (default: first instance)");
  flags.AddString("algorithm", "CompaReSetS+",
                  "Random|Crs|CompaReSetSGreedy|CompaReSetS|CompaReSetS+");
  flags.AddInt("m", 3, "max reviews per product");
  flags.AddInt("k", 3, "core-list size (narrow)");
  flags.AddDouble("lambda", 1.0, "opinion-vs-aspect trade-off");
  flags.AddDouble("mu", 0.1, "cross-item synchronization weight");
  flags.AddDouble("time_limit", 10.0, "exact solver budget (s)");
  flags.AddString("prefix", "corpus", "output path prefix (export)");
  flags.AddString("queries", "", "query file for serve (default: stdin)");
  flags.AddInt("threads", 0, "engine worker threads (0 = hardware)");
  flags.AddInt("intra_threads", 0,
               "lane cap for one request's internal fan-out"
               " (0 = whole pool, 1 = serial solve)");
  flags.AddInt("cache_capacity", 256, "engine vector-cache entries");
  flags.AddInt("shards", 1,
               "target-id range shards behind the serve router"
               " (1 = single engine)");
  flags.AddBool("metrics", false, "dump engine metrics after serve");
  flags.AddBool("prometheus", false,
                "dump Prometheus text exposition after serve");
  flags.AddDouble("deadline_ms", 0.0,
                  "per-query deadline in milliseconds (0 = none)");
  flags.AddInt("max_in_flight", 0,
               "admission limit on concurrent solves (0 = unthrottled)");
  flags.AddInt("max_queue", 64, "admission queue slots beyond max_in_flight");
  flags.AddInt("max_batch_queue", 0,
               "admission queue slots for batch-priority requests"
               " (0 = same as --max_queue; batch sheds first)");
  flags.AddString("batch_priority", "batch",
                  "scheduling class for serve-batch sub-requests"
                  " (batch = lone Selects cut ahead, interactive ="
                  " legacy FIFO behaviour)");
  flags.AddDouble("slo_ms", 0.0,
                  "latency SLO for the shedding control loop: when the"
                  " rolling p99 exceeds this, quality floors loosen to"
                  " anytime and the batch admission budget drops to 0"
                  " until p99 recovers (0 = off, --transport local)");
  flags.AddInt("retries", 0, "retries per query on transient failures");
  flags.AddString("trace_out", "",
                  "write per-request JSONL traces here after serve"
                  " (\"-\" = stdout)");
  flags.AddString("transport", "local",
                  "serve transport: local (in-process shard engines) or"
                  " rpc (one shard_server process per shard)");
  flags.AddString("shard_server", "",
                  "shard_server binary for --transport rpc"
                  " (default: next to this binary)");
  flags.AddString("connect", "",
                  "comma-separated shard addresses to dial instead of"
                  " spawning servers (--transport rpc)");
  flags.AddDouble("ready_timeout", 60.0,
                  "seconds to wait for every rpc shard's readiness probe");
  flags.AddString("min_tier", "exact",
                  "lowest quality tier serve may answer with"
                  " (exact|anytime|sampled); anytime returns the greedy"
                  " incumbent on deadline expiry or overload");
  flags.AddBool("degrade", false,
                "shorthand: loosen --min_tier to at least anytime");
  flags.AddInt("sample_threshold", 0,
               "review-sample items with more reviews than this when the"
               " floor admits sampled (0 = never)");
  flags.AddInt("sample_size", 0, "reviews drawn per sampled item");
  flags.AddInt("metrics_port", -1,
               "serve /metrics over HTTP on 127.0.0.1:PORT during the"
               " batch (0 = ephemeral port, -1 = off)");
  flags.AddString("ingest_log", "",
                  "review WAL to tail into delta corpus snapshots before"
                  " (and during) the serve batch (--transport local only)");
  flags.AddInt("ingest_batch", 64,
               "WAL records folded into one delta batch");
  flags.AddInt("ingest_interval_ms", 0,
               "background WAL poll interval while the batch runs"
               " (0 = drain once before answering)");

  Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;

  // Directory holding this binary — where --transport rpc looks for
  // shard_server unless --shard_server overrides it.
  std::string program_dir = "./";
  std::string program_path = argv[0];
  size_t last_slash = program_path.find_last_of('/');
  if (last_slash != std::string::npos) {
    program_dir = program_path.substr(0, last_slash + 1);
  }

  if (command == "stats") return RunStats(flags);
  if (command == "select") return RunSelect(flags, /*narrow=*/false);
  if (command == "narrow") return RunSelect(flags, /*narrow=*/true);
  if (command == "serve") return RunServe(flags, program_dir);
  if (command == "export") return RunExport(flags);
  PrintUsage(argv[0]);
  return 2;
}
