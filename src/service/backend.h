// ShardBackend: the transport seam of the sharded serving layer.
//
// ShardRouter talks to every shard through this interface — the
// contract a router needs from a shard and nothing more (answer one
// request, answer a sub-batch, report status) — so the same router code
// serves
//   * LocalShardBackend — an in-process SelectionEngine, and
//   * RpcShardBackend (net/client.h) — a pool of connections to a
//     shard_server process hosting that engine behind the wire
//     protocol.
// The transport oracle (tests/net_transport_oracle_test.cc) holds the
// two implementations to byte-identical responses.
//
// Deadlines cross the seam as data (SelectRequest::deadline_seconds);
// CancelTokens do not — they are process-local (docs/execution-model.md
// covers how cancellation degrades to a deadline across a socket).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "service/engine.h"
#include "service/indexed_corpus.h"
#include "util/status.h"

namespace comparesets {

/// Serving state of one shard, surfaced per-range by the router.
enum class ShardState {
  kServing = 0,  ///< Normal operation.
  kSwapping,     ///< Mid-publication; its range answers kUnavailable.
  kDown,         ///< Marked down; its range answers kUnavailable.
};

/// Stable lowercase name ("serving", "swapping", "down").
const char* ShardStateName(ShardState state);

/// Inverse of ShardStateName; false (and *out untouched) on any other
/// text.
bool ParseShardState(const std::string& name, ShardState* out);

/// Point-in-time status of one shard: what a backend's probe reports
/// and what ShardRouter::ShardStatuses surfaces (with the router's own
/// routing state folded in).
struct ShardStatus {
  bool ready = false;  ///< Engine built and answering probes.
  size_t shard_id = 0;
  ShardState state = ShardState::kServing;
  ShardKeyRange range;
  uint64_t corpus_epoch = 0;
  size_t num_instances = 0;
  size_t num_products = 0;
};

/// One shard, behind some transport. Implementations are thread-safe:
/// a router fans sub-batches out over backends concurrently.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Answers one request. Transport failures surface as kUnavailable /
  /// kTimeout / kIOError; application failures are the engine's own
  /// Status, carried with full code + message fidelity.
  virtual Result<SelectResponse> Select(const SelectRequest& request) = 0;

  /// Answers a whole sub-batch. Shipping the sub-batch as one unit (one
  /// frame, for RPC) preserves the engine's batch semantics — kernel
  /// windowing, in-order memo hits — exactly as an in-process call.
  virtual std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) = 0;

  /// Status/readiness probe. Cheap; routers poll it at startup
  /// (WaitReady) and ops surfaces print it.
  virtual Result<ShardStatus> Probe() = 0;

  /// Transport description for logs/errors ("local:0",
  /// "rpc:unix:/run/shard0.sock").
  virtual std::string name() const = 0;

  /// The engine behind this backend when it lives in this process;
  /// nullptr for a remote shard. Snapshot publication and metrics
  /// rollups need it.
  virtual SelectionEngine* local_engine() { return nullptr; }
};

/// In-process backend: wraps one shard's SelectionEngine.
class LocalShardBackend : public ShardBackend {
 public:
  /// `range` is the key range the engine's snapshot covers (from the
  /// partition bounds); surfaced by Probe.
  LocalShardBackend(std::shared_ptr<SelectionEngine> engine,
                    ShardKeyRange range);

  Result<SelectResponse> Select(const SelectRequest& request) override;
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) override;
  Result<ShardStatus> Probe() override;
  std::string name() const override;
  SelectionEngine* local_engine() override { return engine_.get(); }

  SelectionEngine& engine() { return *engine_; }

 private:
  std::shared_ptr<SelectionEngine> engine_;
  ShardKeyRange range_;
};

/// A partitioned set of local backends plus the bounds that route to
/// them — everything ShardRouter::Create needs for the in-process
/// transport.
struct LocalBackendSet {
  std::vector<std::string> bounds;
  std::vector<std::unique_ptr<ShardBackend>> backends;
};

/// Partitions `corpus` into `num_shards` ranges and builds one
/// LocalShardBackend per shard — the one partition-and-engine
/// construction path (ShardRouter::Create(corpus, ...) is this plus the
/// router). Every shard engine shares ONE RequestPipeline built from
/// `engine_options` (admission stays a machine-wide budget) and gets its
/// stable shard id. num_shards == 1 serves the input snapshot
/// unpartitioned — byte-for-byte a single engine.
Result<LocalBackendSet> CreateLocalBackends(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    EngineOptions engine_options);

}  // namespace comparesets
