// ShardRouter: the scatter/gather front of a sharded serving deployment.
//
// One router fronts N shards, each serving a contiguous target-id range
// of the catalog (CorpusPartitioner), through the ShardBackend seam — so
// the same code serves in-process engines (LocalShardBackend) and
// shard_server processes over the wire (RpcShardBackend). A `Select`
// routes to the shard owning its target; a `SelectBatch` splits the
// batch by shard, fans the sub-batches out on the router's own
// ThreadPool, and reassembles responses in request order. Output is
// bit-identical to a single SelectionEngine over the unpartitioned
// corpus, whatever the transport — shards hold exact slices of the same
// instance enumeration, so routing is pure dispatch, never
// approximation.
//
// Operational surface:
//   * Shard state — a shard marked down (ops drill, fault isolation)
//     refuses ITS range with kUnavailable; other ranges are untouched.
//     Held by the router, so it applies to local and remote shards.
//   * Per-shard publication — SwapShardCorpus (re-extract from a new
//     catalog) and ApplyShardDelta (an incrementally built snapshot)
//     publish into one in-process shard while every other shard keeps
//     its snapshot, caches, and memo. During the publication the
//     shard's range answers kUnavailable; the rest keep serving.
//   * Shared admission — the shard engines CreateLocalBackends builds
//     share one RequestPipeline, so max_in_flight is a fleet-wide
//     budget.
//   * Metrics — the router keeps rollup counters (router.*) on every
//     transport; for in-process shards it also renders a merged
//     Prometheus exposition with `shard` labels and aggregates engine
//     counters across shards in its text dump.
//   * Fault injection — seams at the route decision (FaultSite::kRoute)
//     and at each per-shard gather task (FaultSite::kGather).
//
// Threading (docs/execution-model.md): the router's fan-out is a layer
// ABOVE the engines and owns its own pool, one lane per shard
// sub-batch. Each shard engine still applies the engine nesting rule to
// its sub-batch on its own pool, so the two layers never re-enter the
// same pool.

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/backend.h"
#include "service/engine.h"
#include "service/partitioner.h"

namespace comparesets {

struct RouterOptions {
  /// Configuration applied to every shard engine the corpus factory
  /// builds (`shard_id` and `pipeline` are stamped per shard by
  /// CreateLocalBackends). The backends factory ignores it: its shards
  /// are already built.
  EngineOptions engine;
  /// Lanes for the scatter/gather fan-out over shards (0 = hardware
  /// concurrency). With <= 1, sub-batches run serially in shard order.
  size_t router_threads = 0;
  /// Deterministic fault injection at the router's seams (kRoute /
  /// kGather); nullptr = no faults. Independent of the engine-level
  /// injector in `engine.fault_injector`.
  std::shared_ptr<FaultInjector> fault_injector;
};

class ShardRouter {
 public:
  /// Partitions `corpus` into `num_shards` target-id ranges and routes
  /// over one in-process engine per shard: CreateLocalBackends plus the
  /// backends factory below. num_shards == 1 serves the input snapshot
  /// unpartitioned — byte-for-byte a single engine.
  static Result<std::unique_ptr<ShardRouter>> Create(
      std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
      RouterOptions options = {});

  /// Routes over already-built shards of any transport. `bounds` are
  /// the partition lower bounds (bounds[0] == "", sorted, one per
  /// backend); `backends` the shards in range order.
  static Result<std::unique_ptr<ShardRouter>> Create(
      std::vector<std::string> bounds,
      std::vector<std::unique_ptr<ShardBackend>> backends,
      RouterOptions options = {});

  size_t num_shards() const { return backends_.size(); }

  /// Routes to the shard owning request.target_id and delegates. A
  /// down/swapping shard fails ITS requests with kUnavailable naming
  /// the affected range; other ranges are unaffected.
  Result<SelectResponse> Select(const SelectRequest& request) const;

  /// Scatter/gather: splits the batch by shard, sends each sub-batch to
  /// the owning backend as one unit (one frame over RPC), concurrently
  /// across shards when the router pool has lanes, and reassembles in
  /// request order. Requests whose shard is unavailable fail
  /// individually; the rest proceed. Each request's deadline spans the
  /// whole gather — time lost before its shard dispatches counts
  /// against it.
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) const;

  /// Re-extracts shard `shard_id`'s slice of `full_corpus` (under the
  /// partition bounds fixed at Create) and publishes it into that
  /// shard's engine. The shard keeps serving its old snapshot while the
  /// slice is extracted; only the publication itself is a kSwapping
  /// window. Only that shard's epoch moves; every other shard keeps its
  /// snapshot and warm caches. On success the shard returns to kServing
  /// (also reviving a kDown shard); on failure the prior state and
  /// snapshot are kept. A remote shard answers kNotImplemented —
  /// publishing over the wire would need snapshot shipping.
  Status SwapShardCorpus(size_t shard_id,
                         std::shared_ptr<const IndexedCorpus> full_corpus);

  /// Publishes an incrementally built shard snapshot from the streaming
  /// ingestion path (service/ingest). The DeltaCorpusBuilder extracted
  /// it under the SAME partition bounds fixed at Create, so this is the
  /// publication step of SwapShardCorpus alone: the same kSwapping
  /// window, the same shard-local epoch bump, the same failure
  /// handling. `reviews_added` flows into the engine's cumulative
  /// ingest counter (RequestTrace's ingest_records).
  Status ApplyShardDelta(size_t shard_id,
                         std::shared_ptr<const IndexedCorpus> snapshot,
                         size_t reviews_added);

  /// Marks a shard kDown / back to kServing (ops drills, tests).
  Status SetShardState(size_t shard_id, ShardState state);

  /// The shard whose range contains `target_id` (total: every id maps
  /// to exactly one shard, known or not).
  size_t ShardForTarget(const std::string& target_id) const;

  /// Direct access to an in-process shard's engine (tests, status
  /// surfaces). The shard must be local.
  const SelectionEngine& shard_engine(size_t shard_id) const {
    return *engines_[shard_id];
  }

  /// Mutable engine access for runtime policy levers — the
  /// SloController flips each engine's quality floor through this.
  /// nullptr for a remote shard.
  SelectionEngine* mutable_shard_engine(size_t shard_id) {
    return engines_[shard_id];
  }

  /// The admission pipeline of shard 0's engine — shared by every shard
  /// engine of a CreateLocalBackends fleet (the SloController's
  /// batch-budget lever). nullptr when shard 0 is remote.
  RequestPipeline* pipeline() const {
    return engines_[0] != nullptr ? engines_[0]->pipeline() : nullptr;
  }

  /// Partition lower bounds fixed at Create (bounds[0] == "").
  const std::vector<std::string>& bounds() const { return bounds_; }

  ShardBackend& backend(size_t shard_id) const { return *backends_[shard_id]; }

  /// One record per shard, from each backend's Probe with the router's
  /// own routing state folded in: a shard the router holds kDown or
  /// mid-publication reports that state whatever its backend says. A
  /// failed probe yields ready == false with the shard's id and range.
  std::vector<ShardStatus> ShardStatuses() const;

  /// Blocks until every backend's probe reports ready or
  /// `timeout_seconds` elapses (kTimeout naming the laggard shard).
  Status WaitReady(double timeout_seconds) const;

  /// Text dump: router counters, then engine instruments aggregated
  /// across in-process shards (same line format as one engine's dump),
  /// then — with more than one shard — one section per in-process
  /// shard. A remote shard's registry lives in its own process.
  std::string DumpMetrics() const;

  /// Merged Prometheus exposition: router-level metrics unlabeled,
  /// every in-process shard engine's metrics labeled shard="<id>", one
  /// # TYPE header per family.
  std::string RenderPrometheus() const;

  /// All in-process shards' trace rings as JSONL, shard by shard,
  /// oldest first within each shard. Lines carry shard_id +
  /// corpus_epoch.
  std::string DumpTraces() const;

  /// All in-process shards' retained traces, in DumpTraces order.
  std::vector<RequestTrace> Traces() const;

 private:
  ShardRouter(RouterOptions options, std::vector<std::string> bounds,
              std::vector<std::unique_ptr<ShardBackend>> backends);

  /// kUnavailable for a non-serving shard, naming its range; OK else.
  Status CheckRoutable(size_t shard) const;

  /// kInvalidArgument for an unknown shard, kNotImplemented for a
  /// remote one; OK when a snapshot can be published into it.
  Status CheckPublishable(size_t shard_id) const;

  /// The one publication routine behind SwapShardCorpus and
  /// ApplyShardDelta: holds the shard kSwapping while its engine
  /// publishes, then kServing on success or the previous state on
  /// failure. `published` / `failed` name the router counters bumped.
  Status PublishToShard(size_t shard_id,
                        std::shared_ptr<const IndexedCorpus> snapshot,
                        size_t reviews_added, const char* published,
                        const char* failed);

  /// The half-open range shard `shard_id` owns, from bounds_.
  ShardKeyRange RangeOf(size_t shard_id) const;

  ShardState StateOf(size_t shard_id) const {
    return static_cast<ShardState>(
        states_[shard_id].load(std::memory_order_acquire));
  }

  RouterOptions options_;
  std::vector<std::string> bounds_;
  std::vector<std::unique_ptr<ShardBackend>> backends_;
  /// Each backend's in-process engine; nullptr for a remote shard.
  std::vector<SelectionEngine*> engines_;
  /// Per-shard ShardState, atomics so the hot path reads lock-free.
  std::unique_ptr<std::atomic<int>[]> states_;
  /// Serializes publications and state changes (readers never take it).
  mutable std::mutex admin_mutex_;
  mutable MetricsRegistry metrics_;
  /// Hot-path counters, resolved once so routing a request takes no
  /// registry lock and builds no name.
  Counter& requests_;
  Counter& batches_;
  Counter& routed_;
  Counter& unavailable_;
  std::vector<Counter*> shard_requests_;
  mutable ThreadPool pool_;
};

}  // namespace comparesets
