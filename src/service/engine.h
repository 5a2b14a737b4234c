// SelectionEngine: the serving façade of the library. One engine owns
// an immutable IndexedCorpus snapshot, a bounded VectorCache of
// prepared per-instance contexts, a fixed-size ThreadPool, and a
// MetricsRegistry — and answers structured per-target requests
// (`Select`) or whole batches (`SelectBatch`) from that warm state.
//
// This is the layer the ROADMAP's "many concurrent comparison requests
// over one catalog" goal rests on: the repro harness (eval/runner), the
// CLI `serve` subcommand, and the table/figure benches all sit on top
// of it, so the cached/pooled path is exercised by the reproduction
// itself.
//
// Serving hardening (request lifecycle: admission → queue → prepare →
// solve → memo):
//   * Deadlines & cancellation — every request may carry a deadline and
//     a CancelToken; both are threaded as an ExecControl into the
//     selector/NOMP/NNLS inner loops, so a blowup returns
//     kDeadlineExceeded / kCancelled instead of hanging a pool worker.
//   * Admission control & retry — both live in a RequestPipeline
//     (service/request_pipeline.h). A standalone engine builds its own
//     private pipeline from the knobs below; a ShardRouter passes one
//     shared pipeline to all its shard engines so the admission budget
//     spans the whole router.
//   * Fault injection — a deterministic FaultInjector can be installed
//     at the cache-lookup, solve, and corpus-swap seams so tests force
//     timeouts, spurious errors, and slow paths reproducibly.
//   * Tracing — each request leaves a RequestTrace (id, queue wait,
//     attempts, solver iterations, per-stage wall time) in the
//     MetricsRegistry's ring, dumpable as JSONL (`serve --trace_out`).
//
// Thread-safety: Select/SelectBatch are safe to call concurrently; the
// catalog can be replaced at runtime with Publish (in-flight
// requests finish against the snapshot they started with).

#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/selector.h"
#include "eval/alignment.h"
#include "service/fault_injector.h"
#include "service/indexed_corpus.h"
#include "service/metrics.h"
#include "service/request_pipeline.h"
#include "service/vector_cache.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace comparesets {

struct EngineOptions {
  /// Worker threads in the engine's ONE pool (0 = hardware
  /// concurrency). SelectBatch fans requests out over it; a single
  /// Select lends it to the request's intra-request fan-out instead
  /// (docs/execution-model.md). With 1, batches run serially in order
  /// on the calling thread, so a repeated target later in the batch is
  /// guaranteed to warm-hit the vector cache.
  size_t threads = 0;
  /// Cap on the lanes one request's *internal* fan-out may use (the
  /// per-item solves, CompaReSetS+ round refits, similarity-graph
  /// rows). 0 = whole pool; 1 = solve serially. Runtime control only:
  /// responses are bit-identical at every setting.
  size_t max_intra_request_threads = 0;
  /// Max prepared instances kept warm. Size to the working set: one
  /// entry per (target, comparative set, opinion definition) queried.
  size_t cache_capacity = 256;
  /// Max fully solved responses memoized (0 disables the memo). Every
  /// selector is deterministic given (vectors, options), so an exactly
  /// repeated request returns a bit-identical response — the memo lets
  /// repeat queries skip the solve entirely, not just the vector build.
  size_t result_capacity = 1024;
  /// Opinion definition used to vectorize reviews. Fixed per engine
  /// (it changes every cached vector); run one engine per definition.
  OpinionDefinition opinion = OpinionDefinition::kBinary;
  /// Whether responses carry alignment scores (pairwise ROUGE — adds
  /// O(pairs · text) per request; serving paths may turn it off).
  bool measure_alignment = true;
  /// Admission control: max requests solving at once (0 = unthrottled).
  /// Excess requests wait in the admission queue. Ignored when an
  /// external `pipeline` is supplied — the pipeline's options rule.
  size_t max_in_flight = 0;
  /// Waiting slots beyond max_in_flight for interactive requests. A
  /// request arriving when its class's queue is full is refused with
  /// kResourceExhausted.
  size_t max_queue = 64;
  /// Waiting slots for batch-priority requests (0 = same as max_queue).
  /// Batch sheds first: this budget is separate from the interactive
  /// one and is the lever the SloController shrinks under SLO pressure.
  size_t max_batch_queue = 0;
  /// Scheduling class SelectBatch demotes its sub-requests to (each
  /// sub-request's effective priority is the more-batch of its own and
  /// this). kBatch (default) keeps background batches out of the way
  /// of interactive lone Selects; kInteractive restores the pre-
  /// priority FIFO behaviour where batches compete head-on.
  RequestPriority batch_priority = RequestPriority::kBatch;
  /// Attempts per request for *transient* failures (injected faults,
  /// cache backend errors). 1 = no retries. Non-transient failures
  /// (bad ids, deadline, cancellation) are never retried.
  int max_attempts = 1;
  /// First retry backoff; doubles per attempt. Sleeps are clamped to
  /// the request's remaining deadline.
  double retry_backoff_seconds = 0.001;
  /// Per-request trace ring size (0 disables tracing).
  size_t trace_capacity = 256;
  /// Deterministic fault injection at the engine's seams (tests /
  /// chaos drills); nullptr = no faults.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Cross-request batched-kernel window for SelectBatch (0 or 1 =
  /// off). Consecutive requests are staged in windows of this size:
  /// each window snapshots the corpus epoch once, prepares its unique
  /// instances, and builds their per-item design systems in one batched
  /// Gram kernel pass (GramSystem::BuildBatch via the selector's
  /// PrefetchSystems hook) before any request in the window solves;
  /// exact repeats inside a pooled window coalesce onto one lane so
  /// they deterministically memo-hit their head. Purely a scheduling /
  /// locality knob: every response payload is bit-identical to the
  /// unwindowed path (warm-state flags differ — prefetched requests
  /// report cache_hit = true).
  size_t batch_kernel_window = 0;
  /// Stable shard id, stamped into every RequestTrace and used as the
  /// Prometheus `shard` label. 0 for an unsharded engine.
  size_t shard_id = 0;
  /// Engine-wide degradation floor, combined with each request's
  /// options.min_tier by LooserTier (either side may loosen, neither
  /// may tighten the other). With the default kExact the engine
  /// behaves exactly as before tiers existed: overload rejects with
  /// kResourceExhausted and deadline expiry is an error. At kAnytime
  /// or looser, an admission refusal degrades instead of rejecting —
  /// the request is answered inline with the greedy incumbent (tier
  /// kAnytime) without taking a solve slot (greedy costs orders less
  /// than the exact path the slots protect) — and deadline pressure
  /// inside the solve returns the incumbent via SelectTiered.
  QualityTier min_quality_tier = QualityTier::kExact;
  /// Admission/retry policy shared with other engines. nullptr = the
  /// engine builds a private RequestPipeline from pipeline_options()
  /// (the standalone behaviour). CreateLocalBackends installs one
  /// pipeline across all its shard engines so max_in_flight is a
  /// fleet-wide budget, not per-shard.
  std::shared_ptr<RequestPipeline> pipeline;

  /// The admission/retry knobs above (max_in_flight, max_queue,
  /// max_batch_queue, max_attempts, retry_backoff_seconds) as the
  /// PipelineOptions every engine-built pipeline is configured from.
  PipelineOptions pipeline_options() const;
};

struct SelectRequest {
  /// Target product id (instance resolved from also-bought metadata).
  std::string target_id;
  /// Explicit comparative product ids; empty = use the corpus's
  /// enumerated instance for target_id.
  std::vector<std::string> comparative_ids;
  /// Selector name, as accepted by MakeSelector.
  std::string selector = "CompaReSetS+";
  /// m / λ / μ / seed / sync rounds. The `parallel` member is
  /// overwritten by the engine — pool lending follows the nesting rule
  /// (outer batch fan-out wins), never the caller's value.
  SelectorOptions options;
  /// Per-request latency budget, spanning queue wait + prepare + solve
  /// (<= 0: none). Expiry returns kDeadlineExceeded. Runtime control
  /// only — deliberately NOT part of the result-memo key, since it
  /// never changes what a completed solve returns.
  double deadline_seconds = 0.0;
  /// Cooperative cancellation (nullptr: not cancellable). Checked at
  /// the same iteration boundaries as the deadline; also runtime-only.
  const CancelToken* cancel = nullptr;
  /// Scheduling class of this request: admission budget, queue
  /// precedence, and intra-request fan-out class all follow it. A
  /// SelectBatch demotes its sub-requests by EngineOptions::
  /// batch_priority (never promotes). Runtime control only — like the
  /// deadline it is deliberately NOT part of the result-memo key,
  /// since it never changes what a completed solve returns.
  RequestPriority priority = RequestPriority::kInteractive;
};

struct SelectResponse {
  std::string target_id;
  /// Item ids in instance order (index 0 = target).
  std::vector<std::string> item_ids;
  /// Selected review indices per item, aligned with item_ids.
  std::vector<Selection> selections;
  /// Eq. 5 objective of the selections under the request's λ, μ.
  double objective = 0.0;
  /// Quality tier of the answer (core/selector.h). kExact responses
  /// are bit-identical to the pre-tier engine's output; kAnytime and
  /// kSampled only occur when the effective floor admitted them.
  QualityTier tier = QualityTier::kExact;
  /// The selection's objective-gap bound (0 unless tier is kSampled).
  double objective_gap = 0.0;
  /// Pairwise-ROUGE alignment (only when EngineOptions.measure_alignment).
  AlignmentScores alignment;
  /// Whether the response was served from warm state — prepared vectors
  /// from the VectorCache, or the whole response from the result memo.
  bool cache_hit = false;
  /// Whether the whole solved response came from the result memo (the
  /// request repeated a previous one exactly; no solve ran).
  bool result_cache_hit = false;
  /// Seconds resolving + vectorizing the instance (≈0 on cache hit).
  double prepare_seconds = 0.0;
  /// Seconds inside the selector (the paper's runtime measure; 0 on a
  /// result-memo hit).
  double solve_seconds = 0.0;
  /// Full lifecycle trace of THIS request (queue wait, attempts, solver
  /// iterations, …) — always fresh, even when the payload came from the
  /// memo. The same record lands in the engine's trace ring.
  RequestTrace trace;
};

/// One instance's outcome in a workload-style batched solve.
struct InstanceSolve {
  SelectionResult result;
  /// Per-instance solve seconds. Summing these gives the serial-cost
  /// runtime measure used by Figure 7, not wall-clock.
  double seconds = 0.0;
};

class SelectionEngine {
 public:
  explicit SelectionEngine(std::shared_ptr<const IndexedCorpus> corpus,
                           EngineOptions options = {});

  /// Answers one request, lending the whole pool (capped by
  /// max_intra_request_threads) to the request's internal per-item
  /// fan-out. Unknown selector names, unknown target ids, and unknown
  /// comparative ids return a Status (no crash paths); deadline expiry
  /// / cancellation / admission overflow return kDeadlineExceeded /
  /// kCancelled / kResourceExhausted.
  Result<SelectResponse> Select(const SelectRequest& request) const;

  /// Answers a batch concurrently on the internal pool. Responses are
  /// in request order; each request succeeds or fails independently.
  /// Nesting rule: requests inside a pooled batch solve serially
  /// internally (the pool is already saturated by the batch fan-out);
  /// on a single-threaded engine the inline, in-order requests get the
  /// intra-request context instead. Either way each response is
  /// bit-identical to what Select would return.
  std::vector<Result<SelectResponse>> SelectBatch(
      const std::vector<SelectRequest>& requests) const;

  /// Publishes a new catalog snapshot — the one publication path, for
  /// wholesale swaps (reviews_added = 0) and streamed deltas from
  /// service/ingest alike. The epoch moves, the vector cache and the
  /// memo are invalidated, and in-flight requests keep the snapshot
  /// they resolved against. `reviews_added` streamed reviews are
  /// accounted into ingested_reviews(), which every subsequent
  /// RequestTrace carries as `ingest_records`. Shard-local: publishing
  /// here never moves another shard's epoch, so the other shards keep
  /// their warm caches. Fails only under fault injection at the
  /// corpus-swap seam (the snapshot is left untouched then).
  Status Publish(std::shared_ptr<const IndexedCorpus> corpus,
                 size_t reviews_added);

  /// Current catalog snapshot.
  std::shared_ptr<const IndexedCorpus> corpus() const;

  /// Epoch of the current snapshot: 0 at construction, +1 per
  /// Publish. Shard-local — one shard swapping never moves another
  /// shard's epoch, which is what keeps the others' caches warm.
  uint64_t corpus_epoch() const;

  /// Cumulative streamed reviews delta-applied to this engine (sum of
  /// every Publish's reviews_added). 0 on engines that never ingest;
  /// monotonic, never reset by a publication.
  uint64_t ingested_reviews() const {
    return ingested_reviews_.load(std::memory_order_relaxed);
  }

  const EngineOptions& options() const { return options_; }
  VectorCacheStats CacheStats() const { return cache_.Stats(); }

  /// The engine-wide degradation floor currently in force:
  /// options().min_quality_tier unless the SLO controller loosened it.
  QualityTier quality_floor() const {
    return static_cast<QualityTier>(
        quality_floor_.load(std::memory_order_relaxed));
  }

  /// Adjusts the degradation floor at runtime — the SloController's
  /// shedding lever. `slo_driven` marks whether the new floor is SLO
  /// pressure (degrades count into `engine.slo_degrades` and the
  /// `engine.slo_shedding` gauge flips) or a restore of the configured
  /// policy. Requests already past their floor check are unaffected.
  void SetQualityFloor(QualityTier floor, bool slo_driven);

  /// The admission pipeline this engine uses (private or shared).
  RequestPipeline* pipeline() const { return options_.pipeline.get(); }

  /// Text dump of counters/gauges/histograms (cache stats refreshed).
  std::string DumpMetrics() const;

  /// Point-in-time copy of the engine's instruments (cache stats
  /// refreshed) — what a router aggregates into rollups.
  MetricsSnapshot SnapshotMetrics() const;

  /// Prometheus text exposition of this engine's metrics, labeled
  /// shard="<shard_id>".
  std::string RenderPrometheus() const;

  /// The per-request trace ring as JSONL, oldest first.
  std::string DumpTraces() const { return metrics_.DumpTracesJsonl(); }

  /// Retained request traces, oldest first.
  std::vector<RequestTrace> Traces() const { return metrics_.Traces(); }

  /// Low-level batched execution backend: runs `selector` over every
  /// prepared vector context, distributing instances over `pool`
  /// (nullptr = serial, in index order). Shared with the eval runner,
  /// which layers alignment aggregation on top. `control` (optional)
  /// threads a shared deadline/cancellation into every instance solve.
  static Result<std::vector<InstanceSolve>> SolveInstances(
      const ReviewSelector& selector,
      const std::vector<InstanceVectors>& vectors,
      const SelectorOptions& options, ThreadPool* pool,
      const ExecControl* control = nullptr);

 private:
  /// Select with an explicit intra-request context — the single place
  /// the nesting rule is decided: Select passes the pool, a pooled
  /// SelectBatch passes an empty context. `priority` is the request's
  /// EFFECTIVE class (after any batch demotion): it picks the admission
  /// budget and is stamped into the trace.
  Result<SelectResponse> SelectWithParallel(
      const SelectRequest& request, const ParallelContext& parallel,
      RequestPriority priority) const;

  /// One try of the prepare → solve → memo pipeline (everything past
  /// admission and the memo lookup). Transient failures bubble up for
  /// the retry loop in SelectWithParallel. `parallel` replaces the
  /// request options' context before the solve.
  Result<SelectResponse> SelectAttempt(
      const SelectRequest& request,
      std::shared_ptr<const IndexedCorpus> corpus,
      const std::string& prepare_key, const std::string& result_key,
      const ExecControl& control, const ParallelContext& parallel,
      RequestTrace* trace) const;

  /// Records the trace and error counters of a failed request.
  Status FinishError(RequestTrace trace, Status status,
                     const Timer& total) const;

  /// The degraded answer an admission refusal falls back to when the
  /// effective floor admits kAnytime: prepare (cache-served when warm)
  /// + the greedy incumbent, solved inline WITHOUT a pipeline slot.
  /// Never memoized — overload answers must not shadow exact ones.
  Result<SelectResponse> DegradedAttempt(const SelectRequest& request,
                                         std::shared_ptr<const IndexedCorpus>
                                             corpus,
                                         const std::string& prepare_key,
                                         const ExecControl& control,
                                         const ParallelContext& parallel,
                                         RequestTrace* trace) const;

  /// Warm-up for one batch window [begin, end): prepares every unique
  /// (instance, selector, λ) combination once and batch-builds its
  /// per-item design systems (one Gram kernel pass per combination).
  /// Failures are silent — the requests themselves surface them.
  void PrefetchWindow(const std::vector<SelectRequest>& requests, size_t begin,
                      size_t end) const;

  /// Runs window [begin, end) of a windowed batch: inline in order on a
  /// single-threaded engine, pooled with exact repeats coalesced onto
  /// their head's lane otherwise.
  void RunWindow(const std::vector<SelectRequest>& requests, size_t begin,
                 size_t end,
                 std::vector<std::optional<Result<SelectResponse>>>* slots)
      const;

  /// Resolves the request's instance against `corpus` and returns its
  /// prepared bundle, from cache when warm (under `key`, which already
  /// encodes the snapshot epoch). Sets *cache_hit accordingly.
  Result<std::shared_ptr<const PreparedInstance>> Prepare(
      std::shared_ptr<const IndexedCorpus> corpus, const std::string& key,
      const SelectRequest& request, bool* cache_hit) const;

  /// Result-memo LRU plumbing (guarded by result_mutex_). Lookup copies
  /// the entry out under the lock and promotes it to most-recently-used.
  bool ResultLookup(const std::string& key, SelectResponse* out) const;
  void ResultStore(const std::string& key, const SelectResponse& response)
      const;

  /// Publishes cache sizes as gauges (shared by DumpMetrics and
  /// SnapshotMetrics so both report fresh values).
  void RefreshGauges() const;

  EngineOptions options_;
  mutable std::mutex corpus_mutex_;
  std::shared_ptr<const IndexedCorpus> corpus_;
  /// Bumped by Publish; part of every cache key so an entry built
  /// against an old snapshot can never serve a new one.
  uint64_t corpus_epoch_ = 0;
  /// Sum of every Publish's reviews_added.
  std::atomic<uint64_t> ingested_reviews_{0};
  mutable VectorCache cache_;

  /// Fully solved responses, keyed on the vector-cache key extended
  /// with selector name + every SelectorOptions field. Front = MRU.
  struct ResultEntry {
    std::string key;
    SelectResponse response;
  };
  mutable std::mutex result_mutex_;
  mutable std::list<ResultEntry> result_lru_;
  mutable std::unordered_map<std::string, std::list<ResultEntry>::iterator>
      result_index_;

  mutable std::atomic<uint64_t> next_request_id_{0};
  /// Degradation floor currently in force (QualityTier as int, so the
  /// SLO controller can move it without a lock) + whether the current
  /// value is SLO-driven shedding rather than configured policy.
  std::atomic<int> quality_floor_{static_cast<int>(QualityTier::kExact)};
  std::atomic<bool> slo_shedding_{false};
  mutable MetricsRegistry metrics_;
  mutable ThreadPool pool_;
};

}  // namespace comparesets
