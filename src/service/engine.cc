#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/greedy_selector.h"
#include "opinion/opinion_model.h"
#include "util/timer.h"

namespace comparesets {

namespace {

/// Cache key: epoch | opinion | target | explicit comparative ids.
/// Unit separator (US, 0x1f) cannot appear in product ids.
std::string CacheKey(uint64_t epoch, OpinionDefinition opinion,
                     const SelectRequest& request) {
  std::string key = std::to_string(epoch);
  key += '\x1f';
  key += OpinionDefinitionName(opinion);
  key += '\x1f';
  key += request.target_id;
  for (const std::string& id : request.comparative_ids) {
    key += '\x1f';
    key += id;
  }
  return key;
}

/// Round-trip-exact double rendering for cache keys.
std::string ExactDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Result-memo key: the vector-cache key extended with the selector name
/// and EVERY SelectorOptions field — a field added to SelectorOptions
/// must be appended here, or the memo would serve stale responses for
/// requests differing only in that field. (deadline_seconds / cancel /
/// priority / options.parallel are runtime controls, not options: they
/// never change a completed solve's answer — parallel solves are
/// bit-identical to serial, and priority only reorders scheduling — so
/// they are deliberately left out.)
std::string ResultKey(const std::string& prepare_key,
                      const SelectRequest& request) {
  std::string key = prepare_key;
  key += '\x1f';
  key += request.selector;
  key += '\x1f';
  key += std::to_string(request.options.m);
  key += '\x1f';
  key += ExactDouble(request.options.lambda);
  key += '\x1f';
  key += ExactDouble(request.options.mu);
  key += '\x1f';
  key += std::to_string(request.options.seed);
  key += '\x1f';
  key += std::to_string(request.options.extra_sync_rounds);
  key += '\x1f';
  key += QualityTierName(request.options.min_tier);
  key += '\x1f';
  key += std::to_string(request.options.sample_threshold);
  key += '\x1f';
  key += std::to_string(request.options.sample_size);
  return key;
}

/// Publication carry-over: decides, key by key, whether a cache entry
/// stored under the old epoch still holds for the new snapshot, and
/// names its key there. An entry carries when its instance resolves, in
/// both snapshots, to the same Product objects (pointer-identical, so
/// the same ids and — products being immutable while shared — the same
/// reviews) under the same aspect count: its vectors, solves and
/// alignment would then come out bit for bit the same.
class EpochCarry {
 public:
  EpochCarry(const IndexedCorpus& from, uint64_t from_epoch,
             const IndexedCorpus& to, uint64_t to_epoch)
      : from_(from),
        to_(to),
        from_prefix_(std::to_string(from_epoch) + '\x1f'),
        to_prefix_(std::to_string(to_epoch) + '\x1f'),
        same_aspects_(from.num_aspects() == to.num_aspects()) {}

  /// `prepare_key` (a CacheKey) under the new epoch, or "" when the
  /// entry must be dropped — its instance changed, or it was stored
  /// under an epoch older than `from` by a request that raced an
  /// earlier publication.
  std::string Rekey(std::string_view prepare_key) {
    if (!same_aspects_ || prepare_key.substr(0, from_prefix_.size()) !=
                              from_prefix_) {
      return {};
    }
    std::string instance_key(prepare_key.substr(from_prefix_.size()));
    auto [it, inserted] = unchanged_.emplace(instance_key, false);
    if (inserted) it->second = Unchanged(instance_key);
    return it->second ? to_prefix_ + instance_key : std::string();
  }

 private:
  /// `instance_key` is CacheKey minus the epoch: opinion | target |
  /// explicit comparative ids.
  bool Unchanged(const std::string& instance_key) const {
    std::vector<std::string> fields;
    size_t begin = 0;
    while (true) {
      size_t end = instance_key.find('\x1f', begin);
      fields.push_back(instance_key.substr(begin, end - begin));
      if (end == std::string::npos) break;
      begin = end + 1;
    }
    if (fields.size() < 2) return false;
    if (fields.size() == 2) {
      const ProblemInstance* from = from_.FindInstance(fields[1]);
      const ProblemInstance* to = to_.FindInstance(fields[1]);
      return from != nullptr && to != nullptr && from->items == to->items;
    }
    for (size_t f = 1; f < fields.size(); ++f) {
      const Product* from = from_.FindProduct(fields[f]);
      if (from == nullptr || from != to_.FindProduct(fields[f])) return false;
    }
    return true;
  }

  const IndexedCorpus& from_;
  const IndexedCorpus& to_;
  const std::string from_prefix_;
  const std::string to_prefix_;
  const bool same_aspects_;
  /// Decisions so far, by instance key (the memo repeats the vector
  /// cache's instances).
  std::unordered_map<std::string, bool> unchanged_;
};

}  // namespace

PipelineOptions EngineOptions::pipeline_options() const {
  PipelineOptions options;
  options.max_in_flight = max_in_flight;
  options.max_queue = max_queue;
  options.max_batch_queue = max_batch_queue;
  options.max_attempts = max_attempts;
  options.retry_backoff_seconds = retry_backoff_seconds;
  return options;
}

SelectionEngine::SelectionEngine(std::shared_ptr<const IndexedCorpus> corpus,
                                 EngineOptions options)
    : options_(options),
      corpus_(std::move(corpus)),
      cache_(options.cache_capacity),
      item_store_(options.cache_capacity),
      result_memo_(std::max<size_t>(1, options.result_capacity)) {
  // Standalone engine: a private pipeline and pool from its own knobs.
  if (options_.pipeline == nullptr) {
    options_.pipeline =
        std::make_shared<RequestPipeline>(options_.pipeline_options());
  }
  if (options_.pool == nullptr) {
    options_.pool = std::make_shared<ThreadPool>(options_.threads);
  }
  quality_floor_.store(static_cast<int>(options_.min_quality_tier),
                       std::memory_order_relaxed);
  metrics_.SetTraceCapacity(options_.trace_capacity);
  // Item reuse reads from telemetry before the first miss, too.
  metrics_.counter("engine.item_vectors_built");
  metrics_.counter("engine.item_vectors_reused");
}

void SelectionEngine::SetQualityFloor(QualityTier floor, bool slo_driven) {
  quality_floor_.store(static_cast<int>(floor), std::memory_order_relaxed);
  slo_shedding_.store(slo_driven, std::memory_order_relaxed);
  metrics_.SetGauge("engine.slo_shedding", slo_driven ? 1.0 : 0.0);
}

std::shared_ptr<const IndexedCorpus> SelectionEngine::corpus() const {
  std::lock_guard<std::mutex> lock(corpus_mutex_);
  return corpus_;
}

uint64_t SelectionEngine::corpus_epoch() const {
  std::lock_guard<std::mutex> lock(corpus_mutex_);
  return corpus_epoch_;
}

Status SelectionEngine::Publish(std::shared_ptr<const IndexedCorpus> corpus,
                                size_t reviews_added) {
  if (options_.fault_injector) {
    Status injected = options_.fault_injector->Inject(FaultSite::kCorpusSwap);
    if (!injected.ok()) {
      // Refused before the snapshot flipped: the engine keeps serving
      // the old snapshot, caches intact, and the caller may retry.
      metrics_.counter("engine.corpus_swap_failures").Increment();
      return injected;
    }
  }
  std::shared_ptr<const IndexedCorpus> old_corpus;
  uint64_t old_epoch;
  {
    std::lock_guard<std::mutex> lock(corpus_mutex_);
    old_corpus = std::exchange(corpus_, corpus);
    old_epoch = corpus_epoch_++;
  }
  // Move the entries the new snapshot leaves unchanged to the new
  // epoch's keys and drop the rest, so the capacity serves the new
  // snapshot. A Put racing this from a request that resolved against
  // the old snapshot lands either before the re-key (and is judged with
  // the rest) or after it, under the old epoch's key — dead weight that
  // LRU eviction or the next Publish reclaims, never a stale answer.
  EpochCarry carry(*old_corpus, old_epoch, *corpus, old_epoch + 1);
  RekeyCounts vectors =
      cache_.Rekey([&](const std::string& key) { return carry.Rekey(key); });
  RekeyCounts memo;
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    memo = result_memo_.Rekey(
        [&](const std::string& key, MemoEntry& entry) {
          std::string_view whole(key);
          std::string prepare_key =
              carry.Rekey(whole.substr(0, entry.prepare_key_size));
          if (prepare_key.empty()) return prepare_key;
          std::string_view options = whole.substr(entry.prepare_key_size);
          entry.prepare_key_size = prepare_key.size();
          return prepare_key.append(options);
        });
  }
  // Per-product vectors outlive the instances that dropped: keep those
  // whose product the new snapshot still holds, so a changed instance
  // rebuilds only its changed items.
  item_store_.Retain([&](const Product& product, size_t num_aspects) {
    return num_aspects == corpus->num_aspects() &&
           corpus->FindProduct(product.id) == &product;
  });
  metrics_.counter("engine.publish_carried").Increment(vectors.kept +
                                                        memo.kept);
  metrics_.counter("engine.publish_dropped").Increment(vectors.dropped +
                                                        memo.dropped);
  metrics_.counter("engine.corpus_swaps").Increment();
  if (reviews_added > 0) {
    ingested_reviews_.fetch_add(reviews_added, std::memory_order_relaxed);
    metrics_.counter("engine.delta_applies").Increment();
    metrics_.counter("engine.ingest_reviews_applied").Increment(reviews_added);
  }
  return Status::OK();
}

bool SelectionEngine::ResultLookup(const std::string& key,
                                   SelectResponse* out) const {
  std::lock_guard<std::mutex> lock(result_mutex_);
  MemoEntry* found = result_memo_.Find(key);
  if (found == nullptr) return false;
  *out = found->response;
  return true;
}

void SelectionEngine::ResultStore(const std::string& key,
                                  size_t prepare_key_size,
                                  const SelectResponse& response) const {
  bool evicted;
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    evicted = result_memo_.Put(key, MemoEntry{prepare_key_size, response});
  }
  if (evicted) metrics_.counter("engine.result_evictions").Increment();
}

Result<std::shared_ptr<const PreparedInstance>> SelectionEngine::Prepare(
    const IndexedCorpus& corpus, const std::string& key,
    const SelectRequest& request, bool* cache_hit) const {
  if (options_.fault_injector) {
    COMPARESETS_RETURN_NOT_OK(
        options_.fault_injector->Inject(FaultSite::kCacheLookup));
  }
  if (auto cached = cache_.Get(key)) {
    *cache_hit = true;
    return cached;
  }
  *cache_hit = false;

  // Miss: resolve the instance against the snapshot, sharing its
  // products with the bundle.
  const Corpus& catalog = corpus.corpus();
  std::vector<std::shared_ptr<const Product>> products;
  if (request.comparative_ids.empty()) {
    const ProblemInstance* found = corpus.FindInstance(request.target_id);
    if (found == nullptr) {
      return Status::NotFound("no problem instance with target id '" +
                              request.target_id + "'");
    }
    for (const Product* item : found->items) {
      products.push_back(catalog.FindShared(item->id));
    }
  } else {
    std::shared_ptr<const Product> target =
        catalog.FindShared(request.target_id);
    if (target == nullptr) {
      return Status::NotFound("unknown target product id '" +
                              request.target_id + "'");
    }
    products.push_back(target);
    for (const std::string& id : request.comparative_ids) {
      std::shared_ptr<const Product> item = catalog.FindShared(id);
      if (item == nullptr) {
        return Status::NotFound("unknown comparative product id '" + id + "'");
      }
      if (item == target) {
        return Status::InvalidArgument(
            "comparative id '" + id + "' is the target itself");
      }
      products.push_back(std::move(item));
    }
  }

  OpinionModel model(options_.opinion, corpus.num_aspects());
  size_t items = products.size();
  size_t built = 0;
  auto bundle = PreparedInstance::Create(std::move(products), model,
                                         item_store_, &built);
  metrics_.counter("engine.item_vectors_built").Increment(built);
  metrics_.counter("engine.item_vectors_reused").Increment(items - built);
  cache_.Put(key, bundle);
  return bundle;
}

Result<SelectResponse> SelectionEngine::SelectAttempt(
    const SelectRequest& request, const IndexedCorpus& corpus,
    const std::string& prepare_key, const std::string& result_key,
    const ExecControl& control, const ParallelContext& parallel,
    RequestTrace* trace) const {
  COMPARESETS_RETURN_NOT_OK(CheckLive(control, "prepare"));

  Timer prepare_timer;
  bool cache_hit = false;
  auto prepared = Prepare(corpus, prepare_key, request, &cache_hit);
  double prepare_seconds = prepare_timer.ElapsedSeconds();
  metrics_.counter(cache_hit ? "engine.cache_hits" : "engine.cache_misses")
      .Increment();
  trace->cache_hit = cache_hit;
  trace->prepare_seconds = prepare_seconds;
  if (!prepared.ok()) return prepared.status();
  metrics_.histogram("engine.prepare_seconds").Observe(prepare_seconds);

  auto selector = MakeSelector(request.selector);
  if (!selector.ok()) return selector.status();

  COMPARESETS_RETURN_NOT_OK(CheckLive(control, "solve"));
  if (options_.fault_injector) {
    COMPARESETS_RETURN_NOT_OK(
        options_.fault_injector->Inject(FaultSite::kSolve));
  }

  const PreparedInstance& bundle = *prepared.value();
  // The engine decides pool lending, not the caller: the request's
  // options get the engine's context. The degradation floor combines
  // the request's with the engine-wide policy — either side may
  // loosen. At the default kExact floor SelectTiered IS
  // Select: same call, same bits.
  SelectorOptions solve_options = request.options;
  solve_options.parallel = parallel;
  solve_options.min_tier =
      LooserTier(request.options.min_tier, quality_floor());
  Timer solve_timer;
  auto solved =
      selector.value()->SelectTiered(bundle.vectors, solve_options, &control);
  double solve_seconds = solve_timer.ElapsedSeconds();
  trace->solve_seconds = solve_seconds;
  if (!solved.ok()) return solved.status();
  metrics_.histogram("engine.solve_seconds").Observe(solve_seconds);

  SelectResponse response =
      AssembleResponse(bundle, std::move(solved.value()), cache_hit,
                       prepare_seconds, solve_seconds, trace);
  // The memoized copy keeps a default trace: a later memo hit gets a
  // fresh trace for ITS lifecycle, never the solving request's.
  // kAnytime answers are never stored: they depend on the deadline, a
  // runtime control deliberately outside the key — memoizing one would
  // let a degraded answer shadow the exact one forever. kExact and
  // kSampled are deterministic functions of the key (the sampling draw
  // is seeded), so they memoize like before.
  if (options_.result_capacity > 0 && response.tier != QualityTier::kAnytime) {
    ResultStore(result_key, prepare_key.size(), response);
  }
  return response;
}

Result<SelectResponse> SelectionEngine::DegradedAttempt(
    const SelectRequest& request, const IndexedCorpus& corpus,
    const std::string& prepare_key, const ExecControl& control,
    const ParallelContext& parallel, RequestTrace* trace) const {
  COMPARESETS_RETURN_NOT_OK(CheckLive(control, "degraded prepare"));

  Timer prepare_timer;
  bool cache_hit = false;
  auto prepared = Prepare(corpus, prepare_key, request, &cache_hit);
  double prepare_seconds = prepare_timer.ElapsedSeconds();
  metrics_.counter(cache_hit ? "engine.cache_hits" : "engine.cache_misses")
      .Increment();
  trace->cache_hit = cache_hit;
  trace->prepare_seconds = prepare_seconds;
  if (!prepared.ok()) return prepared.status();
  metrics_.histogram("engine.prepare_seconds").Observe(prepare_seconds);

  COMPARESETS_RETURN_NOT_OK(CheckLive(control, "degraded solve"));

  const PreparedInstance& bundle = *prepared.value();
  SelectorOptions solve_options = request.options;
  solve_options.parallel = parallel;
  // Greedy under the FULL control (deadline and cancel both honored):
  // degradation buys a cheap answer, not an unbounded one.
  CompareSetsGreedySelector greedy;
  Timer solve_timer;
  auto solved = greedy.Select(bundle.vectors, solve_options, &control);
  double solve_seconds = solve_timer.ElapsedSeconds();
  trace->solve_seconds = solve_seconds;
  if (!solved.ok()) return solved.status();
  metrics_.histogram("engine.solve_seconds").Observe(solve_seconds);

  SelectionResult degraded = std::move(solved.value());
  degraded.tier = QualityTier::kAnytime;
  degraded.objective_gap = 0.0;
  // Deliberately not memoized: this answer reflects load, not the key.
  return AssembleResponse(bundle, std::move(degraded), cache_hit,
                          prepare_seconds, solve_seconds, trace);
}

SelectResponse SelectionEngine::AssembleResponse(
    const PreparedInstance& bundle, SelectionResult solved, bool cache_hit,
    double prepare_seconds, double solve_seconds, RequestTrace* trace) const {
  SelectResponse response;
  response.target_id = bundle.instance.target().id;
  response.item_ids.reserve(bundle.instance.num_items());
  for (const Product* item : bundle.instance.items) {
    response.item_ids.push_back(item->id);
  }
  response.selections = std::move(solved.selections);
  response.objective = solved.objective;
  response.tier = solved.tier;
  response.objective_gap = solved.objective_gap;
  trace->tier = QualityTierName(response.tier);
  trace->objective_gap = response.objective_gap;
  if (options_.measure_alignment) {
    // A histogram, not a trace span: spans are summed as solver time.
    // Scored from the instance's document memo, so a warm instance
    // skips tokenize, intern and match-row builds (same bits).
    Timer alignment_timer;
    AlignmentDocumentMemo::Use use;
    response.alignment =
        bundle.alignment_docs->Measure(response.selections, &use);
    metrics_.histogram("engine.alignment_seconds")
        .Observe(alignment_timer.ElapsedSeconds());
    metrics_.counter("engine.alignment_docs_built").Increment(use.built);
    metrics_.counter("engine.alignment_docs_reused").Increment(use.reused);
  }
  response.cache_hit = cache_hit;
  response.prepare_seconds = prepare_seconds;
  response.solve_seconds = solve_seconds;
  return response;
}

Status SelectionEngine::FinishError(RequestTrace trace, Status status,
                                    const Timer& total) const {
  metrics_.counter("engine.errors").Increment();
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      metrics_.counter("engine.deadline_exceeded").Increment();
      break;
    case StatusCode::kCancelled:
      metrics_.counter("engine.cancelled").Increment();
      break;
    case StatusCode::kResourceExhausted:
      metrics_.counter("engine.rejected").Increment();
      break;
    default:
      break;
  }
  trace.status = StatusCodeName(status.code());
  trace.total_seconds = total.ElapsedSeconds();
  metrics_.RecordTrace(std::move(trace));
  return status;
}

Result<SelectResponse> SelectionEngine::Select(
    const SelectRequest& request) const {
  // A lone request keeps its own priority class (interactive by
  // default).
  return SelectAtPriority(request, request.priority);
}

Result<SelectResponse> SelectionEngine::SelectAtPriority(
    const SelectRequest& request, RequestPriority priority) const {
  metrics_.counter("engine.requests").Increment();
  // Every request, lone or inside a batch, fans its internal work out
  // on the engine's pool, capped by max_intra_request_threads
  // (docs/execution-model.md).
  const ParallelContext parallel{options_.pool.get(),
                                 options_.max_intra_request_threads, priority};
  Timer total;

  RequestTrace trace;
  trace.request_id = next_request_id_.fetch_add(1) + 1;
  trace.shard_id = options_.shard_id;
  trace.target_id = request.target_id;
  trace.selector = request.selector;
  trace.priority = RequestPriorityName(priority);

  Deadline deadline(request.deadline_seconds);
  std::atomic<uint64_t> iterations{0};
  std::atomic<uint64_t> nnls_nonconverged{0};
  std::atomic<uint64_t> parallel_fanouts{0};
  std::atomic<uint64_t> parallel_tasks{0};
  SpanSink span_sink;
  ExecControl control{&deadline,         request.cancel,  &iterations,
                      &nnls_nonconverged, &parallel_fanouts, &parallel_tasks,
                      &span_sink};
  // Folds the per-request solver tallies into the trace and the
  // registry; non-convergence is counted even on failed requests.
  auto record_solver_stats = [&] {
    trace.solver_iterations = iterations.load(std::memory_order_relaxed);
    trace.nnls_nonconverged =
        nnls_nonconverged.load(std::memory_order_relaxed);
    trace.intra_parallel_fanouts =
        parallel_fanouts.load(std::memory_order_relaxed);
    trace.intra_parallel_tasks =
        parallel_tasks.load(std::memory_order_relaxed);
    trace.spans = span_sink.Take();
    if (trace.nnls_nonconverged > 0) {
      metrics_.counter("solver.nnls_nonconverged")
          .Increment(trace.nnls_nonconverged);
    }
    if (trace.intra_parallel_fanouts > 0) {
      metrics_.counter("solver.intra_parallel_fanouts")
          .Increment(trace.intra_parallel_fanouts);
      metrics_.counter("solver.intra_parallel_tasks")
          .Increment(trace.intra_parallel_tasks);
    }
  };
  auto fail = [&](Status status) -> Status {
    record_solver_stats();
    return FinishError(std::move(trace), std::move(status), total);
  };

  if (request.target_id.empty()) {
    return fail(Status::InvalidArgument("request has no target_id"));
  }

  std::shared_ptr<const IndexedCorpus> corpus;
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(corpus_mutex_);
    corpus = corpus_;
    epoch = corpus_epoch_;
  }
  trace.corpus_epoch = epoch;
  trace.ingest_records = ingested_reviews_.load(std::memory_order_relaxed);
  std::string prepare_key = CacheKey(epoch, options_.opinion, request);

  // An exactly repeated request is answered from the result memo —
  // selectors are deterministic, so the memoized response is the one a
  // fresh solve would produce, bit for bit. Memo hits bypass admission:
  // they do no solving work, so they never contend for a slot.
  std::string result_key;
  if (options_.result_capacity > 0) {
    result_key = ResultKey(prepare_key, request);
    SelectResponse memoized;
    if (ResultLookup(result_key, &memoized)) {
      metrics_.counter("engine.result_hits").Increment();
      memoized.cache_hit = true;
      memoized.result_cache_hit = true;
      memoized.prepare_seconds = 0.0;
      memoized.solve_seconds = 0.0;
      trace.cache_hit = true;
      trace.result_cache_hit = true;
      trace.tier = QualityTierName(memoized.tier);
      trace.objective_gap = memoized.objective_gap;
      metrics_.counter(std::string("engine.tier_") + trace.tier).Increment();
      trace.total_seconds = total.ElapsedSeconds();
      memoized.trace = trace;
      metrics_.RecordTrace(std::move(trace));
      metrics_.histogram("engine.request_seconds")
          .Observe(memoized.trace.total_seconds);
      return memoized;
    }
    metrics_.counter("engine.result_misses").Increment();
  }

  // Every response — solved, degraded, or memoized — finishes through
  // the same success bookkeeping: per-tier counter, trace, latency.
  auto finish_ok = [&](SelectResponse response) -> SelectResponse {
    trace.status = "ok";
    record_solver_stats();
    trace.total_seconds = total.ElapsedSeconds();
    metrics_.counter(std::string("engine.tier_") + trace.tier).Increment();
    response.trace = trace;
    metrics_.RecordTrace(std::move(trace));
    metrics_.histogram("engine.request_seconds")
        .Observe(response.trace.total_seconds);
    return response;
  };

  // Admission: take a slot or wait in the bounded queue. The pipeline
  // may be shared across shard engines, in which case the slot budget
  // spans all of them.
  RequestPipeline& pipeline = *options_.pipeline;
  RequestPipeline::Slot slot;
  if (pipeline.throttled()) {
    Timer queue_timer;
    Status admitted = pipeline.Admit(deadline, request.cancel, priority);
    trace.queue_seconds = queue_timer.ElapsedSeconds();
    metrics_.histogram("engine.queue_seconds").Observe(trace.queue_seconds);
    if (!admitted.ok()) {
      if (admitted.code() == StatusCode::kResourceExhausted &&
          priority == RequestPriority::kBatch) {
        // Batch sheds first: count its refusals separately so the SLO
        // controller's shrinking of the batch budget is observable.
        metrics_.counter("pipeline.batch_shed").Increment();
      }
      // Overload degradation: a full pipeline used to mean rejection.
      // When the effective floor admits kAnytime, answer with a greedy
      // solve instead — run WITHOUT a slot, because the greedy pass is
      // far cheaper than the exact path the slots were sized for, and
      // queueing it behind the very overload it is escaping would defeat
      // the point. Any failure inside the degraded attempt reports the
      // original rejection, the honest cause. The floor is the DYNAMIC
      // one: the SloController may have loosened it under SLO pressure.
      QualityTier floor =
          LooserTier(request.options.min_tier, quality_floor());
      if (admitted.code() == StatusCode::kResourceExhausted &&
          floor != QualityTier::kExact) {
        auto degraded = DegradedAttempt(request, *corpus, prepare_key,
                                        control, parallel, &trace);
        if (degraded.ok()) {
          metrics_.counter("engine.degraded").Increment();
          if (slo_shedding_.load(std::memory_order_relaxed)) {
            metrics_.counter("engine.slo_degrades").Increment();
          }
          return finish_ok(std::move(degraded).value());
        }
      }
      return fail(std::move(admitted));
    }
    slot.Arm(&pipeline);
  }

  // Attempt loop: transient failures (injected faults, backend errors)
  // retry with exponential backoff; everything else is final.
  auto outcome = pipeline.RunWithRetries(
      control, deadline,
      [&](int attempt) {
        trace.attempts = attempt;
        return SelectAttempt(request, *corpus, prepare_key, result_key,
                             control, parallel, &trace);
      },
      [&](double slept_seconds) {
        metrics_.counter("engine.retries").Increment();
        trace.backoff_seconds += slept_seconds;
      });
  if (!outcome.ok()) return fail(outcome.status());
  return finish_ok(std::move(outcome).value());
}

std::vector<Result<SelectResponse>> SelectionEngine::SelectBatch(
    const std::vector<SelectRequest>& requests) const {
  metrics_.counter("engine.batches").Increment();
  ThreadPool& pool = *options_.pool;
  // ParallelFor lets the caller participate, so even a 1-worker pool
  // runs two lanes. A single-threaded engine promises serial in-order
  // batches (a repeated target is guaranteed to warm-hit) — one lane
  // runs the batch inline, in request order. On more lanes, exact
  // repeats coalesce onto their head's lane: the head solves and its
  // duplicates replay in order behind it, deterministically memo-hitting
  // instead of racing the head on sibling lanes.
  const size_t lanes = pool.num_threads() <= 1 ? 1 : 0;
  const bool coalesce = lanes != 1 && options_.result_capacity > 0;
  const uint64_t epoch = corpus_epoch();
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (size_t i = 0; i < requests.size(); ++i) {
    const SelectRequest& request = requests[i];
    if (!coalesce || request.target_id.empty()) {
      groups.push_back({i});
      continue;
    }
    std::string key =
        ResultKey(CacheKey(epoch, options_.opinion, request), request);
    auto [it, inserted] = group_of.emplace(std::move(key), groups.size());
    if (inserted) {
      groups.push_back({i});
    } else {
      groups[it->second].push_back(i);
    }
  }
  std::vector<std::optional<Result<SelectResponse>>> slots(requests.size());
  // The lanes run in the batch class, so a concurrent interactive
  // Select's helpers jump ahead of them in the deques; each request
  // fans out on the same pool under its batch-demoted priority.
  pool.ParallelFor(
      groups.size(),
      [&](size_t g) {
        for (size_t i : groups[g]) {
          slots[i] = SelectAtPriority(
              requests[i],
              DemotePriority(requests[i].priority, options_.batch_priority));
        }
      },
      lanes, options_.batch_priority);

  std::vector<Result<SelectResponse>> responses;
  responses.reserve(slots.size());
  for (auto& slot : slots) responses.push_back(std::move(*slot));
  return responses;
}

void SelectionEngine::RefreshGauges() const {
  VectorCacheStats stats = cache_.Stats();
  metrics_.SetGauge("cache.entries", static_cast<double>(stats.entries));
  // Cached bundles count their shared items once; the store adds the
  // items no bundle holds.
  metrics_.SetGauge(
      "cache.approx_bytes",
      static_cast<double>(stats.approx_bytes + item_store_.IdleBytes()));
  metrics_.SetGauge("pool.steals",
                    static_cast<double>(options_.pool->steals()));
  metrics_.SetGauge("cache.evictions", static_cast<double>(stats.evictions));
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    metrics_.SetGauge("result_cache.entries",
                      static_cast<double>(result_memo_.size()));
  }
}

std::string SelectionEngine::DumpMetrics() const {
  RefreshGauges();
  return metrics_.Dump();
}

MetricsSnapshot SelectionEngine::SnapshotMetrics() const {
  RefreshGauges();
  return metrics_.Snapshot();
}

std::string SelectionEngine::RenderPrometheus() const {
  RefreshGauges();
  return metrics_.RenderPrometheus("shard=\"" +
                                   std::to_string(options_.shard_id) + "\"");
}

Result<std::vector<InstanceSolve>> SelectionEngine::SolveInstances(
    const ReviewSelector& selector,
    const std::vector<InstanceVectors>& vectors,
    const SelectorOptions& options, const ParallelContext& parallel,
    const ExecControl* control) {
  // Every lane writes only its own slots; the index-ordered merge below
  // reports the lowest failing index whatever the completion order.
  size_t n = vectors.size();
  std::vector<InstanceSolve> solves(n);
  std::vector<Status> statuses(n);
  RunParallel(
      parallel, n,
      [&](size_t i) {
        Timer timer;
        auto result = selector.Select(vectors[i], options, control);
        solves[i].seconds = timer.ElapsedSeconds();
        if (!result.ok()) {
          statuses[i] = result.status();
          return;
        }
        solves[i].result = std::move(result).value();
      },
      control);
  for (const Status& status : statuses) COMPARESETS_RETURN_NOT_OK(status);
  return solves;
}

}  // namespace comparesets
