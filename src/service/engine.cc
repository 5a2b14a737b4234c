#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <unordered_set>
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
      cache_(options.cache_capacity) {
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
  {
    std::lock_guard<std::mutex> lock(corpus_mutex_);
    corpus_ = std::move(corpus);
    ++corpus_epoch_;
  }
  // Entries of the old epoch can no longer match any key; drop them now
  // so the capacity serves the new snapshot. A racing Put from an in-
  // flight request re-inserts under its old epoch key at worst — dead
  // weight that LRU eviction reclaims, never a stale answer.
  cache_.Clear();
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    result_lru_.clear();
    result_index_.clear();
  }
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
  auto it = result_index_.find(key);
  if (it == result_index_.end()) return false;
  result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
  *out = result_lru_.front().response;
  return true;
}

void SelectionEngine::ResultStore(const std::string& key,
                                  const SelectResponse& response) const {
  std::lock_guard<std::mutex> lock(result_mutex_);
  auto it = result_index_.find(key);
  if (it != result_index_.end()) {
    it->second->response = response;
    result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
    return;
  }
  if (result_lru_.size() >= options_.result_capacity) {
    result_index_.erase(result_lru_.back().key);
    result_lru_.pop_back();
  }
  result_lru_.push_front(ResultEntry{key, response});
  result_index_[key] = result_lru_.begin();
}

Result<std::shared_ptr<const PreparedInstance>> SelectionEngine::Prepare(
    std::shared_ptr<const IndexedCorpus> corpus, const std::string& key,
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

  // Miss: resolve the instance against the snapshot.
  ProblemInstance instance;
  if (request.comparative_ids.empty()) {
    const ProblemInstance* found = corpus->FindInstance(request.target_id);
    if (found == nullptr) {
      return Status::NotFound("no problem instance with target id '" +
                              request.target_id + "'");
    }
    instance = *found;
  } else {
    const Product* target = corpus->FindProduct(request.target_id);
    if (target == nullptr) {
      return Status::NotFound("unknown target product id '" +
                              request.target_id + "'");
    }
    instance.items.push_back(target);
    for (const std::string& id : request.comparative_ids) {
      const Product* item = corpus->FindProduct(id);
      if (item == nullptr) {
        return Status::NotFound("unknown comparative product id '" + id + "'");
      }
      if (item == target) {
        return Status::InvalidArgument(
            "comparative id '" + id + "' is the target itself");
      }
      instance.items.push_back(item);
    }
  }

  OpinionModel model(options_.opinion, corpus->num_aspects());
  auto bundle =
      PreparedInstance::Create(std::move(corpus), std::move(instance), model);
  cache_.Put(key, bundle);
  return std::shared_ptr<const PreparedInstance>(std::move(bundle));
}

Result<SelectResponse> SelectionEngine::SelectAttempt(
    const SelectRequest& request,
    std::shared_ptr<const IndexedCorpus> corpus,
    const std::string& prepare_key, const std::string& result_key,
    const ExecControl& control, const ParallelContext& parallel,
    RequestTrace* trace) const {
  COMPARESETS_RETURN_NOT_OK(CheckLive(control, "prepare"));

  Timer prepare_timer;
  bool cache_hit = false;
  auto prepared =
      Prepare(std::move(corpus), prepare_key, request, &cache_hit);
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

  SelectResponse response;
  response.target_id = bundle.instance.target().id;
  response.item_ids.reserve(bundle.instance.num_items());
  for (const Product* item : bundle.instance.items) {
    response.item_ids.push_back(item->id);
  }
  response.selections = std::move(solved.value().selections);
  response.objective = solved.value().objective;
  response.tier = solved.value().tier;
  response.objective_gap = solved.value().objective_gap;
  trace->tier = QualityTierName(response.tier);
  trace->objective_gap = response.objective_gap;
  if (options_.measure_alignment) {
    response.alignment =
        MeasureAlignment(bundle.instance, response.selections);
  }
  response.cache_hit = cache_hit;
  response.prepare_seconds = prepare_seconds;
  response.solve_seconds = solve_seconds;
  // The memoized copy keeps a default trace: a later memo hit gets a
  // fresh trace for ITS lifecycle, never the solving request's.
  // kAnytime answers are never stored: they depend on the deadline, a
  // runtime control deliberately outside the key — memoizing one would
  // let a degraded answer shadow the exact one forever. kExact and
  // kSampled are deterministic functions of the key (the sampling draw
  // is seeded), so they memoize like before.
  if (options_.result_capacity > 0 && response.tier != QualityTier::kAnytime) {
    ResultStore(result_key, response);
  }
  return response;
}

Result<SelectResponse> SelectionEngine::DegradedAttempt(
    const SelectRequest& request,
    std::shared_ptr<const IndexedCorpus> corpus,
    const std::string& prepare_key, const ExecControl& control,
    const ParallelContext& parallel, RequestTrace* trace) const {
  COMPARESETS_RETURN_NOT_OK(CheckLive(control, "degraded prepare"));

  Timer prepare_timer;
  bool cache_hit = false;
  auto prepared =
      Prepare(std::move(corpus), prepare_key, request, &cache_hit);
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

  SelectResponse response;
  response.target_id = bundle.instance.target().id;
  response.item_ids.reserve(bundle.instance.num_items());
  for (const Product* item : bundle.instance.items) {
    response.item_ids.push_back(item->id);
  }
  response.selections = std::move(solved.value().selections);
  response.objective = solved.value().objective;
  response.tier = QualityTier::kAnytime;
  response.objective_gap = 0.0;
  trace->tier = QualityTierName(response.tier);
  trace->objective_gap = response.objective_gap;
  if (options_.measure_alignment) {
    response.alignment =
        MeasureAlignment(bundle.instance, response.selections);
  }
  response.cache_hit = cache_hit;
  response.prepare_seconds = prepare_seconds;
  response.solve_seconds = solve_seconds;
  // Deliberately not memoized: this answer reflects load, not the key.
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
        auto degraded = DegradedAttempt(request, corpus, prepare_key,
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
        return SelectAttempt(request, corpus, prepare_key, result_key,
                             control, parallel, &trace);
      },
      [&](double slept_seconds) {
        metrics_.counter("engine.retries").Increment();
        trace.backoff_seconds += slept_seconds;
      });
  if (!outcome.ok()) return fail(outcome.status());
  return finish_ok(std::move(outcome).value());
}

void SelectionEngine::PrefetchWindow(
    const std::vector<SelectRequest>& requests, size_t begin,
    size_t end) const {
  // Chaos drills want the cold path: a prefetch would consume injected
  // cache-lookup faults aimed at the requests themselves.
  if (options_.fault_injector != nullptr) return;
  std::shared_ptr<const IndexedCorpus> corpus;
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(corpus_mutex_);
    corpus = corpus_;
    epoch = corpus_epoch_;
  }
  // One warm-up per unique (instance, selector, λ): Prepare stages the
  // vectors under the same key the request will look up, and the
  // selector's PrefetchSystems fills the instance's design-system cache
  // in one batched Gram kernel pass. Requests arriving after a
  // mid-batch Publish read a newer epoch and simply miss cold —
  // never a stale answer.
  std::unordered_set<std::string> warmed;
  for (size_t i = begin; i < end; ++i) {
    const SelectRequest& request = requests[i];
    if (request.target_id.empty()) continue;
    std::string prepare_key = CacheKey(epoch, options_.opinion, request);
    std::string warm_key = prepare_key;
    warm_key += '\x1f';
    warm_key += request.selector;
    warm_key += '\x1f';
    warm_key += ExactDouble(request.options.lambda);
    if (!warmed.insert(std::move(warm_key)).second) continue;
    bool cache_hit = false;
    auto prepared = Prepare(corpus, prepare_key, request, &cache_hit);
    if (!prepared.ok()) continue;
    auto selector = MakeSelector(request.selector);
    if (!selector.ok()) continue;
    selector.value()->PrefetchSystems(prepared.value()->vectors,
                                      request.options);
    metrics_.counter("engine.batch_prefetches").Increment();
  }
}

void SelectionEngine::RunWindow(
    const std::vector<SelectRequest>& requests, size_t begin, size_t end,
    std::vector<std::optional<Result<SelectResponse>>>* slots) const {
  ThreadPool& pool = *options_.pool;
  // ParallelFor lets the caller participate, so even a 1-worker pool
  // runs two lanes. A single-threaded engine promises serial in-order
  // batches (a repeated target is guaranteed to warm-hit) — one lane
  // runs the window inline, in request order. On more lanes, exact
  // repeats coalesce onto their head's lane: the head solves and its
  // duplicates replay in order behind it, deterministically memo-hitting
  // instead of racing the head on sibling lanes.
  const size_t lanes = pool.num_threads() <= 1 ? 1 : 0;
  const bool coalesce = lanes != 1 && options_.result_capacity > 0;
  const uint64_t epoch = corpus_epoch();
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<std::string, size_t> group_of;
  for (size_t i = begin; i < end; ++i) {
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
  // The lanes run in the batch class, so a concurrent interactive
  // Select's helpers jump ahead of them in the deques; each request
  // fans out on the same pool under its batch-demoted priority.
  pool.ParallelFor(
      groups.size(),
      [&](size_t g) {
        for (size_t i : groups[g]) {
          (*slots)[i] = SelectAtPriority(
              requests[i],
              DemotePriority(requests[i].priority, options_.batch_priority));
        }
      },
      lanes, options_.batch_priority);
}

std::vector<Result<SelectResponse>> SelectionEngine::SelectBatch(
    const std::vector<SelectRequest>& requests) const {
  metrics_.counter("engine.batches").Increment();
  std::vector<std::optional<Result<SelectResponse>>> slots(requests.size());
  // Windowed batching stages each window's shared kernel work (unique
  // prepares + batched Gram builds) before any of its requests solves.
  // Payloads are bit-identical to the unwindowed path; only warm-state
  // flags change (prefetched requests report cache_hit). With the
  // window off, the whole batch is one window with no prefetch.
  const bool windowed =
      options_.batch_kernel_window >= 2 && requests.size() > 1;
  const size_t window =
      windowed ? options_.batch_kernel_window : requests.size();
  for (size_t begin = 0; begin < requests.size(); begin += window) {
    size_t end = std::min(begin + window, requests.size());
    if (windowed) PrefetchWindow(requests, begin, end);
    RunWindow(requests, begin, end, &slots);
  }

  std::vector<Result<SelectResponse>> responses;
  responses.reserve(slots.size());
  for (auto& slot : slots) responses.push_back(std::move(*slot));
  return responses;
}

void SelectionEngine::RefreshGauges() const {
  VectorCacheStats stats = cache_.Stats();
  metrics_.SetGauge("cache.entries", static_cast<double>(stats.entries));
  metrics_.SetGauge("cache.approx_bytes",
                    static_cast<double>(stats.approx_bytes));
  metrics_.SetGauge("cache.evictions", static_cast<double>(stats.evictions));
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    metrics_.SetGauge("result_cache.entries",
                      static_cast<double>(result_lru_.size()));
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
