#include "service/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "util/timer.h"

namespace comparesets {

ShardRouter::ShardRouter(RouterOptions options, std::vector<std::string> bounds,
                         std::vector<std::unique_ptr<ShardBackend>> backends)
    : options_(std::move(options)),
      bounds_(std::move(bounds)),
      backends_(std::move(backends)),
      states_(std::make_unique<std::atomic<int>[]>(backends_.size())),
      requests_(metrics_.counter("router.requests")),
      batches_(metrics_.counter("router.batches")),
      routed_(metrics_.counter("router.routed")),
      unavailable_(metrics_.counter("router.unavailable")),
      pool_(options_.engine.pool != nullptr
                ? options_.engine.pool
                : std::make_shared<ThreadPool>(options_.engine.threads)) {
  for (size_t s = 0; s < backends_.size(); ++s) {
    engines_.push_back(backends_[s]->local_engine());
    states_[s].store(static_cast<int>(ShardState::kServing));
    shard_requests_.push_back(
        &metrics_.counter("router.shard_requests." + std::to_string(s)));
  }
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    std::shared_ptr<const IndexedCorpus> corpus, size_t num_shards,
    RouterOptions options) {
  // One pool per serving process: the shard engines fan out on it and
  // the router scatters on it.
  if (options.engine.pool == nullptr) {
    options.engine.pool = std::make_shared<ThreadPool>(options.engine.threads);
  }
  COMPARESETS_ASSIGN_OR_RETURN(
      LocalBackendSet local,
      CreateLocalBackends(std::move(corpus), num_shards, options.engine));
  return Create(std::move(local.bounds), std::move(local.backends),
                std::move(options));
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    std::vector<std::string> bounds,
    std::vector<std::unique_ptr<ShardBackend>> backends,
    RouterOptions options) {
  if (backends.empty()) {
    return Status::InvalidArgument("ShardRouter requires backends");
  }
  if (bounds.size() != backends.size()) {
    return Status::InvalidArgument(
        "ShardRouter needs one bound per backend: " +
        std::to_string(bounds.size()) + " bounds, " +
        std::to_string(backends.size()) + " backends");
  }
  if (bounds[0] != "") {
    return Status::InvalidArgument("bounds[0] must be the empty string");
  }
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    return Status::InvalidArgument("bounds must be sorted");
  }
  for (const auto& backend : backends) {
    if (backend == nullptr) {
      return Status::InvalidArgument("ShardRouter backend is null");
    }
  }
  return std::unique_ptr<ShardRouter>(new ShardRouter(
      std::move(options), std::move(bounds), std::move(backends)));
}

size_t ShardRouter::ShardForTarget(const std::string& target_id) const {
  // bounds_[0] == "", so upper_bound never returns begin(): every id —
  // known to the catalog or not — lands in exactly one range, and an
  // unknown id produces the same NotFound a single engine would.
  auto it = std::upper_bound(bounds_.begin(), bounds_.end(), target_id);
  return static_cast<size_t>(it - bounds_.begin()) - 1;
}

ShardKeyRange ShardRouter::RangeOf(size_t shard_id) const {
  ShardKeyRange range;
  range.begin = bounds_[shard_id];
  if (shard_id + 1 < bounds_.size()) range.end = bounds_[shard_id + 1];
  return range;
}

Status ShardRouter::CheckRoutable(size_t shard) const {
  ShardState state = StateOf(shard);
  if (state == ShardState::kServing) return Status::OK();
  unavailable_.Increment();
  return Status::Unavailable("shard " + std::to_string(shard) + " " +
                             RangeOf(shard).ToString() + " is " +
                             ShardStateName(state));
}

Result<SelectResponse> ShardRouter::Select(const SelectRequest& request) const {
  requests_.Increment();
  if (options_.fault_injector) {
    Status injected = options_.fault_injector->Inject(FaultSite::kRoute);
    if (!injected.ok()) {
      metrics_.counter("router.route_faults").Increment();
      return injected;
    }
  }
  size_t shard = ShardForTarget(request.target_id);
  COMPARESETS_RETURN_NOT_OK(CheckRoutable(shard));
  routed_.Increment();
  shard_requests_[shard]->Increment();
  return backends_[shard]->Select(request);
}

std::vector<Result<SelectResponse>> ShardRouter::SelectBatch(
    const std::vector<SelectRequest>& requests) const {
  batches_.Increment();
  requests_.Increment(requests.size());
  std::vector<std::optional<Result<SelectResponse>>> slots(requests.size());

  // Scatter: route every request up front. Router-level refusals (route
  // faults, unavailable shards) land in their slots without touching
  // any backend; the rest are grouped per shard, original order kept.
  std::vector<std::vector<size_t>> by_shard(backends_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (options_.fault_injector) {
      Status injected = options_.fault_injector->Inject(FaultSite::kRoute);
      if (!injected.ok()) {
        metrics_.counter("router.route_faults").Increment();
        slots[i] = injected;
        continue;
      }
    }
    size_t shard = ShardForTarget(requests[i].target_id);
    Status routable = CheckRoutable(shard);
    if (!routable.ok()) {
      slots[i] = routable;
      continue;
    }
    routed_.Increment();
    shard_requests_[shard]->Increment();
    by_shard[shard].push_back(i);
  }

  // Gather: one task per shard with work. Each request's deadline spans
  // the whole gather — time lost before its shard dispatches (e.g. an
  // injected gather delay) is charged against it, so an expired request
  // is dropped HERE instead of burning a solve it can no longer use.
  Timer gather_timer;
  auto run_shard = [&](size_t shard) {
    if (options_.fault_injector) {
      Status injected = options_.fault_injector->Inject(FaultSite::kGather);
      if (!injected.ok()) {
        metrics_.counter("router.gather_faults").Increment();
        for (size_t i : by_shard[shard]) slots[i] = injected;
        return;
      }
    }
    double elapsed = gather_timer.ElapsedSeconds();
    std::vector<SelectRequest> sub;
    std::vector<size_t> sub_index;
    sub.reserve(by_shard[shard].size());
    sub_index.reserve(by_shard[shard].size());
    for (size_t i : by_shard[shard]) {
      if (requests[i].deadline_seconds > 0.0 &&
          requests[i].deadline_seconds <= elapsed) {
        metrics_.counter("router.gather_expired").Increment();
        slots[i] = Status::DeadlineExceeded(
            "deadline exceeded before gather dispatch to shard " +
            std::to_string(shard));
        continue;
      }
      sub.push_back(requests[i]);
      if (sub.back().deadline_seconds > 0.0) {
        sub.back().deadline_seconds -= elapsed;
      }
      sub_index.push_back(i);
    }
    if (sub.empty()) return;
    std::vector<Result<SelectResponse>> sub_responses =
        backends_[shard]->SelectBatch(sub);
    for (size_t j = 0; j < sub_index.size(); ++j) {
      slots[sub_index[j]] = std::move(sub_responses[j]);
    }
  };

  std::vector<size_t> active;
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (!by_shard[s].empty()) active.push_back(s);
  }
  // One lane per active shard, in the batch class (a concurrent lone
  // Select's helpers jump ahead). A 1-worker pool runs the sub-batches
  // inline in shard order. Each in-process engine then fans its
  // sub-batch out on this same pool.
  pool_->ParallelFor(
      active.size(), [&](size_t k) { run_shard(active[k]); },
      pool_->num_threads() <= 1 ? 1 : 0, options_.engine.batch_priority);

  std::vector<Result<SelectResponse>> responses;
  responses.reserve(slots.size());
  for (auto& slot : slots) responses.push_back(std::move(*slot));
  return responses;
}

Status ShardRouter::CheckPublishable(size_t shard_id) const {
  if (shard_id >= backends_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id));
  }
  if (engines_[shard_id] == nullptr) {
    return Status::NotImplemented(
        "shard " + std::to_string(shard_id) + " (" +
        backends_[shard_id]->name() +
        ") is remote: publishing a snapshot needs snapshot shipping");
  }
  return Status::OK();
}

Status ShardRouter::SwapShardCorpus(
    size_t shard_id, std::shared_ptr<const IndexedCorpus> full_corpus) {
  COMPARESETS_RETURN_NOT_OK(CheckPublishable(shard_id));
  if (full_corpus == nullptr) {
    return Status::InvalidArgument("SwapShardCorpus requires a corpus");
  }
  if (backends_.size() > 1) {
    Result<std::shared_ptr<const IndexedCorpus>> shard_corpus =
        CorpusPartitioner::ExtractShard(*full_corpus, bounds_, shard_id);
    if (!shard_corpus.ok()) {
      metrics_.counter("router.shard_swap_failures").Increment();
      return shard_corpus.status();
    }
    full_corpus = std::move(shard_corpus).value();
  }
  return PublishToShard(shard_id, std::move(full_corpus), 0,
                        "router.shard_swaps", "router.shard_swap_failures");
}

Status ShardRouter::ApplyShardDelta(
    size_t shard_id, std::shared_ptr<const IndexedCorpus> snapshot,
    size_t reviews_added) {
  COMPARESETS_RETURN_NOT_OK(CheckPublishable(shard_id));
  if (snapshot == nullptr) {
    return Status::InvalidArgument("ApplyShardDelta requires a snapshot");
  }
  return PublishToShard(shard_id, std::move(snapshot), reviews_added,
                        "router.shard_deltas", "router.shard_delta_failures");
}

Status ShardRouter::PublishToShard(
    size_t shard_id, std::shared_ptr<const IndexedCorpus> snapshot,
    size_t reviews_added, const char* published, const char* failed) {
  std::lock_guard<std::mutex> lock(admin_mutex_);
  // The shard goes kSwapping for the publication: its range answers
  // kUnavailable instead of mixing snapshots. On failure the previous
  // state (and the engine's previous snapshot) are kept.
  int previous =
      states_[shard_id].exchange(static_cast<int>(ShardState::kSwapping),
                                 std::memory_order_acq_rel);
  Status status =
      engines_[shard_id]->Publish(std::move(snapshot), reviews_added);
  if (!status.ok()) {
    states_[shard_id].store(previous, std::memory_order_release);
    metrics_.counter(failed).Increment();
    return status;
  }
  // A successful publication always leaves the shard serving —
  // publishing a fresh snapshot into a kDown shard is how it is revived.
  states_[shard_id].store(static_cast<int>(ShardState::kServing),
                          std::memory_order_release);
  metrics_.counter(published).Increment();
  return Status::OK();
}

Status ShardRouter::SetShardState(size_t shard_id, ShardState state) {
  if (shard_id >= backends_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id));
  }
  if (state == ShardState::kSwapping) {
    return Status::InvalidArgument(
        "kSwapping is owned by snapshot publication; set kServing or kDown");
  }
  std::lock_guard<std::mutex> lock(admin_mutex_);
  states_[shard_id].store(static_cast<int>(state), std::memory_order_release);
  metrics_.counter("router.shard_state_changes").Increment();
  return Status::OK();
}

std::vector<ShardStatus> ShardRouter::ShardStatuses() const {
  std::vector<ShardStatus> statuses;
  statuses.reserve(backends_.size());
  for (size_t s = 0; s < backends_.size(); ++s) {
    Result<ShardStatus> probed = backends_[s]->Probe();
    ShardStatus status;
    if (probed.ok()) {
      status = std::move(probed).value();
    } else {
      status.shard_id = s;
      status.range = RangeOf(s);
    }
    // Routing state is the router's: a shard it holds down or
    // mid-publication refuses its range whatever the backend reports.
    ShardState routed = StateOf(s);
    if (routed != ShardState::kServing) status.state = routed;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

Status ShardRouter::WaitReady(double timeout_seconds) const {
  Timer timer;
  for (size_t s = 0; s < backends_.size(); ++s) {
    for (;;) {
      Result<ShardStatus> health = backends_[s]->Probe();
      if (health.ok() && health.value().ready) break;
      if (timer.ElapsedSeconds() >= timeout_seconds) {
        Status last =
            health.ok()
                ? Status::Unavailable(std::string("shard not ready, state=") +
                                      ShardStateName(health.value().state))
                : health.status();
        return Status::Timeout("shard " + std::to_string(s) + " (" +
                               backends_[s]->name() + ") not ready: " +
                               last.ToString());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  return Status::OK();
}

namespace {

/// Sums engine snapshots instrument-by-instrument: counters and gauges
/// add; histograms merge (count/sum/buckets add, min/max combine).
MetricsSnapshot RollupSnapshots(const std::vector<MetricsSnapshot>& shards) {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  for (const MetricsSnapshot& shard : shards) {
    for (const auto& [name, value] : shard.counters) counters[name] += value;
    for (const auto& [name, value] : shard.gauges) {
      // Pool gauges describe the pool the shards share, which the
      // router reports once itself.
      if (name.rfind("pool.", 0) == 0) continue;
      gauges[name] += value;
    }
    for (const auto& [name, h] : shard.histograms) {
      HistogramSnapshot& merged = histograms[name];
      if (merged.count == 0) {
        merged = h;
        continue;
      }
      if (h.count == 0) continue;
      merged.min = std::min(merged.min, h.min);
      merged.max = std::max(merged.max, h.max);
      merged.count += h.count;
      merged.sum += h.sum;
      merged.buckets.resize(std::max(merged.buckets.size(), h.buckets.size()));
      for (size_t b = 0; b < h.buckets.size(); ++b) {
        merged.buckets[b] += h.buckets[b];
      }
    }
  }
  MetricsSnapshot rollup;
  for (auto& [name, value] : counters) rollup.counters.emplace_back(name, value);
  for (auto& [name, value] : gauges) rollup.gauges.emplace_back(name, value);
  for (auto& [name, h] : histograms) {
    h.mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    rollup.histograms.emplace_back(name, h);
  }
  return rollup;
}

/// Renders a snapshot in MetricsRegistry::Dump's line format.
std::string DumpSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(line, sizeof(line), "counter %s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "gauge %s %.6g\n", name.c_str(), value);
    out += line;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    std::snprintf(line, sizeof(line),
                  "histogram %s count=%llu mean=%.6gs min=%.6gs max=%.6gs\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean, h.min, h.max);
    out += line;
  }
  return out;
}

}  // namespace

std::string ShardRouter::DumpMetrics() const {
  std::vector<MetricsSnapshot> shards(engines_.size());
  for (size_t s = 0; s < engines_.size(); ++s) {
    if (engines_[s] != nullptr) shards[s] = engines_[s]->SnapshotMetrics();
  }
  // Router counters first, then the cross-shard rollup in the same
  // format a single engine dumps — so consumers of the unsharded dump
  // (scripts grepping "counter engine.requests") read the same lines.
  metrics_.SetGauge("pool.steals", static_cast<double>(pool_->steals()));
  std::string out = metrics_.Dump();
  out += DumpSnapshot(RollupSnapshots(shards));
  if (engines_.size() > 1) {
    for (size_t s = 0; s < engines_.size(); ++s) {
      if (engines_[s] == nullptr) continue;
      char header[128];
      std::snprintf(header, sizeof(header),
                    "--- shard %zu %s state=%s epoch=%llu ---\n", s,
                    RangeOf(s).ToString().c_str(), ShardStateName(StateOf(s)),
                    static_cast<unsigned long long>(
                        engines_[s]->corpus_epoch()));
      out += header;
      out += DumpSnapshot(shards[s]);
    }
  }
  return out;
}

std::string ShardRouter::RenderPrometheus() const {
  std::vector<std::pair<std::string, MetricsSnapshot>> labeled;
  labeled.reserve(engines_.size() + 1);
  labeled.emplace_back(std::string(), metrics_.Snapshot());
  for (size_t s = 0; s < engines_.size(); ++s) {
    if (engines_[s] == nullptr) continue;
    labeled.emplace_back("shard=\"" + std::to_string(s) + "\"",
                         engines_[s]->SnapshotMetrics());
  }
  return MetricsRegistry::RenderPrometheus(labeled);
}

std::string ShardRouter::DumpTraces() const {
  std::string out;
  for (const SelectionEngine* engine : engines_) {
    if (engine != nullptr) out += engine->DumpTraces();
  }
  return out;
}

std::vector<RequestTrace> ShardRouter::Traces() const {
  std::vector<RequestTrace> traces;
  for (const SelectionEngine* engine : engines_) {
    if (engine == nullptr) continue;
    std::vector<RequestTrace> shard_traces = engine->Traces();
    traces.insert(traces.end(),
                  std::make_move_iterator(shard_traces.begin()),
                  std::make_move_iterator(shard_traces.end()));
  }
  return traces;
}

}  // namespace comparesets
