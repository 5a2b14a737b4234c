// Lightweight operational metrics for the serving layer: named
// monotonic counters and latency histograms with a text dump hook,
// plus a bounded ring of structured per-request traces (request id,
// queue wait, per-stage wall time, solver iterations, cache outcome)
// dumpable as JSONL.
// Counters are lock-free; histograms take a short lock per observation.
// Registered instruments live as long as the registry and are safe to
// update from any engine worker thread.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/cancellation.h"

namespace comparesets {

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Summary snapshot of a histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Observations per power-of-ten bucket; bucket b counts values in
  /// [10^(b + kMinExponent), 10^(b + kMinExponent + 1)).
  std::vector<uint64_t> buckets;
};

/// Histogram over positive values (latencies in seconds), bucketed by
/// decade from 1µs to 1000s; out-of-range values clamp to the edges.
class Histogram {
 public:
  static constexpr int kMinExponent = -6;  ///< First bucket: 1µs.
  static constexpr int kNumBuckets = 10;   ///< Last bucket: ≥ 1000s.

  void Observe(double value);
  HistogramSnapshot Snapshot() const;

 private:
  mutable std::mutex mutex_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t buckets_[kNumBuckets] = {};
};

/// Structured record of one engine request's lifecycle: admission →
/// queue → prepare → solve → memo. One trace is recorded per request
/// (success or failure); the serve subcommand dumps the ring as JSONL.
struct RequestTrace {
  uint64_t request_id = 0;       ///< Engine-assigned, monotonic per shard.
  /// Which shard engine served the request (0 on an unsharded engine).
  /// Together with request_id this is unique across a ShardRouter.
  uint64_t shard_id = 0;
  /// Epoch of the corpus snapshot the request resolved against; bumped
  /// by every (per-shard) Publish, so traces can be correlated with
  /// catalog publications in the JSONL stream.
  uint64_t corpus_epoch = 0;
  /// Cumulative streamed reviews delta-applied to this shard's engine
  /// when the request resolved (service/ingest) — the freshness of the
  /// snapshot the answer came from, correlatable with ingest batches
  /// the same way corpus_epoch correlates with swaps.
  uint64_t ingest_records = 0;
  std::string target_id;
  std::string selector;
  std::string status = "ok";     ///< StatusCodeName of the outcome.
  /// QualityTierName of the answer ("exact", "anytime", "sampled") —
  /// what the caller actually got, distinct from `status`: a degraded
  /// request is still status "ok".
  std::string tier = "exact";
  /// The response's objective-gap bound (0 unless tier is "sampled").
  double objective_gap = 0.0;
  /// RequestPriorityName of the request's EFFECTIVE scheduling class
  /// ("interactive" / "batch") — after any batch demotion, so a trace
  /// shows the class the admission queue and scheduler actually used.
  std::string priority = "interactive";
  int attempts = 1;              ///< 1 + transient-fault retries.
  bool cache_hit = false;        ///< Prepared vectors served warm.
  bool result_cache_hit = false; ///< Whole response from the memo.
  uint64_t solver_iterations = 0;///< ExecControl checks during the solve.
  uint64_t nnls_nonconverged = 0;///< NNLS refits that hit their iteration cap.
  uint64_t intra_parallel_fanouts = 0;///< Intra-request fan-outs (> 1 lane).
  uint64_t intra_parallel_tasks = 0;  ///< Tasks those fan-outs distributed.
  /// Named solver-phase timings (crs.items, compare_sets_plus.round, ...)
  /// recorded through the request's SpanSink; repeated phases repeat.
  std::vector<TraceSpan> spans;
  double queue_seconds = 0.0;    ///< Admission wait (0 when unthrottled).
  double backoff_seconds = 0.0;  ///< Total retry backoff slept.
  double prepare_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;

  /// One compact JSON object (a JSONL line, sans newline).
  std::string ToJson() const;
};

/// Point-in-time copy of every instrument in a registry, sorted by
/// name. The unit routers and exporters aggregate across shards.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Named instrument registry. Lookup interns the instrument on first
/// use; returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time gauge (set, not accumulated) for sizes/footprints.
  void SetGauge(const std::string& name, double value);

  /// Caps the trace ring (default 256; 0 disables tracing). Shrinking
  /// drops the oldest entries.
  void SetTraceCapacity(size_t capacity);

  /// Appends a request trace, evicting the oldest past the capacity.
  void RecordTrace(RequestTrace trace);

  /// Retained traces, oldest first.
  std::vector<RequestTrace> Traces() const;

  /// The trace ring as JSONL, one request per line, oldest first.
  std::string DumpTracesJsonl() const;

  /// Human-readable dump, one instrument per line, sorted by name.
  std::string Dump() const;

  /// Copies every instrument's current value, sorted by name.
  MetricsSnapshot Snapshot() const;

  /// Prometheus text-exposition rendering of this registry. `labels` is
  /// an optional label set pasted verbatim into every sample's braces
  /// (e.g. `shard="0"`); metric names are sanitized (dots become
  /// underscores), counters get the conventional `_total` suffix, and
  /// histograms render cumulative decade buckets plus `_sum`/`_count`.
  std::string RenderPrometheus(const std::string& labels = {}) const;

  /// Merges several labeled snapshots into one exposition document: one
  /// `# TYPE` line per metric family, then one sample per label set
  /// that has the family. This is how a ShardRouter exports N shard
  /// registries without repeating family headers.
  static std::string RenderPrometheus(
      const std::vector<std::pair<std::string, MetricsSnapshot>>& labeled);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, double> gauges_;
  size_t trace_capacity_ = 256;
  std::deque<RequestTrace> traces_;
};

}  // namespace comparesets
