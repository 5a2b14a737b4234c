// Shared harness of the serving benchmark: run arguments, the timed
// window every workload fills, the compact per-request outcome record,
// the set-up breakdown, the per-layer metric table, and small
// measurement helpers (percentiles, process CPU / RSS / thread count,
// a Zipf sampler, payload digests).
//
// The benchmark drives the library only through its public API; every
// span it records is taken from this directory, around calls into a
// layer's public functions.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/engine.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

using comparesets::Result;
using comparesets::Rng;
using comparesets::SelectRequest;
using comparesets::SelectResponse;
using comparesets::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets and the WAL (inside the checkout).
  std::string workdir = ".bench_build/run";
  /// Tiny catalogs and sequences, for the smoke test only. Sizes differ
  /// from the benchmark's, so its figures are never comparable.
  bool tiny = false;
};

/// Wall time of each set-up phase of one set-up (seconds).
struct SetupTimes {
  double generate_s = 0.0;
  double index_s = 0.0;
  double partition_s = 0.0;
  double start_s = 0.0;
  double warm_s = 0.0;
  double total() const {
    return generate_s + index_s + partition_s + start_s + warm_s;
  }
};

/// One request's outcome, reduced to what the checks and the per-layer
/// metrics read, and kept small: a window holds one per request, and
/// the process's peak RSS is an end-to-end metric. Traced windows also
/// keep the whole response.
struct Outcome {
  /// The request, owned by the workload's sequence.
  const SelectRequest* request = nullptr;
  uint64_t digest = 0;  ///< PayloadDigest of the answer (ok only).
  float queue_s = 0.0f;
  float prepare_s = 0.0f;
  float solve_s = 0.0f;
  float total_s = 0.0f;
  float core_span_s = 0.0f;  ///< Sum of the solver-phase spans.
  uint32_t fanouts = 0;
  uint32_t nnls_nonconverged = 0;
  uint32_t plus_rounds = 0;  ///< compare_sets_plus.round spans.
  bool ok = false;
  bool exact = false;
  bool memo_hit = false;
  bool vector_hit = false;
  std::shared_ptr<const SelectResponse> response;
};

/// One replay of a workload's request sequence.
struct Window {
  std::vector<double> call_s;       ///< Caller-visible latency per call.
  std::vector<Outcome> outcomes;    ///< Per request, in sequence order.
  std::vector<double> freshness_s;  ///< ingest: first Append -> drained.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  int threads = 0;
};

/// Per-layer metrics of a traced run, by name. Every name of
/// LayerMetricTable() is always present; a layer that does no work on
/// a workload reports 0.
using LayerValues = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetricTable();
const std::vector<MetricDef>& LayerMetricTable();

/// Result of checking a window against the reference.
struct Verdict {
  size_t checked = 0;
  size_t mismatches = 0;
  std::string first_mismatch;
  void Mismatch(const std::string& what) {
    if (mismatches++ == 0) first_mismatch = what;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The spec this run was asked for, as a JSON object body.
  virtual std::string SpecJson() const = 0;
  /// Builds fresh serving state, replacing any previous one.
  virtual Status Setup(SetupTimes* times) = 0;
  /// Replays the fixed request sequence once against the current state.
  virtual Status Run(bool traced, Window* window) = 0;
  /// Compares every answer of `window` against a reference computed
  /// outside the timed window.
  virtual Status Verify(const Window& window, Verdict* verdict) = 0;
  /// Fills the workload-specific per-layer metrics from a traced window
  /// (replays outside its timed calls), including unattributed_ms.
  /// Cross-path checks made here add to `verdict`.
  virtual Status Layers(const Window& traced, LayerValues* layers,
                        Verdict* verdict) = 0;
  /// Stops servers and threads; the workload holds no state afterwards.
  virtual void Teardown() = 0;
};

std::unique_ptr<Workload> MakeInteractive(const Args& args);
std::unique_ptr<Workload> MakeIngest(const Args& args);

/// The net layer's per-layer metrics (net.*), from a traced replay of
/// 1010 rpc frames over the interactive catalog: set up 4 in-process
/// shard servers, replay, check the answers against the reference and
/// a local router, and time the codecs and the wire.
Status NetLayers(const Args& args, LayerValues* layers, Verdict* verdict);

/// The router layer's per-layer metrics (router.*) and the Crs and
/// CompaReSetS solve times (core.crs_ms, core.compare_sets_ms), from a
/// replay of 300 catalog-wide SelectBatch calls over 4 local shards:
/// check the answers against the reference, then replay every call
/// shard by shard on a fresh router.
Status BatchLayers(const Args& args, LayerValues* layers, Verdict* verdict);

// ---- measurement helpers -------------------------------------------

double NowSeconds();
double ProcessCpuSeconds();
double PeakRssMb();
int ThreadCount();
int Nproc();
/// Approximate footprint of an engine's vector cache, in MiB.
double EngineCacheMb(const comparesets::SelectionEngine& engine);
/// The synthetic Cellphone catalog of `products` products. It is the
/// same for every --seed: the catalog is the store's fixed data, and the
/// seed draws the traffic over it (and the reviews ingest appends), so
/// runs under different seeds differ in their requests, not in a
/// catalog whose size moves set-up time and memory on its own.
constexpr uint64_t kCatalogSeed = 42;
Result<comparesets::Corpus> GenerateCatalog(size_t products);

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Calls in a timed window: `seconds` times the workload's nominal call
/// rate, but never fewer than `min_calls`, so p99 has >= 10 samples
/// beyond it.
size_t SequenceCalls(const Args& args, double calls_per_second,
                     size_t min_calls);

/// Zipf(s) over [0, n): P(i) proportional to 1/(i+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, Rng* rng);

/// Identity of a request: target, comparative ids, selector and every
/// option that changes the answer.
std::string RequestKey(const SelectRequest& request);
/// FNV-1a over the answer payload: item ids, selections, objective
/// bits and tier. Equal payloads give equal digests.
uint64_t PayloadDigest(const SelectResponse& response);
/// `request` must outlive the outcome.
Outcome Summarize(const SelectRequest& request,
                  const Result<SelectResponse>& result, bool keep_response);

/// Runs `body` as the timed window: fills `window`'s wall and CPU time
/// around it, and its peak RSS and thread count right after it.
template <typename Body>
Status TimeWindow(Window* window, Body body) {
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  Status status = body();
  window->wall_s = NowSeconds() - t0;
  window->cpu_s = ProcessCpuSeconds() - cpu0;
  window->peak_rss_mb = PeakRssMb();
  window->threads = ThreadCount();
  return status;
}

/// One call per frame, closed loop: `send(frame)` returns the frame's
/// answers, which are summarized in order into `window`.
template <typename Send>
Status ReplayFrames(const std::vector<std::vector<SelectRequest>>& frames,
                    bool traced, Window* window, Send send) {
  size_t requests = 0;
  for (const std::vector<SelectRequest>& frame : frames) {
    requests += frame.size();
  }
  window->call_s.reserve(frames.size());
  window->outcomes.reserve(requests);
  return TimeWindow(window, [&] {
    for (const std::vector<SelectRequest>& frame : frames) {
      const double start = NowSeconds();
      std::vector<Result<SelectResponse>> answers = send(frame);
      window->call_s.push_back(NowSeconds() - start);
      for (size_t i = 0; i < frame.size(); ++i) {
        window->outcomes.push_back(Summarize(frame[i], answers[i], traced));
      }
    }
    return Status::OK();
  });
}

/// A CompaReSetS+ request for `target_id` at the default options.
SelectRequest DefaultRequest(const std::string& target_id);

/// Compares outcomes against reference digests keyed by RequestKey.
void CheckAgainst(const std::vector<Outcome>& outcomes,
                  const std::map<std::string, uint64_t>& reference,
                  Verdict* verdict);

/// Reference digests for `requests`: each distinct request solved once
/// by a serial single SelectionEngine over `corpus` (one thread, memo
/// and alignment off), the distinct requests split over one such engine
/// per core.
Status ReferenceDigests(
    std::shared_ptr<const comparesets::IndexedCorpus> corpus,
    const std::vector<SelectRequest>& requests,
    std::map<std::string, uint64_t>* reference);

/// Engine-side layers read from the traced outcomes: util fan-outs,
/// pipeline queue waits, engine hit shares and phase times, core spans.
void EngineLayers(const Window& traced, LayerValues* layers);

/// Replays the prepare and solve kernels on the instances the traced
/// window solved cold: BuildInstanceVectors (opinion), and per item
/// BuildCompareSetsSystem / SolveNompGram / SolveNnlsGram (linalg).
void KernelLayers(const comparesets::IndexedCorpus& corpus,
                  const Window& traced, LayerValues* layers);

/// Replays MeasureAlignment on every traced answer that carried a fresh
/// alignment. Returns per-outcome alignment seconds (0 where none).
std::vector<double> AlignmentLayers(const comparesets::IndexedCorpus& corpus,
                                    const Window& traced,
                                    LayerValues* layers);

/// Median over lone-Select calls of latency minus the engine-reported
/// queue + prepare + solve (plus `extra_s[i]`, e.g. replayed alignment);
/// memo hits are attributed whole to the engine's own total.
double LoneSelectUnattributedMs(const Window& traced,
                                const std::vector<double>& extra_s);

}  // namespace perfbench
