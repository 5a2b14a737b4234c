// Deterministic fault injection for the serving path.
//
// Production failure modes — a cache backend erroring, a solver stalling
// long enough to blow a deadline, a slow catalog swap — are rare and
// timing-dependent, so tests can never wait for them to happen. The
// FaultInjector makes them happen on demand, reproducibly: each seam the
// engine exposes (cache lookup, solve, corpus swap) rolls dice from its
// own seeded util/rng stream, so a single-threaded engine replays the
// exact same fault sequence for the same seed and plan.
//
// Injected errors are Status::Internal with an "injected fault" message;
// the engine classifies them as transient and retries them with backoff
// (the point: exercise the retry path, not just the error path).
// Injected delays are real sleeps — the way tests force a deadline to
// expire inside a stage without depending on machine speed.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/rng.h"
#include "util/status.h"

namespace comparesets {

/// The engine seams a fault can be injected at.
enum class FaultSite {
  kCacheLookup = 0,  ///< VectorCache lookup inside Prepare.
  kSolve,            ///< Just before the selector runs.
  kCorpusSwap,       ///< Inside Publish, before the snapshot flips.
  kRoute,            ///< ShardRouter, before resolving the target's shard.
  kGather,           ///< ShardRouter, before each shard's gather task runs.
  kConnect,          ///< RPC client, before (re)connecting to a replica.
  kSend,             ///< RPC client, before sending a request frame.
  kRecv,             ///< RPC client, before reading the response frame.
};

/// Stable lowercase name for a fault site ("cache_lookup", ...).
const char* FaultSiteName(FaultSite site);

/// Per-site fault behaviour. All rates are probabilities in [0, 1];
/// `fail_first` takes precedence over the dice so tests can script
/// "fail exactly N times, then succeed" deterministically.
struct SiteFaults {
  /// Fail this many rolls at the site unconditionally before consulting
  /// error_rate — the knob for testing bounded retries.
  int fail_first = 0;
  /// Probability of returning an injected Internal error.
  double error_rate = 0.0;
  /// Probability of sleeping `delay_seconds` before proceeding.
  double delay_rate = 0.0;
  /// Injected sleep duration when the delay dice hit.
  double delay_seconds = 0.0;
};

/// The complete injection plan: one SiteFaults per seam plus the seed.
struct FaultPlan {
  uint64_t seed = 1;
  SiteFaults cache_lookup;
  SiteFaults solve;
  SiteFaults corpus_swap;
  SiteFaults route;
  SiteFaults gather;
  SiteFaults connect;
  SiteFaults send;
  SiteFaults recv;
};

/// Thread-safe injector. Each site draws from its own PCG stream
/// (streams derived from the plan seed), so faults at one seam never
/// perturb the dice sequence of another.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Rolls the site's dice: maybe sleeps, maybe returns an injected
  /// error. OK means "no fault this time, proceed".
  Status Inject(FaultSite site);

  uint64_t injected_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  uint64_t injected_delays() const {
    return delays_.load(std::memory_order_relaxed);
  }

 private:
  struct SiteState {
    SiteFaults faults;
    Rng rng{1, 1};
    int failures_dealt = 0;
  };

  SiteState& state(FaultSite site);

  FaultPlan plan_;
  std::mutex mutex_;
  SiteState sites_[8];
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> delays_{0};
};

}  // namespace comparesets
