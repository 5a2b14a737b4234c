// Common interface for comparative review-set selectors: the paper's
// CompaReSetS / CompaReSetS+ and the baselines Crs, CompaReSetSGreedy,
// and Random (§4.1.2).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "opinion/vectors.h"
#include "util/cancellation.h"
#include "util/parallel.h"
#include "util/status.h"

namespace comparesets {

/// Quality tier of a selection result — what the caller actually got,
/// ordered from most degraded to exact. The numeric order is the
/// contract: a request's `min_tier` is a FLOOR, and a smaller value is
/// a looser floor (accepts more degradation).
///   kExact   — the selector ran to completion over the full corpus.
///   kAnytime — the deadline fired mid-solve; the greedy incumbent was
///              returned instead of an error.
///   kSampled — huge items were solved over a seeded review sample;
///              `objective_gap` bounds what the sample may have missed.
enum class QualityTier : uint8_t {
  kSampled = 0,
  kAnytime = 1,
  kExact = 2,
};

/// Stable lowercase name ("sampled", "anytime", "exact").
const char* QualityTierName(QualityTier tier);

/// Inverse of QualityTierName; unknown names return kInvalidArgument.
Result<QualityTier> ParseQualityTier(const std::string& name);

/// The looser (more degraded) of two floors — how an engine-wide
/// degradation policy combines with a per-request one: either side may
/// loosen, neither may tighten the other.
inline QualityTier LooserTier(QualityTier a, QualityTier b) {
  return static_cast<uint8_t>(a) < static_cast<uint8_t>(b) ? a : b;
}

struct SelectorOptions {
  /// Maximum number of reviews to select per item (paper's m).
  size_t m = 3;
  /// Opinion-vs-aspect trade-off λ (best value in the paper: 1).
  double lambda = 1.0;
  /// Cross-item synchronization weight μ (best value in the paper: 0.1).
  double mu = 0.1;
  /// Seed for stochastic selectors (Random).
  uint64_t seed = 7;
  /// Extra coordinate-descent sweeps for CompaReSetS+ beyond Algorithm 1's
  /// single pass (0 reproduces the paper; more sweeps is an extension
  /// that can only improve the objective).
  int extra_sync_rounds = 0;
  /// Intra-request parallelism: the pool (if any) the selector may fan
  /// its independent per-item solves onto, and a lane cap. A *runtime
  /// control* like the deadline — it changes wall-clock, never the
  /// selections (parallel is bit-identical to serial; see
  /// docs/execution-model.md) — so the engine's result memo excludes it
  /// from the key. Default: empty (serial).
  ParallelContext parallel;
  /// Lowest quality tier the caller accepts (the degradation FLOOR).
  /// kExact (the default) is the pre-tier behaviour: deadline expiry
  /// and overload are errors. kAnytime additionally allows SelectTiered
  /// to answer with the greedy incumbent when the deadline fires.
  /// kSampled additionally allows review-sampled solves on items above
  /// `sample_threshold`. The floor never changes a completed exact
  /// solve — it only widens what counts as an answer.
  QualityTier min_tier = QualityTier::kExact;
  /// Items with more than this many reviews are solved over a seeded
  /// review sample when the floor admits kSampled (0 = never sample).
  size_t sample_threshold = 0;
  /// Reviews drawn per sampled item. Values >= the item's review count
  /// promote the item back to the full (exact) solve.
  size_t sample_size = 0;
};

/// Rejects options no selector can answer: m == 0, or a non-finite λ
/// or μ (which would otherwise surface as a NaN objective). Every
/// selector's Select calls this first, so a bad request fails with the
/// same kInvalidArgument on every serving path.
Status ValidateSelectorOptions(const SelectorOptions& options);

struct SelectionResult {
  /// One selection (review indices, sorted) per item; index 0 = target.
  std::vector<Selection> selections;
  /// The Eq. 5 objective value of the selections (with the options' λ, μ),
  /// reported uniformly so all algorithms are comparable.
  double objective = 0.0;
  /// What the caller actually got (see QualityTier). Select fills
  /// kExact or kSampled; only SelectTiered ever returns kAnytime.
  QualityTier tier = QualityTier::kExact;
  /// Upper bound on the review mass the solve could not see: the
  /// largest per-item fraction of reviews in dedup groups the sample
  /// under-covered. 0 for exact and anytime results; in [0, 1] for
  /// sampled ones. A bound, not an objective delta — gap 0 with
  /// tier kSampled never happens (such items promote to exact).
  double objective_gap = 0.0;
};

class ReviewSelector {
 public:
  virtual ~ReviewSelector() = default;

  /// Stable display name used in benchmark tables.
  virtual std::string name() const = 0;

  /// Selects at most options.m reviews per item of the instance.
  /// `control` carries the caller's deadline/cancellation, checked at
  /// iteration boundaries (per item, per sweep, per NOMP/NNLS step);
  /// expiry returns kDeadlineExceeded / kCancelled instead of running
  /// on. A nullptr control (the convenience overload below) solves
  /// uncontrolled — completed runs are bit-identical either way.
  virtual Result<SelectionResult> Select(const InstanceVectors& vectors,
                                         const SelectorOptions& options,
                                         const ExecControl* control) const = 0;

  /// Uncontrolled solve (no deadline, not cancellable).
  Result<SelectionResult> Select(const InstanceVectors& vectors,
                                 const SelectorOptions& options) const {
    return Select(vectors, options, nullptr);
  }

  /// Tier-aware solve: Select, wrapped in the anytime protocol when the
  /// options' floor admits degradation AND the control carries a real
  /// deadline. The greedy incumbent is computed first (deadline
  /// stripped — it is the answer of last resort, so it must not itself
  /// expire; cancellation still aborts it), then this selector refines
  /// under the full control. A refinement that completes no worse than
  /// the incumbent is returned as-is (tier kExact / kSampled); deadline
  /// expiry — or a completed refinement that lost to the incumbent,
  /// which NOMP rounding permits — returns the incumbent as kAnytime.
  /// With the default kExact floor this IS Select: same call, same
  /// bits, same errors.
  Result<SelectionResult> SelectTiered(const InstanceVectors& vectors,
                                       const SelectorOptions& options,
                                       const ExecControl* control) const;
};

/// Factory by table name: "Random", "Crs", "CompaReSetSGreedy",
/// "CompaReSetS", "CompaReSetS+". Unknown names return an error.
Result<std::unique_ptr<ReviewSelector>> MakeSelector(const std::string& name);

/// All selector names in the paper's table order.
const std::vector<std::string>& AllSelectorNames();

}  // namespace comparesets
