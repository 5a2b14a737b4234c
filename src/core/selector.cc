#include "core/selector.h"

#include <cmath>
#include <utility>

#include "core/compare_sets.h"
#include "core/compare_sets_plus.h"
#include "core/crs.h"
#include "core/greedy_selector.h"
#include "core/random_selector.h"

namespace comparesets {

const char* QualityTierName(QualityTier tier) {
  switch (tier) {
    case QualityTier::kSampled:
      return "sampled";
    case QualityTier::kAnytime:
      return "anytime";
    case QualityTier::kExact:
      return "exact";
  }
  return "unknown";
}

Result<QualityTier> ParseQualityTier(const std::string& name) {
  if (name == "sampled") return QualityTier::kSampled;
  if (name == "anytime") return QualityTier::kAnytime;
  if (name == "exact") return QualityTier::kExact;
  return Status::InvalidArgument("unknown quality tier: '" + name +
                                 "' (want exact, anytime, or sampled)");
}

Status ValidateSelectorOptions(const SelectorOptions& options) {
  if (options.m == 0) return Status::InvalidArgument("m must be >= 1");
  if (!std::isfinite(options.lambda)) {
    return Status::InvalidArgument("lambda must be finite");
  }
  if (!std::isfinite(options.mu)) {
    return Status::InvalidArgument("mu must be finite");
  }
  return Status::OK();
}

Result<SelectionResult> ReviewSelector::SelectTiered(
    const InstanceVectors& vectors, const SelectorOptions& options,
    const ExecControl* control) const {
  // The anytime protocol only matters when degradation is allowed AND a
  // deadline can actually fire; everywhere else it would just burn a
  // greedy solve. This branch is what keeps the default path
  // bit-identical to the pre-tier engine: same Select call, same bits.
  bool bounded = control != nullptr && control->deadline != nullptr &&
                 control->deadline->limited();
  if (options.min_tier == QualityTier::kExact || !bounded) {
    return Select(vectors, options, control);
  }

  // Incumbent of last resort: the greedy baseline, deadline stripped so
  // an already-tight budget cannot leave us with nothing. Cancellation
  // stays honored — a caller that went away wants no answer at all.
  ExecControl incumbent_control = *control;
  incumbent_control.deadline = nullptr;
  CompareSetsGreedySelector greedy;
  COMPARESETS_ASSIGN_OR_RETURN(
      SelectionResult incumbent,
      greedy.Select(vectors, options, &incumbent_control));
  incumbent.tier = QualityTier::kAnytime;
  incumbent.objective_gap = 0.0;

  // Refine under the full control. Deadline expiry falls back to the
  // incumbent; every other failure (cancellation, bad arguments) is a
  // real error and propagates.
  auto refined = Select(vectors, options, control);
  if (!refined.ok()) {
    if (refined.status().code() == StatusCode::kDeadlineExceeded) {
      return incumbent;
    }
    return refined.status();
  }
  // Monotonicity: Integer Regression is a heuristic, so a completed
  // refinement may still lose to the greedy incumbent; never return the
  // worse of the two.
  if (refined.value().objective <= incumbent.objective) {
    return refined;
  }
  return incumbent;
}

Result<std::unique_ptr<ReviewSelector>> MakeSelector(const std::string& name) {
  if (name == "Random") return std::unique_ptr<ReviewSelector>(new RandomSelector());
  if (name == "Crs") return std::unique_ptr<ReviewSelector>(new CrsSelector());
  if (name == "CompaReSetSGreedy") {
    return std::unique_ptr<ReviewSelector>(new CompareSetsGreedySelector());
  }
  if (name == "CompaReSetS") {
    return std::unique_ptr<ReviewSelector>(new CompareSetsSelector());
  }
  if (name == "CompaReSetS+") {
    return std::unique_ptr<ReviewSelector>(new CompareSetsPlusSelector());
  }
  return Status::NotFound("unknown selector: " + name);
}

const std::vector<std::string>& AllSelectorNames() {
  static const std::vector<std::string>* kNames = new std::vector<std::string>{
      "Random", "Crs", "CompaReSetSGreedy", "CompaReSetS", "CompaReSetS+",
  };
  return *kNames;
}

}  // namespace comparesets
