#include "core/crs.h"

#include <utility>

#include "core/integer_regression.h"
#include "core/review_sampling.h"
#include "eval/objective.h"
#include "util/timer.h"

namespace comparesets {

Result<SelectionResult> CrsSelector::Select(
    const InstanceVectors& vectors, const SelectorOptions& options,
    const ExecControl* control) const {
  COMPARESETS_RETURN_NOT_OK(ValidateSelectorOptions(options));
  // Each item's characteristic system is independent — fan the solves
  // out over the request's pool; the index-ordered merge keeps parallel
  // selections bit-identical to serial. Each lane writes only its own
  // sampling slot, so the outcome fold below is race-free.
  size_t n = vectors.num_items();
  std::vector<double> uncovered(n, 0.0);
  std::vector<char> restricted(n, 0);
  Timer timer;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::vector<IntegerRegressionResult> items,
      SolveItemsParallel(
          n, options.parallel, control, "crs item loop",
          [&](size_t i) {
            RestrictedSystem system = MaybeSampleSystem(
                BuildCrsSystem(vectors, i), options, i,
                vectors.num_reviews(i));
            uncovered[i] = system.uncovered_mass;
            restricted[i] = system.restricted ? 1 : 0;
            auto cost = [&](const Selection& selection) {
              // Pure characteristic objective: match the item's own opinion
              // distribution only.
              return SquaredDistance(vectors.tau(i),
                                     vectors.OpinionOf(i, selection));
            };
            return SolveIntegerRegression(system.system, options.m, cost,
                                          control);
          }));
  RecordSpan(control, "crs.items", timer.ElapsedSeconds());

  SelectionResult out;
  out.selections.reserve(items.size());
  for (IntegerRegressionResult& item : items) {
    out.selections.push_back(std::move(item.selection));
  }
  out.objective = CompareSetsPlusObjective(vectors, out.selections,
                                           options.lambda, options.mu);
  ApplySamplingOutcome(uncovered, restricted, &out);
  return out;
}

}  // namespace comparesets
