#include "core/compare_sets.h"

#include <utility>

#include "core/integer_regression.h"
#include "core/review_sampling.h"
#include "eval/objective.h"
#include "util/timer.h"

namespace comparesets {

Result<SelectionResult> CompareSetsSelector::Select(
    const InstanceVectors& vectors, const SelectorOptions& options,
    const ExecControl* control) const {
  COMPARESETS_RETURN_NOT_OK(ValidateSelectorOptions(options));
  // Problem 1 decomposes per item: every product's NOMP/rounding run is
  // independent of the others', so fan them out over the request's pool.
  // Each lane assembles its own system from the item's blocks (fetched
  // through the instance's ItemBlockCache, which locks) and solves on
  // its own thread-local scratch; the index-ordered merge keeps
  // selections bit-identical.
  // Each lane writes only its own sampling slot, so the outcome fold
  // below is race-free.
  size_t n = vectors.num_items();
  std::vector<double> uncovered(n, 0.0);
  std::vector<char> restricted(n, 0);
  Timer timer;
  COMPARESETS_ASSIGN_OR_RETURN(
      std::vector<IntegerRegressionResult> items,
      SolveItemsParallel(
          n, options.parallel, control, "comparesets item loop",
          [&](size_t i) {
            RestrictedSystem system = MaybeSampleSystem(
                BuildCompareSetsSystem(vectors, i, options.lambda), options,
                i, vectors.num_reviews(i));
            uncovered[i] = system.uncovered_mass;
            restricted[i] = system.restricted ? 1 : 0;
            auto cost = [&](const Selection& selection) {
              return ItemCost(vectors, i, selection, options.lambda);
            };
            return SolveIntegerRegression(system.system, options.m, cost,
                                          control);
          }));
  RecordSpan(control, "compare_sets.items", timer.ElapsedSeconds());

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
