#include "core/greedy_selector.h"

#include <algorithm>
#include <limits>

#include "eval/objective.h"

namespace comparesets {

Result<SelectionResult> CompareSetsGreedySelector::Select(
    const InstanceVectors& vectors, const SelectorOptions& options,
    const ExecControl* control) const {
  COMPARESETS_RETURN_NOT_OK(ValidateSelectorOptions(options));

  SelectionResult out;
  out.selections.reserve(vectors.num_items());

  for (size_t i = 0; i < vectors.num_items(); ++i) {
    size_t num_reviews = vectors.num_reviews(i);
    Selection selection;
    std::vector<bool> used(num_reviews, false);
    double current_cost = std::numeric_limits<double>::infinity();

    while (selection.size() < std::min(options.m, num_reviews)) {
      COMPARESETS_RETURN_NOT_OK(CheckExec(control, "greedy growth"));
      double best_cost = std::numeric_limits<double>::infinity();
      size_t best_j = num_reviews;
      for (size_t j = 0; j < num_reviews; ++j) {
        if (used[j]) continue;
        selection.push_back(j);
        double cost = ItemCost(vectors, i, selection, options.lambda);
        selection.pop_back();
        if (cost < best_cost) {
          best_cost = cost;
          best_j = j;
        }
      }
      // First pick is always taken; afterwards only accept improvements,
      // since a characteristic subset can be strictly worse when padded.
      if (best_j == num_reviews ||
          (!selection.empty() && best_cost >= current_cost)) {
        break;
      }
      used[best_j] = true;
      selection.push_back(best_j);
      current_cost = best_cost;
    }
    std::sort(selection.begin(), selection.end());
    out.selections.push_back(std::move(selection));
  }

  out.objective = CompareSetsPlusObjective(vectors, out.selections,
                                           options.lambda, options.mu);
  return out;
}

}  // namespace comparesets
