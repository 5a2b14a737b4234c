#include "core/random_selector.h"

#include <algorithm>

#include "eval/objective.h"
#include "util/rng.h"

namespace comparesets {

Result<SelectionResult> RandomSelector::Select(
    const InstanceVectors& vectors, const SelectorOptions& options,
    const ExecControl* control) const {
  COMPARESETS_RETURN_NOT_OK(ValidateSelectorOptions(options));
  // Mix the seed with the instance's identity-free shape so different
  // instances draw different reviews under the same global seed.
  uint64_t stream = vectors.num_items() * 2654435761u +
                    vectors.num_reviews(0);
  Rng rng(options.seed, stream);

  SelectionResult out;
  out.selections.reserve(vectors.num_items());
  for (size_t i = 0; i < vectors.num_items(); ++i) {
    COMPARESETS_RETURN_NOT_OK(CheckExec(control, "random item loop"));
    size_t num_reviews = vectors.num_reviews(i);
    size_t take = std::min(options.m, num_reviews);
    Selection selection = rng.SampleWithoutReplacement(num_reviews, take);
    std::sort(selection.begin(), selection.end());
    out.selections.push_back(std::move(selection));
  }
  out.objective = CompareSetsPlusObjective(vectors, out.selections,
                                           options.lambda, options.mu);
  return out;
}

}  // namespace comparesets
