// CompaReSetS — Problem 1 (Eq. 1): per-item Integer-Regression against
// the concatenated target [τ_i ; λΓ], linking every item to the target
// item's aspect distribution.

#pragma once

#include "core/selector.h"

namespace comparesets {

class CompareSetsSelector : public ReviewSelector {
 public:
  using ReviewSelector::Select;
  std::string name() const override { return "CompaReSetS"; }
  Result<SelectionResult> Select(const InstanceVectors& vectors,
                                 const SelectorOptions& options,
                                 const ExecControl* control) const override;
};

}  // namespace comparesets
