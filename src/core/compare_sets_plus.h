// CompaReSetS+ — Problem 2 (Eq. 5) via Algorithm 1: initialize with the
// per-item CompaReSetS solutions, then sweep items, re-solving each
// against the target [τ_i ; λΓ ; μφ(S₋ᵢ)…] built from the *current*
// selections of the other items. Each accepted update can only lower the
// global Eq. 5 objective (the current selection is always kept as a
// candidate), so the sweep is monotone.

#pragma once

#include "core/selector.h"

namespace comparesets {

class CompareSetsPlusSelector : public ReviewSelector {
 public:
  using ReviewSelector::Select;
  std::string name() const override { return "CompaReSetS+"; }
  Result<SelectionResult> Select(const InstanceVectors& vectors,
                                 const SelectorOptions& options,
                                 const ExecControl* control) const override;
};

}  // namespace comparesets
