// Crs — Characteristic Review Selection baseline (Lappas et al. KDD'12).
//
// Selects, independently per item, a subset whose opinion distribution
// matches the item's overall τ_i. This is the paper's single-item special
// case (one item, λ = 0): no aspect-coverage or cross-item terms.

#pragma once

#include "core/selector.h"

namespace comparesets {

class CrsSelector : public ReviewSelector {
 public:
  using ReviewSelector::Select;
  std::string name() const override { return "Crs"; }
  Result<SelectionResult> Select(const InstanceVectors& vectors,
                                 const SelectorOptions& options,
                                 const ExecControl* control) const override;
};

}  // namespace comparesets
