// Precomputed per-instance vector context shared by every selector:
// target vectors τ_i = π(R_i) and Γ = φ(R_1), plus per-review design
// columns (paper §2.1.1, §4.1.4).

#pragma once

#include <vector>

#include "data/corpus.h"
#include "opinion/opinion_model.h"

namespace comparesets {

class ItemBlockCache;

/// A selected review subset, as indices into Product::reviews.
using Selection = std::vector<size_t>;

/// All vector-space data derived from one problem instance under one
/// opinion model. Build once, share across selectors and evaluation.
struct InstanceVectors {
  OpinionModel model;
  const ProblemInstance* instance = nullptr;

  /// Γ — target aspect distribution vector (φ of the target item's full
  /// review set, per §4.1.4).
  Vector gamma;

  /// τ_i — target opinion vector per item (π of the item's full set).
  std::vector<Vector> tau;

  /// Per item, per review: opinion design column (before λ/μ scaling).
  std::vector<std::vector<Vector>> opinion_columns;

  /// Per item, per review: 0/1 aspect design column.
  std::vector<std::vector<Vector>> aspect_columns;

  /// Optional memo of the per-item design blocks, owned by the service
  /// layer's PreparedInstance; nullptr (the default everywhere else)
  /// builds them per call. See GetOrBuildItemBlocks in
  /// core/design_matrix.h.
  const ItemBlockCache* block_cache = nullptr;

  size_t num_items() const { return instance->num_items(); }
  size_t num_reviews(size_t item) const {
    return instance->items[item]->reviews.size();
  }

  /// π(S) for a selection on item `item`.
  Vector OpinionOf(size_t item, const Selection& selection) const;
  /// φ(S) for a selection on item `item`.
  Vector AspectOf(size_t item, const Selection& selection) const;

  /// Approximate heap footprint of the stored vectors (entries only,
  /// not allocator overhead). Used for cache accounting.
  size_t ApproxMemoryBytes() const;
};

/// Builds the full context (O(total reviews · dims)).
InstanceVectors BuildInstanceVectors(const OpinionModel& model,
                                     const ProblemInstance& instance);

}  // namespace comparesets
