// Precomputed per-instance vector context shared by every selector:
// target vectors τ_i = π(R_i) and Γ = φ(R_1), plus per-review design
// columns (paper §2.1.1, §4.1.4).

#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "data/corpus.h"
#include "opinion/opinion_model.h"

namespace comparesets {

struct ItemBlocks;

/// A selected review subset, as indices into Product::reviews.
using Selection = std::vector<size_t>;

/// Thread-safe per-item slots for one instance's design blocks
/// (ItemBlocks, core/design_matrix.h), filled lazily by
/// GetOrBuildItemBlocks. The blocks are pure functions of the immutable
/// vectors, so one entry per item serves every objective, λ and μ.
class ItemBlockCache {
 public:
  /// Item `item`'s blocks, or nullptr before their first build.
  std::shared_ptr<const ItemBlocks> Find(size_t item) const;

  /// Stores `blocks` (footprint `bytes`) for `item` unless a racing
  /// build stored first; returns the stored entry either way.
  std::shared_ptr<const ItemBlocks> Insert(
      size_t item, std::shared_ptr<const ItemBlocks> blocks,
      size_t bytes) const;

  /// Footprint of the blocks stored so far.
  size_t ApproxMemoryBytes() const;

 private:
  mutable std::mutex mutex_;
  mutable std::vector<std::shared_ptr<const ItemBlocks>> items_;
  mutable size_t bytes_ = 0;
};

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

  /// Memo of the per-item design blocks. Every InstanceVectors starts
  /// with its own, and copies share it: the vectors are never changed
  /// after they are built.
  std::shared_ptr<const ItemBlockCache> block_cache =
      std::make_shared<const ItemBlockCache>();

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
