// Precomputed vector context shared by every selector (paper §2.1.1,
// §4.1.4), in two parts:
//   * ItemVectors, per product: τ_i = π(R_i) and the per-review design
//     columns, plus a slot for the item's λ/μ-free design blocks.
//     None of it depends on the instance, so one ItemVectors serves
//     every instance that holds the same product (the serving engine
//     keeps them in a per-product store, service/vector_cache.h).
//   * InstanceVectors, per instance: the items' shared ItemVectors plus
//     the only target-dependent terms, Γ = φ(R_1), ‖Γ‖² and a(r)ᵀΓ for
//     every review r of every item.

#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/corpus.h"
#include "opinion/opinion_model.h"

namespace comparesets {

struct ItemBlocks;

/// A selected review subset, as indices into Product::reviews.
using Selection = std::vector<size_t>;

/// Thread-safe, fill-once slot for one item's design blocks
/// (ItemBlocks, core/design_matrix.h), filled lazily by
/// GetOrBuildItemBlocks. The blocks are pure functions of the immutable
/// item vectors, so one build serves every objective, λ, μ and
/// instance.
class ItemBlockSlot {
 public:
  /// The blocks, or nullptr before their first build.
  std::shared_ptr<const ItemBlocks> Find() const;

  /// Stores `blocks` (footprint `bytes`) unless a racing build stored
  /// first; returns the stored blocks either way.
  std::shared_ptr<const ItemBlocks> Insert(
      std::shared_ptr<const ItemBlocks> blocks, size_t bytes) const;

  /// Footprint of the stored blocks (0 before the first build).
  size_t ApproxMemoryBytes() const;

 private:
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const ItemBlocks> blocks_;
  mutable size_t bytes_ = 0;
};

/// The target-independent vectors of one product under one opinion
/// model, stored flat: review j's opinion column is the `opinion_dims`
/// doubles from opinion_columns[j · opinion_dims], its 0/1 aspect
/// column the `aspect_dims` doubles from aspect_columns[j · aspect_dims].
/// Immutable once built, except for the fill-once block slot; always
/// heap-held (BuildItemVectors) and shared by shared_ptr.
struct ItemVectors {
  size_t reviews = 0;
  size_t opinion_dims = 0;
  size_t aspect_dims = 0;
  /// τ_i = π(R_i) of the product's full review set.
  Vector tau;
  std::vector<double> opinion_columns;
  std::vector<double> aspect_columns;
  /// The item's design blocks, built on first use.
  ItemBlockSlot blocks;

  std::span<const double> OpinionColumn(size_t review) const {
    return {opinion_columns.data() + review * opinion_dims, opinion_dims};
  }
  std::span<const double> AspectColumn(size_t review) const {
    return {aspect_columns.data() + review * aspect_dims, aspect_dims};
  }

  /// Approximate heap footprint: the vectors plus the blocks once
  /// built (entries only, not allocator overhead).
  size_t ApproxMemoryBytes() const;
};

/// Vectorizes `product` under `model` (O(reviews · dims)).
std::shared_ptr<const ItemVectors> BuildItemVectors(const OpinionModel& model,
                                                    const Product& product);

/// All vector-space data of one problem instance under one opinion
/// model. Build once, share across selectors and evaluation; copies
/// share the per-item vectors.
struct InstanceVectors {
  OpinionModel model;
  const ProblemInstance* instance = nullptr;

  /// Per item, the vectors of its product (items[i] was built from
  /// instance->items[i] under `model`).
  std::vector<std::shared_ptr<const ItemVectors>> items;

  /// Γ — target aspect distribution vector (φ of the target item's full
  /// review set, per §4.1.4) — and ‖Γ‖².
  Vector gamma;
  double gamma_norm2 = 0.0;

  /// a(r)ᵀΓ for every review r, flat: item i's reviews start at
  /// aspect_dot_begin[i] (n + 1 offsets).
  std::vector<double> aspect_dots;
  std::vector<size_t> aspect_dot_begin;

  size_t num_items() const { return instance->num_items(); }
  size_t num_reviews(size_t item) const {
    return instance->items[item]->reviews.size();
  }

  /// τ_i — target opinion vector of item `item` (π of its full set).
  const Vector& tau(size_t item) const { return items[item]->tau; }

  /// a(r_j)ᵀΓ for each review j of item `item`.
  std::span<const double> AspectDots(size_t item) const {
    return {aspect_dots.data() + aspect_dot_begin[item],
            aspect_dot_begin[item + 1] - aspect_dot_begin[item]};
  }

  /// π(S) for a selection on item `item`.
  Vector OpinionOf(size_t item, const Selection& selection) const;
  /// φ(S) for a selection on item `item`.
  Vector AspectOf(size_t item, const Selection& selection) const;

  /// Approximate heap footprint of the per-instance part (Γ and the
  /// aspect dots; the shared item vectors are not counted). Used for
  /// cache accounting.
  size_t ApproxMemoryBytes() const;
};

/// Assembles an instance's context from its items' vectors: Γ from the
/// target's reviews, then a(r)ᵀΓ in O(total reviews · aspects).
/// `items[i]` must be the vectors of instance.items[i] under `model`.
InstanceVectors AssembleInstanceVectors(
    const OpinionModel& model, const ProblemInstance& instance,
    std::vector<std::shared_ptr<const ItemVectors>> items);

/// Builds the full context from scratch (O(total reviews · dims)).
InstanceVectors BuildInstanceVectors(const OpinionModel& model,
                                     const ProblemInstance& instance);

}  // namespace comparesets
