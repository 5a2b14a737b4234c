// Opinion models: how reviews are turned into opinion distribution
// vectors π(S) and aspect distribution vectors φ(S) (paper §2.1 and
// §4.2.3).
//
// Three opinion definitions are supported:
//   * binary (default): π(S) ∈ R^{2z}, dimensions (aspect, +) and
//     (aspect, −);
//   * 3-polarity:       π(S) ∈ R^{3z}, adding (aspect, neutral);
//   * unary-scale:      π(S) ∈ R^{z}, per-aspect sigmoid of the summed
//     signed sentiment strength.
//
// Normalization (matches Working Example 1): counts are per-review
// presence counts, divided by M(S) = max_a (#reviews in S mentioning a).
// For R1 = {battery:6, lens:4, quality:4} this yields
// τ1 = (2/6, 4/6, 2/6, 2/6, 2/6, 2/6, 0, …) and Γ = (6/6, 4/6, 4/6, 0, 0).
// The unary-scale π is not count-normalized (the sigmoid already maps to
// [0, 1]); φ is normalized in all three models.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/review.h"
#include "linalg/vector.h"

namespace comparesets {

/// Precomputed per-review opinion vectors keyed by review id, produced
/// by an external preference model (e.g. recsys/efm.h). Used by the
/// kLearnedPreference opinion definition (paper §4.2.3's "learned
/// aspect-level preference vectors from another model").
using ReviewVectorTable = std::unordered_map<std::string, Vector>;

enum class OpinionDefinition {
  kBinary,
  kThreePolarity,
  kUnaryScale,
  kLearnedPreference,
};

const char* OpinionDefinitionName(OpinionDefinition definition);

/// A view of a review subset S ⊆ R_i (pointers into product storage).
using ReviewSet = std::vector<const Review*>;

class OpinionModel {
 public:
  OpinionModel(OpinionDefinition definition, size_t num_aspects)
      : definition_(definition), num_aspects_(num_aspects) {}

  static OpinionModel Binary(size_t num_aspects) {
    return OpinionModel(OpinionDefinition::kBinary, num_aspects);
  }
  static OpinionModel ThreePolarity(size_t num_aspects) {
    return OpinionModel(OpinionDefinition::kThreePolarity, num_aspects);
  }
  static OpinionModel UnaryScale(size_t num_aspects) {
    return OpinionModel(OpinionDefinition::kUnaryScale, num_aspects);
  }
  /// Learned-preference model: π(S) is the element-wise mean of the
  /// table's per-review vectors (z dims, [0, 1] entries; reviews absent
  /// from the table contribute zeros). φ(S) is unchanged.
  static OpinionModel LearnedPreference(
      size_t num_aspects,
      std::shared_ptr<const ReviewVectorTable> review_vectors) {
    OpinionModel model(OpinionDefinition::kLearnedPreference, num_aspects);
    model.review_vectors_ = std::move(review_vectors);
    return model;
  }

  OpinionDefinition definition() const { return definition_; }
  size_t num_aspects() const { return num_aspects_; }

  /// Dimensionality of π: 2z (binary), 3z (3-polarity), or z (unary).
  size_t opinion_dims() const;

  /// π(S): opinion distribution vector of a review set.
  Vector OpinionVector(const ReviewSet& reviews) const;

  /// φ(S): aspect distribution vector (opinion-agnostic) of a review set.
  Vector AspectVector(const ReviewSet& reviews) const;

  /// Per-review design-matrix column blocks (before λ/μ scaling):
  /// the opinion block b(r) such that summing b over S and normalizing
  /// approximates π(S) (exact for binary / 3-polarity; the unary block
  /// carries signed strengths whose sum feeds the sigmoid).
  Vector ReviewOpinionColumn(const Review& review) const;

  /// The aspect block a(r): 0/1 presence indicators per aspect.
  Vector ReviewAspectColumn(const Review& review) const;

  /// The two blocks above, written into zero-filled `out` of
  /// opinion_dims() (resp. num_aspects()) entries.
  void WriteReviewOpinionColumn(const Review& review,
                                std::span<double> out) const;
  void WriteReviewAspectColumn(const Review& review,
                               std::span<double> out) const;

 private:
  /// Dimension index of opinion (aspect, polarity) under this model.
  size_t OpinionIndex(AspectId aspect, Polarity polarity) const;

  /// Table lookup for the learned-preference model; zero vector when the
  /// review id is unknown.
  Vector LearnedColumn(const Review& review) const;

  OpinionDefinition definition_;
  size_t num_aspects_;
  std::shared_ptr<const ReviewVectorTable> review_vectors_;
};

/// Numerically stable logistic sigmoid 1 / (1 + e^{-s}).
double Sigmoid(double s);

/// Materializes pointer views of subsets.
ReviewSet AllReviews(const Product& product);
ReviewSet SelectReviews(const Product& product,
                        const std::vector<size_t>& indices);

}  // namespace comparesets
