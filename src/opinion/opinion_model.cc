#include "opinion/opinion_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace comparesets {

const char* OpinionDefinitionName(OpinionDefinition definition) {
  switch (definition) {
    case OpinionDefinition::kBinary:
      return "binary";
    case OpinionDefinition::kThreePolarity:
      return "3-polarity";
    case OpinionDefinition::kUnaryScale:
      return "unary-scale";
    case OpinionDefinition::kLearnedPreference:
      return "learned-preference";
  }
  return "?";
}

double Sigmoid(double s) {
  if (s >= 0.0) {
    return 1.0 / (1.0 + std::exp(-s));
  }
  double e = std::exp(s);
  return e / (1.0 + e);
}

size_t OpinionModel::opinion_dims() const {
  switch (definition_) {
    case OpinionDefinition::kBinary:
      return 2 * num_aspects_;
    case OpinionDefinition::kThreePolarity:
      return 3 * num_aspects_;
    case OpinionDefinition::kUnaryScale:
    case OpinionDefinition::kLearnedPreference:
      return num_aspects_;
  }
  return 0;
}

size_t OpinionModel::OpinionIndex(AspectId aspect, Polarity polarity) const {
  size_t a = static_cast<size_t>(aspect);
  COMPARESETS_CHECK(a < num_aspects_) << "aspect id out of catalog range";
  switch (definition_) {
    case OpinionDefinition::kBinary:
      // Neutral mentions do not map to an opinion dimension in the
      // binary model; callers must not ask.
      COMPARESETS_CHECK(polarity != Polarity::kNeutral)
          << "neutral opinion in binary model";
      return 2 * a + (polarity == Polarity::kPositive ? 0 : 1);
    case OpinionDefinition::kThreePolarity:
      return 3 * a + (polarity == Polarity::kPositive
                          ? 0
                          : (polarity == Polarity::kNegative ? 1 : 2));
    case OpinionDefinition::kUnaryScale:
    case OpinionDefinition::kLearnedPreference:
      return a;
  }
  return 0;
}

namespace {

/// Per-aspect presence counts over a review set (each review counts an
/// aspect at most once) and their maximum M(S).
std::vector<int> AspectCounts(const ReviewSet& reviews, size_t num_aspects,
                              int* max_count) {
  std::vector<int> counts(num_aspects, 0);
  int best = 0;
  for (const Review* review : reviews) {
    for (AspectId aspect : review->MentionedAspects()) {
      COMPARESETS_CHECK(aspect >= 0 &&
                        static_cast<size_t>(aspect) < num_aspects)
          << "review mentions aspect " << aspect << " outside catalog of "
          << num_aspects;
      int c = ++counts[static_cast<size_t>(aspect)];
      if (c > best) best = c;
    }
  }
  *max_count = best;
  return counts;
}

}  // namespace

Vector OpinionModel::LearnedColumn(const Review& review) const {
  COMPARESETS_CHECK(review_vectors_ != nullptr)
      << "learned-preference model without a review vector table";
  auto it = review_vectors_->find(review.id);
  if (it == review_vectors_->end()) return Vector(num_aspects_, 0.0);
  COMPARESETS_CHECK(it->second.size() == num_aspects_)
      << "learned vector dimensionality mismatch for review " << review.id;
  return it->second;
}

Vector OpinionModel::OpinionVector(const ReviewSet& reviews) const {
  Vector out(opinion_dims(), 0.0);
  if (reviews.empty()) return out;

  if (definition_ == OpinionDefinition::kLearnedPreference) {
    // Mean of the learned per-review preference vectors (§4.2.3's
    // "multiple reviews can be aggregated (e.g., average)").
    for (const Review* review : reviews) {
      out.Axpy(1.0, LearnedColumn(*review));
    }
    out.Scale(1.0 / static_cast<double>(reviews.size()));
    return out;
  }

  if (definition_ == OpinionDefinition::kUnaryScale) {
    // Sum signed strengths per aspect, then squash mentioned aspects.
    std::vector<double> sentiment(num_aspects_, 0.0);
    std::vector<bool> mentioned(num_aspects_, false);
    for (const Review* review : reviews) {
      for (const OpinionMention& mention : review->opinions) {
        size_t a = static_cast<size_t>(mention.aspect);
        COMPARESETS_CHECK(a < num_aspects_) << "aspect id out of range";
        mentioned[a] = true;
        if (mention.polarity == Polarity::kPositive) {
          sentiment[a] += mention.strength;
        } else if (mention.polarity == Polarity::kNegative) {
          sentiment[a] -= mention.strength;
        }
      }
    }
    for (size_t a = 0; a < num_aspects_; ++a) {
      if (mentioned[a]) out[a] = Sigmoid(sentiment[a]);
    }
    return out;
  }

  // Binary / 3-polarity: per-review presence counts per opinion, then
  // divide by M(S) = max aspect presence count.
  int max_count = 0;
  AspectCounts(reviews, num_aspects_, &max_count);
  if (max_count == 0) return out;

  for (const Review* review : reviews) {
    // Each opinion counted at most once per review.
    std::unordered_set<size_t> seen;
    for (const OpinionMention& mention : review->opinions) {
      if (definition_ == OpinionDefinition::kBinary &&
          mention.polarity == Polarity::kNeutral) {
        continue;  // Neutral contributes only to the aspect vector.
      }
      size_t idx = OpinionIndex(mention.aspect, mention.polarity);
      if (seen.insert(idx).second) out[idx] += 1.0;
    }
  }
  out.Scale(1.0 / max_count);
  return out;
}

Vector OpinionModel::AspectVector(const ReviewSet& reviews) const {
  Vector out(num_aspects_, 0.0);
  if (reviews.empty()) return out;
  int max_count = 0;
  std::vector<int> counts = AspectCounts(reviews, num_aspects_, &max_count);
  if (max_count == 0) return out;
  for (size_t a = 0; a < num_aspects_; ++a) {
    out[a] = static_cast<double>(counts[a]) / max_count;
  }
  return out;
}

Vector OpinionModel::ReviewOpinionColumn(const Review& review) const {
  Vector out(opinion_dims(), 0.0);
  WriteReviewOpinionColumn(review, out.data());
  return out;
}

Vector OpinionModel::ReviewAspectColumn(const Review& review) const {
  Vector out(num_aspects_, 0.0);
  WriteReviewAspectColumn(review, out.data());
  return out;
}

void OpinionModel::WriteReviewOpinionColumn(const Review& review,
                                            std::span<double> out) const {
  COMPARESETS_CHECK(out.size() == opinion_dims())
      << "opinion column size mismatch";
  if (definition_ == OpinionDefinition::kLearnedPreference) {
    Vector learned = LearnedColumn(review);
    std::copy(learned.data().begin(), learned.data().end(), out.begin());
    return;
  }
  if (definition_ == OpinionDefinition::kUnaryScale) {
    for (const OpinionMention& mention : review.opinions) {
      size_t a = static_cast<size_t>(mention.aspect);
      COMPARESETS_CHECK(a < num_aspects_) << "aspect id out of range";
      if (mention.polarity == Polarity::kPositive) {
        out[a] += mention.strength;
      } else if (mention.polarity == Polarity::kNegative) {
        out[a] -= mention.strength;
      }
    }
    return;
  }
  for (const OpinionMention& mention : review.opinions) {
    if (definition_ == OpinionDefinition::kBinary &&
        mention.polarity == Polarity::kNeutral) {
      continue;
    }
    out[OpinionIndex(mention.aspect, mention.polarity)] = 1.0;
  }
}

void OpinionModel::WriteReviewAspectColumn(const Review& review,
                                           std::span<double> out) const {
  COMPARESETS_CHECK(out.size() == num_aspects_)
      << "aspect column size mismatch";
  for (AspectId aspect : review.MentionedAspects()) {
    COMPARESETS_CHECK(aspect >= 0 &&
                      static_cast<size_t>(aspect) < num_aspects_)
        << "aspect id out of range";
    out[static_cast<size_t>(aspect)] = 1.0;
  }
}

ReviewSet AllReviews(const Product& product) {
  ReviewSet out;
  out.reserve(product.reviews.size());
  for (const Review& review : product.reviews) out.push_back(&review);
  return out;
}

ReviewSet SelectReviews(const Product& product,
                        const std::vector<size_t>& indices) {
  ReviewSet out;
  out.reserve(indices.size());
  for (size_t i : indices) {
    COMPARESETS_CHECK(i < product.reviews.size())
        << "review index out of range";
    out.push_back(&product.reviews[i]);
  }
  return out;
}

}  // namespace comparesets
