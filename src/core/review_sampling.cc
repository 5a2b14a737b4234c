#include "core/review_sampling.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace comparesets {

bool ShouldSampleItem(const SelectorOptions& options, size_t num_reviews) {
  return options.min_tier == QualityTier::kSampled &&
         options.sample_threshold > 0 &&
         num_reviews > options.sample_threshold && options.sample_size > 0 &&
         options.sample_size < num_reviews;
}

std::vector<size_t> SampleReviewIndices(const SelectorOptions& options,
                                        size_t item, size_t num_reviews) {
  // Knuth-multiplicative stream separation: one request seed, one
  // independent draw per item, stable across thread counts.
  Rng rng(options.seed, item * 2654435761ull + 0x51edu);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(
      num_reviews, std::min(options.sample_size, num_reviews));
  std::sort(sample.begin(), sample.end());
  return sample;
}

RestrictedSystem RestrictToSample(DesignSystem full,
                                  const std::vector<size_t>& sample,
                                  size_t m) {
  size_t q = full.group_reviews.size();
  std::vector<std::vector<size_t>> sampled_members(q);
  double total_mass = 0.0;
  double uncovered = 0.0;
  bool lossless = true;
  for (size_t g = 0; g < q; ++g) {
    for (size_t r : full.group_reviews[g]) {
      if (std::binary_search(sample.begin(), sample.end(), r)) {
        sampled_members[g].push_back(r);
      }
    }
    double mass = static_cast<double>(full.dup_counts[g]);
    total_mass += mass;
    // A budget <= m can want at most min(c_g, m) copies of group g; a
    // sample holding that many loses nothing for this group.
    size_t need = std::min(static_cast<size_t>(full.dup_counts[g]), m);
    if (sampled_members[g].size() < need) {
      lossless = false;
      uncovered += mass;
    }
  }
  if (lossless) return RestrictedSystem{std::move(full), 0.0, false};

  // Column sampling leaves the row space — and with it the target —
  // untouched; only the normal equations shrink, to the surviving
  // groups' principal submatrix.
  std::vector<size_t> kept;
  DesignSystem out;
  for (size_t g = 0; g < q; ++g) {
    if (sampled_members[g].empty()) continue;
    kept.push_back(g);
    out.dup_counts.push_back(static_cast<int>(sampled_members[g].size()));
    out.group_reviews.push_back(std::move(sampled_members[g]));
  }
  const GramSystem& gram = full.gram;
  out.gram.gram = Matrix(kept.size(), kept.size());
  out.gram.vty = Vector(kept.size());
  out.gram.col_norms.resize(kept.size());
  out.gram.target_norm2 = gram.target_norm2;
  for (size_t k = 0; k < kept.size(); ++k) {
    for (size_t l = 0; l < kept.size(); ++l) {
      out.gram.gram(k, l) = gram.gram(kept[k], kept[l]);
    }
    out.gram.vty[k] = gram.vty[kept[k]];
    out.gram.col_norms[k] = gram.col_norms[kept[k]];
  }
  return RestrictedSystem{std::move(out),
                          total_mass > 0.0 ? uncovered / total_mass : 0.0,
                          true};
}

RestrictedSystem MaybeSampleSystem(DesignSystem full,
                                   const SelectorOptions& options, size_t item,
                                   size_t num_reviews) {
  if (!ShouldSampleItem(options, num_reviews)) {
    return RestrictedSystem{std::move(full), 0.0, false};
  }
  std::vector<size_t> sample =
      SampleReviewIndices(options, item, num_reviews);
  return RestrictToSample(std::move(full), sample, options.m);
}

void ApplySamplingOutcome(const std::vector<double>& uncovered,
                          const std::vector<char>& restricted,
                          SelectionResult* result) {
  double gap = 0.0;
  bool any = false;
  for (size_t i = 0; i < restricted.size(); ++i) {
    if (!restricted[i]) continue;
    any = true;
    gap = std::max(gap, uncovered[i]);
  }
  if (any) {
    result->tier = QualityTier::kSampled;
    result->objective_gap = gap;
  }
}

}  // namespace comparesets
