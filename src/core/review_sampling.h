// Review-sampled solves for huge items (the kSampled quality tier).
//
// The paper's instances have n ≈ 10–40 reviews per item; the serving
// system sees products far beyond that, where even the sparse Gram
// build is O(q · nnz) over every review. When a request's floor admits
// kSampled and an item exceeds SelectorOptions::sample_threshold, the
// selectors solve over a seeded without-replacement sample of the
// item's reviews instead, with a coverage check that bounds what the
// sample may have missed:
//
//   * The sample is drawn at the DesignSystem level — the restricted
//     system keeps the FULL target (the τ / λΓ rows depend only on the
//     item, not on which reviews are candidates), so its normal
//     equations are a principal submatrix of the full ones, and it
//     keeps real review indices in its groups, so selections and the
//     true-cost evaluation need no index translation and stay exact
//     over the sampled candidate set.
//   * A dedup group g (multiplicity c_g) is "covered" when the sample
//     holds at least min(c_g, m) of its members: no budget <= m can
//     then want more copies of g than the sample offers. The
//     uncovered mass Σ_{uncovered g} c_g / n is the reported gap bound.
//   * When every group is covered the restriction is lossless and the
//     item PROMOTES back to the full system — same columns, same group
//     representatives, bit-identical to the unsampled solve — which is
//     how a sampled request over small items still reports kExact.
//
// Sampling is deterministic: the draw depends only on (seed, item,
// review count), never on timing or thread count.

#pragma once

#include <cstddef>
#include <vector>

#include "core/design_matrix.h"
#include "core/selector.h"

namespace comparesets {

/// Whether `options` ask for item with `num_reviews` reviews to be
/// solved over a sample: the floor admits kSampled, a threshold is set,
/// the item exceeds it, and the sample would actually shrink it.
bool ShouldSampleItem(const SelectorOptions& options, size_t num_reviews);

/// The seeded without-replacement draw for one item: sorted review
/// indices, |result| = min(options.sample_size, num_reviews). The
/// stream is derived from the item index so items sample independently
/// under one request seed.
std::vector<size_t> SampleReviewIndices(const SelectorOptions& options,
                                        size_t item, size_t num_reviews);

/// A possibly-restricted view of one item's design system.
struct RestrictedSystem {
  /// The system to solve: the restricted one, or the original `full`
  /// when the sample covered every group (the promotion path).
  DesignSystem system;
  /// Fraction of the item's review mass in under-covered groups
  /// (the per-item gap bound); 0 exactly when not restricted.
  double uncovered_mass = 0.0;
  /// Whether `system` differs from `full`.
  bool restricted = false;
};

/// Restricts `full` to the sampled reviews: groups keep full-system
/// order, their multiplicities and members shrink to the sampled
/// subset, empty groups drop, and the normal equations become the
/// principal submatrix of G (and the matching entries of Ṽᵀy) over the
/// surviving groups; ‖y‖² is unchanged. `sample` must be sorted.
/// `m` is the selection budget the coverage rule is relative to.
RestrictedSystem RestrictToSample(DesignSystem full,
                                  const std::vector<size_t>& sample, size_t m);

/// One-stop per-item hook for the Gram-backed selectors: returns the
/// system to solve plus the item's gap bound. Equals {full, 0, false}
/// whenever ShouldSampleItem says no.
RestrictedSystem MaybeSampleSystem(DesignSystem full,
                                   const SelectorOptions& options, size_t item,
                                   size_t num_reviews);

/// Folds per-item restriction outcomes into a SelectionResult: tier
/// drops to kSampled and objective_gap becomes the largest per-item
/// uncovered mass when any item was actually restricted.
void ApplySamplingOutcome(const std::vector<double>& uncovered,
                          const std::vector<char>& restricted,
                          SelectionResult* result);

}  // namespace comparesets
