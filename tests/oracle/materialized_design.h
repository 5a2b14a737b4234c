// Materialized design-system builder: the original construction of each
// item's least-squares system, column by column. Every review becomes a
// sparse column [b ; λ·a ; μ·a ×(n−1)], identical columns are merged
// through an ordered map under a dense-lexicographic comparator (groups
// numbered by first appearance), and the normal equations come from one
// BuildGramSystem scatter over the stacked rows. The library assembles
// the same systems from λ/μ-free blocks (core/design_matrix.h); this
// stays as the test-side oracle the assembly is checked against, and the
// micro_solvers kernel smoke times it against the assembly.

#pragma once

#include <cstddef>
#include <vector>

#include "core/design_matrix.h"
#include "linalg/gram.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"
#include "opinion/vectors.h"

namespace comparesets::oracle {

/// A deduplicated system with its stacked rows kept.
struct MaterializedSystem {
  /// Deduplicated design matrix Ṽ (rows = target dims, cols = q groups).
  SparseMatrix v;
  /// Target vector Υ.
  Vector target;
  std::vector<int> dup_counts;
  std::vector<std::vector<size_t>> group_reviews;
  /// BuildGramSystem(v, target).
  GramSystem gram;

  /// The solver view (drops v and target).
  DesignSystem AsDesignSystem() const {
    return DesignSystem{dup_counts, group_reviews, gram};
  }
};

MaterializedSystem BuildCrsSystem(const InstanceVectors& vectors, size_t item);
MaterializedSystem BuildCompareSetsSystem(const InstanceVectors& vectors,
                                          size_t item, double lambda);
MaterializedSystem BuildCompareSetsPlusSystem(
    const InstanceVectors& vectors, size_t item, double lambda, double mu,
    const std::vector<Vector>& other_phis);

/// The original sampled-tier restriction, minus the coverage rule: keeps
/// the groups with sampled members (shrunk to them) and rebuilds the
/// Gram over their columns against the unchanged target. `sample` must
/// be sorted.
MaterializedSystem RestrictToSample(const MaterializedSystem& full,
                                    const std::vector<size_t>& sample);

}  // namespace comparesets::oracle
