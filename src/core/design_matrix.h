// Design systems for the Integer-Regression algorithm (paper §2.2 and
// Algorithm 1, Figure 3), assembled from λ/μ-free per-item blocks.
//
// For item p_i, each review r_j contributes one column:
//   Crs:           [ b(r_j) ]                           target τ_i
//   CompaReSetS:   [ b(r_j) ; λ·a(r_j) ]                target [τ_i ; λΓ]
//   CompaReSetS+:  [ b(r_j) ; λ·a(r_j) ; μ·a(r_j) ×(n−1) ]
//                  target [τ_i ; λΓ ; μφ(S_1) ; … ; μφ(S_n)] (skipping i)
// where b(r) is the opinion block and a(r) the 0/1 aspect block. Scaling
// both the rows and the target by λ (resp. μ) realizes the λ²/μ² weights
// of the squared objective. Identical columns are deduplicated, keeping
// multiplicities c_1..c_q (Algorithm 1 line 5).
//
// None of these columns is ever materialized. The solvers need only the
// normal equations, and those factor into blocks that depend on the item
// alone (DESIGN.md §8.7):
//   G     = G_op + (λ² + (n−1)μ²)·G_asp
//   Ṽᵀy   = V_opᵀτ + λ²·Aᵀγ + μ²·Aᵀ(Σ_{j≠i} φ_j)
//   ‖y‖²  = ‖τ‖² + λ²‖γ‖² + μ²·Σ_{j≠i} ‖φ_j‖²
// ItemBlocks holds those blocks plus the dedup groups, built once per
// item; AssembleDesignSystem turns them into one solvable system at any
// (λ, μ, φ) in O(q²). Every InstanceVectors keeps its blocks in an
// ItemBlockCache, so every objective at every λ and μ is served from
// one build per item.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/gram.h"
#include "linalg/vector.h"
#include "opinion/vectors.h"

namespace comparesets {

/// A deduplicated least-squares system for one item, in normal-equation
/// form: the only view the Integer-Regression solvers read.
struct DesignSystem {
  /// Multiplicity c_g of each deduplicated column group.
  std::vector<int> dup_counts;
  /// Review indices (into Product::reviews) in each group, ascending.
  std::vector<std::vector<size_t>> group_reviews;
  /// G = ṼᵀṼ, Ṽᵀy, ‖y‖² and the column norms of the deduplicated Ṽ.
  GramSystem gram;

  /// Deduplicated column count q.
  size_t cols() const { return dup_counts.size(); }
};

/// The λ/μ-free blocks of one item's design systems.
///
/// Groups are keyed on the (opinion, aspect) signature of each review
/// and numbered by first appearance in review order — the numbering the
/// materialized dedup produced, whatever the sign of λ or μ (its
/// comparator decided only equality). Objectives without an aspect part
/// (Crs; λ = 0 with no μ block) group on the opinion signature alone:
/// those groups are unions of pair groups, recorded in `opinion_*`.
struct ItemBlocks {
  /// Pair groups: multiplicities and members (ascending review order).
  std::vector<int> dup_counts;
  std::vector<std::vector<size_t>> group_reviews;
  /// Opinion-only groups, in first-appearance order. opinion_head[k] is
  /// the pair group holding the first review of opinion group k; its
  /// opinion column is the group's.
  std::vector<size_t> opinion_head;
  std::vector<int> opinion_dup_counts;
  std::vector<std::vector<size_t>> opinion_group_reviews;
  /// b_gᵀb_h and a_gᵀa_h over pair groups, packed lower triangles:
  /// entry (g, h), h ≤ g, sits at g(g+1)/2 + h.
  std::vector<double> gram_opinion;
  std::vector<double> gram_aspect;
  /// b_gᵀτ and a_gᵀγ per pair group.
  std::vector<double> vty_opinion;
  std::vector<double> vty_aspect;
  /// Aspect rows where a_g = 1, ascending, per pair group.
  std::vector<std::vector<size_t>> aspect_support;
  /// Aspect dimensions (the size of Γ and of every φ).
  size_t aspect_rows = 0;
  /// ‖τ_i‖² and ‖Γ‖².
  double tau_norm2 = 0.0;
  double gamma_norm2 = 0.0;

  size_t pair_groups() const { return dup_counts.size(); }
  /// Approximate heap footprint (for the service cache accounting).
  size_t ApproxMemoryBytes() const;
};

/// Builds item `item`'s blocks: O(reviews · dims) to group, O(q · nnz)
/// for the two Gram triangles.
ItemBlocks BuildItemBlocks(const InstanceVectors& vectors, size_t item);

/// The objective weights one assembly applies to the blocks.
struct DesignWeights {
  double lambda = 0.0;
  double mu = 0.0;
  /// n − 1, the number of μ-scaled aspect blocks (CompaReSetS+ only).
  size_t other_items = 0;
  /// Σ_{j≠i} φ(S_j) over the other items (aspect dims; empty when
  /// other_items is 0) and Σ_{j≠i} ‖φ(S_j)‖².
  Vector phi_sum;
  double phi_norm2 = 0.0;

  /// Whether the columns carry no aspect part, so groups are keyed on
  /// the opinion signature alone.
  bool opinion_only() const {
    return lambda == 0.0 && (mu == 0.0 || other_items == 0);
  }

  static DesignWeights Crs() { return {}; }
  static DesignWeights CompareSets(double lambda);
  /// `other_phis` are φ(S_j) for every j ≠ i, in item order.
  static DesignWeights CompareSetsPlus(double lambda, double mu,
                                       const std::vector<Vector>& other_phis);
};

/// G, Ṽᵀy, ‖y‖² and the groups of one objective, in O(q²) from `blocks`.
DesignSystem AssembleDesignSystem(const ItemBlocks& blocks,
                                  const DesignWeights& weights);

/// Item `item`'s blocks from `vectors.block_cache`, built and stored
/// there on first use.
std::shared_ptr<const ItemBlocks> GetOrBuildItemBlocks(
    const InstanceVectors& vectors, size_t item);

/// System for Crs (single-item characteristic selection: opinion rows
/// only — the λ = 0, single-item special case the paper reduces to).
DesignSystem BuildCrsSystem(const InstanceVectors& vectors, size_t item);

/// System for the plain CompaReSetS objective on `item` (Eq. 3/4).
DesignSystem BuildCompareSetsSystem(const InstanceVectors& vectors,
                                    size_t item, double lambda);

/// System for the synchronized CompaReSetS+ objective on `item`
/// (Algorithm 1 lines 3–4) given the other items' current selections.
DesignSystem BuildCompareSetsPlusSystem(const InstanceVectors& vectors,
                                        size_t item, double lambda, double mu,
                                        const std::vector<Vector>& other_phis);

}  // namespace comparesets
