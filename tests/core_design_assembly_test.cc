// Oracle suite for the factored design systems: every system assembled
// from λ/μ-free ItemBlocks (core/design_matrix.h) is checked against the
// materialized builder (tests/oracle/materialized_design.h) — identical
// groups and multiplicities, and G, Ṽᵀy and ‖y‖² within 1e-12 relative.
// The grid covers the grouping edge cases: opinion-only grouping for Crs,
// CompaReSetS at λ = 0 and CompaReSetS+ with μ = 0 or n = 1; negative λ;
// and n up to 11 stacked μ blocks. A sampled-tier case checks that the
// principal-submatrix restriction matches a rebuild over the kept
// columns.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/design_matrix.h"
#include "core/review_sampling.h"
#include "eval/runner.h"
#include "oracle/materialized_design.h"

namespace comparesets {
namespace {

Workload BuildWorkload(size_t products, size_t instances) {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = products;
  config.max_instances = instances;
  config.seed = 7;
  return Workload::BuildSynthetic(config).ValueOrDie();
}

/// |a − b| ≤ 1e-12 · max(|a|, |b|).
bool RelativelyClose(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

void ExpectMatches(const oracle::MaterializedSystem& reference,
                   const DesignSystem& assembled, const std::string& label) {
  ASSERT_EQ(assembled.group_reviews, reference.group_reviews) << label;
  ASSERT_EQ(assembled.dup_counts, reference.dup_counts) << label;
  const GramSystem& want = reference.gram;
  const GramSystem& got = assembled.gram;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  ASSERT_EQ(got.vty.size(), want.vty.size()) << label;
  ASSERT_EQ(got.col_norms.size(), want.col_norms.size()) << label;
  for (size_t g = 0; g < got.cols(); ++g) {
    for (size_t h = 0; h < got.cols(); ++h) {
      ASSERT_TRUE(RelativelyClose(got.gram(g, h), want.gram(g, h)))
          << label << " G(" << g << "," << h << ") " << got.gram(g, h)
          << " vs " << want.gram(g, h);
    }
    ASSERT_TRUE(RelativelyClose(got.vty[g], want.vty[g]))
        << label << " vty[" << g << "] " << got.vty[g] << " vs "
        << want.vty[g];
    ASSERT_TRUE(RelativelyClose(got.col_norms[g], want.col_norms[g]))
        << label << " col_norms[" << g << "]";
  }
  ASSERT_TRUE(RelativelyClose(got.target_norm2, want.target_norm2))
      << label << " ||y||^2 " << got.target_norm2 << " vs "
      << want.target_norm2;
}

/// n − 1 φ blocks for an n-item objective: φ of a short prefix selection
/// of the instance's items, taken cyclically so any n can be stacked.
std::vector<Vector> OtherPhis(const InstanceVectors& vectors, size_t count) {
  std::vector<Vector> phis;
  for (size_t k = 0; k < count; ++k) {
    size_t item = (k + 1) % vectors.num_items();
    Selection prefix;
    for (size_t j = 0;
         j < std::min<size_t>(1 + k % 3, vectors.num_reviews(item)); ++j) {
      prefix.push_back(j);
    }
    phis.push_back(vectors.AspectOf(item, prefix));
  }
  return phis;
}

void ExpectGridMatches(const InstanceVectors& vectors,
                       const std::string& where) {
  const std::vector<double> lambdas = {-1.0, 0.0, 0.5, 1.0, 2.0};
  const std::vector<double> mus = {0.0, 0.05, 0.1, 1.0};
  for (size_t item = 0; item < vectors.num_items(); ++item) {
    ItemBlocks blocks = BuildItemBlocks(vectors, item);
    std::string at = where + " item " + std::to_string(item);
    ExpectMatches(oracle::BuildCrsSystem(vectors, item),
                  AssembleDesignSystem(blocks, DesignWeights::Crs()),
                  at + " crs");
    for (double lambda : lambdas) {
      std::string with_lambda = at + " lambda " + std::to_string(lambda);
      ExpectMatches(
          oracle::BuildCompareSetsSystem(vectors, item, lambda),
          AssembleDesignSystem(blocks, DesignWeights::CompareSets(lambda)),
          with_lambda + " comparesets");
      for (double mu : mus) {
        for (size_t n = 1; n <= 11; ++n) {
          std::vector<Vector> phis = OtherPhis(vectors, n - 1);
          ExpectMatches(
              oracle::BuildCompareSetsPlusSystem(vectors, item, lambda, mu,
                                                 phis),
              AssembleDesignSystem(
                  blocks, DesignWeights::CompareSetsPlus(lambda, mu, phis)),
              with_lambda + " mu " + std::to_string(mu) + " n " +
                  std::to_string(n));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(DesignAssemblyTest, SmallWorkloadGridMatchesMaterializedBuilder) {
  Workload workload = BuildWorkload(24, 6);
  ASSERT_GT(workload.num_instances(), 0u);
  for (size_t i = 0; i < workload.num_instances(); ++i) {
    ExpectGridMatches(workload.vectors()[i],
                      "small instance " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST(DesignAssemblyTest, CellphoneCatalogGridMatchesMaterializedBuilder) {
  Workload workload = BuildWorkload(80, 3);
  ASSERT_GT(workload.num_instances(), 0u);
  for (size_t i = 0; i < workload.num_instances(); ++i) {
    ExpectGridMatches(workload.vectors()[i],
                      "catalog instance " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

TEST(DesignAssemblyTest, OpinionOnlyGroupsMergePairGroups) {
  // Each opinion-only group is the union of the pair groups sharing its
  // opinion signature, members in review order, headed by the earliest.
  Workload workload = BuildWorkload(24, 6);
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      ItemBlocks blocks = BuildItemBlocks(vectors, item);
      size_t merged = 0;
      for (size_t k = 0; k < blocks.opinion_head.size(); ++k) {
        const std::vector<size_t>& members = blocks.opinion_group_reviews[k];
        EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
        EXPECT_EQ(static_cast<size_t>(blocks.opinion_dup_counts[k]),
                  members.size());
        EXPECT_EQ(members.front(),
                  blocks.group_reviews[blocks.opinion_head[k]].front());
        merged += members.size();
      }
      EXPECT_EQ(merged, vectors.num_reviews(item));
      EXPECT_LE(blocks.opinion_head.size(), blocks.pair_groups());
    }
  }
}

TEST(DesignAssemblyTest, SampledRestrictionMatchesRebuildOverKeptColumns) {
  Workload workload = BuildWorkload(80, 3);
  SelectorOptions options;
  options.min_tier = QualityTier::kSampled;
  options.sample_threshold = 4;
  options.sample_size = 4;
  size_t restricted = 0;
  for (const InstanceVectors& vectors : workload.vectors()) {
    std::vector<Vector> phis = OtherPhis(vectors, vectors.num_items() - 1);
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      size_t reviews = vectors.num_reviews(item);
      if (!ShouldSampleItem(options, reviews)) continue;
      std::vector<size_t> sample =
          SampleReviewIndices(options, item, reviews);
      RestrictedSystem got = RestrictToSample(
          BuildCompareSetsPlusSystem(vectors, item, 1.0, 0.1, phis), sample,
          options.m);
      if (!got.restricted) continue;
      ++restricted;
      ExpectMatches(
          oracle::RestrictToSample(
              oracle::BuildCompareSetsPlusSystem(vectors, item, 1.0, 0.1,
                                                 phis),
              sample),
          got.system, "sampled item " + std::to_string(item));
      EXPECT_GT(got.uncovered_mass, 0.0);
    }
  }
  EXPECT_GT(restricted, 0u);
}

}  // namespace
}  // namespace comparesets
