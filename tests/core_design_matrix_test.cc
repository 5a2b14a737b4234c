#include "core/design_matrix.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "oracle/materialized_design.h"
#include "test_fixtures.h"

namespace comparesets {
namespace {

Vector Column(std::span<const double> column) {
  return Vector(std::vector<double>(column.begin(), column.end()));
}

class DesignMatrixTest : public ::testing::Test {
 protected:
  DesignMatrixTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(DesignMatrixTest, CrsSystemTargetsOpinionsOnly) {
  DesignSystem system = BuildCrsSystem(vectors_, 0);
  EXPECT_DOUBLE_EQ(system.gram.target_norm2,
                   vectors_.tau(0).Dot(vectors_.tau(0)));
  ASSERT_EQ(system.gram.vty.size(), system.cols());
  for (size_t g = 0; g < system.cols(); ++g) {
    size_t review = system.group_reviews[g][0];
    EXPECT_DOUBLE_EQ(system.gram.vty[g],
                     Column(vectors_.items[0]->OpinionColumn(review))
                         .Dot(vectors_.tau(0)));
  }
}

TEST_F(DesignMatrixTest, CompareSetsTargetNormAddsWeightedGamma) {
  double lambda = 2.0;
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, lambda);
  EXPECT_DOUBLE_EQ(system.gram.target_norm2,
                   vectors_.tau(0).Dot(vectors_.tau(0)) +
                       lambda * lambda * vectors_.gamma.Dot(vectors_.gamma));
}

TEST_F(DesignMatrixTest, DeduplicationMergesIdenticalReviews) {
  // The working-example target has two identical triples: r1≡r4, r2≡r5,
  // r3≡r6 → exactly 3 deduplicated column groups of multiplicity 2.
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  EXPECT_EQ(system.cols(), 3u);
  EXPECT_EQ(system.gram.cols(), 3u);
  for (int count : system.dup_counts) EXPECT_EQ(count, 2);
  size_t total_reviews = 0;
  for (const auto& group : system.group_reviews) {
    total_reviews += group.size();
  }
  EXPECT_EQ(total_reviews, 6u);
}

TEST_F(DesignMatrixTest, GroupReviewsShareOneSignature) {
  const ItemVectors& item = *vectors_.items[0];
  ItemBlocks blocks = BuildItemBlocks(item);
  const Product& target = *instance_.items[0];
  for (size_t g = 0; g < blocks.pair_groups(); ++g) {
    size_t head = blocks.GroupReviews(g)[0];
    for (size_t review_index : blocks.GroupReviews(g)) {
      ASSERT_LT(review_index, target.reviews.size());
      EXPECT_EQ(Column(item.OpinionColumn(review_index)),
                Column(item.OpinionColumn(head)))
          << "group " << g;
      EXPECT_EQ(Column(item.AspectColumn(review_index)),
                Column(item.AspectColumn(head)))
          << "group " << g;
    }
  }
}

TEST_F(DesignMatrixTest, LambdaWeighsTheAspectGramOnly) {
  // G(λ) = G_op + λ²·G_asp: going from λ = 1 to λ = 3 adds 8·G_asp.
  ItemBlocks blocks = BuildItemBlocks(*vectors_.items[0]);
  DesignSystem unscaled = BuildCompareSetsSystem(vectors_, 0, 1.0);
  DesignSystem scaled = BuildCompareSetsSystem(vectors_, 0, 3.0);
  ASSERT_EQ(unscaled.cols(), scaled.cols());
  for (size_t g = 0; g < scaled.cols(); ++g) {
    for (size_t h = 0; h <= g; ++h) {
      double aspect = blocks.gram_aspect[g * (g + 1) / 2 + h];
      EXPECT_DOUBLE_EQ(scaled.gram.gram(g, h) - unscaled.gram.gram(g, h),
                       8.0 * aspect);
    }
  }
}

TEST_F(DesignMatrixTest, PlusSystemStacksOneMuBlockPerOtherItem) {
  std::vector<Vector> other_phis = {vectors_.AspectOf(1, {0, 1}),
                                    vectors_.AspectOf(2, {0})};
  double mu = 0.5;
  ItemBlocks blocks = BuildItemBlocks(*vectors_.items[0]);
  DesignSystem plus =
      BuildCompareSetsPlusSystem(vectors_, 0, 1.0, mu, other_phis);
  DesignSystem plain = BuildCompareSetsSystem(vectors_, 0, 1.0);
  ASSERT_EQ(plus.cols(), plain.cols());
  Vector phi_sum = other_phis[0];
  for (size_t a = 0; a < phi_sum.size(); ++a) phi_sum[a] += other_phis[1][a];
  for (size_t g = 0; g < plus.cols(); ++g) {
    // Two other items: G gains 2μ²·G_asp, Ṽᵀy gains μ²·a_gᵀ(φ_1 + φ_2).
    double aspect = blocks.gram_aspect[g * (g + 1) / 2 + g];
    EXPECT_DOUBLE_EQ(plus.gram.gram(g, g) - plain.gram.gram(g, g),
                     2.0 * mu * mu * aspect);
    size_t review = plus.group_reviews[g][0];
    EXPECT_NEAR(plus.gram.vty[g] - plain.gram.vty[g],
                mu * mu *
                    Column(vectors_.items[0]->AspectColumn(review))
                        .Dot(phi_sum),
                1e-12);
  }
  EXPECT_NEAR(plus.gram.target_norm2 - plain.gram.target_norm2,
              mu * mu * (other_phis[0].Dot(other_phis[0]) +
                         other_phis[1].Dot(other_phis[1])),
              1e-12);
}

TEST_F(DesignMatrixTest, PlusSystemRejectsWrongPhiCount) {
  std::vector<Vector> wrong = {vectors_.AspectOf(1, {0})};  // Need 2.
  EXPECT_DEATH(
      BuildCompareSetsPlusSystem(vectors_, 0, 1.0, 1.0, wrong),
      "one");
}

TEST_F(DesignMatrixTest, ZeroLambdaCollapsesToOpinionMatching) {
  DesignSystem zero = BuildCompareSetsSystem(vectors_, 0, 0.0);
  DesignSystem crs = BuildCrsSystem(vectors_, 0);
  EXPECT_EQ(zero.dup_counts, crs.dup_counts);
  EXPECT_EQ(zero.group_reviews, crs.group_reviews);
  EXPECT_EQ(zero.gram.gram, crs.gram.gram);
  EXPECT_EQ(zero.gram.vty, crs.gram.vty);
  EXPECT_EQ(zero.gram.target_norm2, crs.gram.target_norm2);
}

TEST_F(DesignMatrixTest, AssemblyMatchesMaterializedBuilder) {
  for (size_t item = 0; item < vectors_.num_items(); ++item) {
    oracle::MaterializedSystem reference =
        oracle::BuildCompareSetsSystem(vectors_, item, 1.0);
    DesignSystem assembled = BuildCompareSetsSystem(vectors_, item, 1.0);
    EXPECT_EQ(assembled.dup_counts, reference.dup_counts);
    EXPECT_EQ(assembled.group_reviews, reference.group_reviews);
    ASSERT_EQ(assembled.cols(), reference.gram.cols());
    for (size_t g = 0; g < assembled.cols(); ++g) {
      for (size_t h = 0; h < assembled.cols(); ++h) {
        EXPECT_NEAR(assembled.gram.gram(g, h), reference.gram.gram(g, h),
                    1e-12);
      }
      EXPECT_NEAR(assembled.gram.vty[g], reference.gram.vty[g], 1e-12);
    }
    EXPECT_NEAR(assembled.gram.target_norm2, reference.gram.target_norm2,
                1e-12);
  }
}

TEST_F(DesignMatrixTest, BlockSlotServesOneBuildPerProduct) {
  // A freshly built item's slot is empty until a solve asks for its
  // blocks.
  const ItemBlockSlot& slot = vectors_.items[1]->blocks;
  EXPECT_EQ(slot.ApproxMemoryBytes(), 0u);
  EXPECT_EQ(slot.Find(), nullptr);
  auto first = GetOrBuildItemBlocks(vectors_, 1);
  auto again = GetOrBuildItemBlocks(vectors_, 1);
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(slot.Find().get(), first.get());
  EXPECT_EQ(slot.ApproxMemoryBytes(), first->ApproxMemoryBytes());
  EXPECT_GT(slot.ApproxMemoryBytes(), 0u);
  // Copies share the item vectors, so they share the blocks.
  InstanceVectors copy = vectors_;
  EXPECT_EQ(GetOrBuildItemBlocks(copy, 1).get(), first.get());
  // Another instance assembled over the same item vectors shares them
  // too, whatever its target: the blocks hold no target term.
  ProblemInstance swapped{{instance_.items[1], instance_.items[0]}};
  InstanceVectors other = AssembleInstanceVectors(
      vectors_.model, swapped, {vectors_.items[1], vectors_.items[0]});
  EXPECT_EQ(GetOrBuildItemBlocks(other, 0).get(), first.get());
  // Vectors built again start with their own slot and build an equal
  // value.
  InstanceVectors rebuilt =
      BuildInstanceVectors(OpinionModel::Binary(5), instance_);
  auto fresh = GetOrBuildItemBlocks(rebuilt, 1);
  EXPECT_NE(fresh.get(), first.get());
  EXPECT_EQ(fresh->gram_opinion, first->gram_opinion);
  EXPECT_EQ(slot.ApproxMemoryBytes(), first->ApproxMemoryBytes());
}

}  // namespace
}  // namespace comparesets
