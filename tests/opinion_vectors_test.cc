#include "opinion/vectors.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace comparesets {
namespace {

class InstanceVectorsTest : public ::testing::Test {
 protected:
  InstanceVectorsTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(InstanceVectorsTest, ShapesMatchInstance) {
  EXPECT_EQ(vectors_.num_items(), 3u);
  EXPECT_EQ(vectors_.items.size(), 3u);
  EXPECT_EQ(vectors_.gamma.size(), 5u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(vectors_.num_reviews(i), instance_.items[i]->reviews.size());
    const ItemVectors& item = *vectors_.items[i];
    EXPECT_EQ(item.reviews, vectors_.num_reviews(i));
    EXPECT_EQ(item.opinion_columns.size(), item.reviews * 10u);
    EXPECT_EQ(item.aspect_columns.size(), item.reviews * 5u);
    EXPECT_EQ(vectors_.AspectDots(i).size(), item.reviews);
    EXPECT_EQ(vectors_.tau(i).size(), 10u);  // 2z.
  }
}

TEST_F(InstanceVectorsTest, TauMatchesFullSetOpinionVector) {
  OpinionModel model = OpinionModel::Binary(5);
  for (size_t i = 0; i < 3; ++i) {
    Vector direct = model.OpinionVector(AllReviews(*instance_.items[i]));
    EXPECT_TRUE(vectors_.tau(i).AlmostEquals(direct)) << "item " << i;
  }
}

TEST_F(InstanceVectorsTest, GammaIsTargetAspectDistribution) {
  OpinionModel model = OpinionModel::Binary(5);
  Vector direct = model.AspectVector(AllReviews(*instance_.items[0]));
  EXPECT_TRUE(vectors_.gamma.AlmostEquals(direct));
}

TEST_F(InstanceVectorsTest, ColumnsMatchModelColumns) {
  OpinionModel model = OpinionModel::Binary(5);
  for (size_t i = 0; i < 3; ++i) {
    const Product& product = *instance_.items[i];
    for (size_t r = 0; r < product.reviews.size(); ++r) {
      std::span<const double> opinion = vectors_.items[i]->OpinionColumn(r);
      std::span<const double> aspect = vectors_.items[i]->AspectColumn(r);
      EXPECT_EQ(Vector(std::vector<double>(opinion.begin(), opinion.end())),
                model.ReviewOpinionColumn(product.reviews[r]));
      Vector aspect_column(std::vector<double>(aspect.begin(), aspect.end()));
      EXPECT_EQ(aspect_column, model.ReviewAspectColumn(product.reviews[r]));
      // The instance's target term is a(r)ᵀΓ.
      EXPECT_DOUBLE_EQ(vectors_.AspectDots(i)[r],
                       aspect_column.Dot(vectors_.gamma));
    }
  }
}

TEST_F(InstanceVectorsTest, OpinionOfMatchesDirectEvaluation) {
  OpinionModel model = OpinionModel::Binary(5);
  Selection selection = {0, 2};
  Vector via_context = vectors_.OpinionOf(1, selection);
  Vector direct =
      model.OpinionVector(SelectReviews(*instance_.items[1], selection));
  EXPECT_TRUE(via_context.AlmostEquals(direct));
}

TEST_F(InstanceVectorsTest, AspectOfMatchesDirectEvaluation) {
  OpinionModel model = OpinionModel::Binary(5);
  Selection selection = {1, 3, 4};
  Vector via_context = vectors_.AspectOf(2, selection);
  Vector direct =
      model.AspectVector(SelectReviews(*instance_.items[2], selection));
  EXPECT_TRUE(via_context.AlmostEquals(direct));
}

TEST_F(InstanceVectorsTest, EmptySelectionGivesZeroVectors) {
  EXPECT_DOUBLE_EQ(vectors_.OpinionOf(0, {}).NormL1(), 0.0);
  EXPECT_DOUBLE_EQ(vectors_.AspectOf(0, {}).NormL1(), 0.0);
}

TEST_F(InstanceVectorsTest, ThreePolarityContextHasWiderTau) {
  InstanceVectors three =
      BuildInstanceVectors(OpinionModel::ThreePolarity(5), instance_);
  EXPECT_EQ(three.tau(0).size(), 15u);
  EXPECT_EQ(three.gamma.size(), 5u);  // φ independent of opinion dims.
  EXPECT_TRUE(three.gamma.AlmostEquals(vectors_.gamma));
}

TEST_F(InstanceVectorsTest, UnaryScaleTauWithinUnitInterval) {
  InstanceVectors unary =
      BuildInstanceVectors(OpinionModel::UnaryScale(5), instance_);
  EXPECT_EQ(unary.tau(0).size(), 5u);
  for (size_t d = 0; d < 5; ++d) {
    EXPECT_GE(unary.tau(0)[d], 0.0);
    EXPECT_LE(unary.tau(0)[d], 1.0);
  }
}

}  // namespace
}  // namespace comparesets
