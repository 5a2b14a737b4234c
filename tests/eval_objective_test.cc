#include "eval/objective.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace comparesets {
namespace {

class ObjectiveTest : public ::testing::Test {
 protected:
  ObjectiveTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(ObjectiveTest, FullSetSelectionHasZeroCost) {
  // Selecting every review makes π(S) = τ and φ(S) = Γ-for-the-target:
  // identity reconstruction invariant.
  Selection all_target = {0, 1, 2, 3, 4, 5};
  EXPECT_NEAR(SquaredDistance(vectors_.tau(0),
                              vectors_.OpinionOf(0, all_target)),
              0.0, 1e-12);
  EXPECT_NEAR(ItemCost(vectors_, 0, all_target, 1.0), 0.0, 1e-12);
}

TEST_F(ObjectiveTest, ItemCostCombinesOpinionAndAspectTerms) {
  Selection partial = {2};  // {battery−} only.
  double lambda = 2.0;
  double expected =
      SquaredDistance(vectors_.tau(0), vectors_.OpinionOf(0, partial)) +
      lambda * lambda *
          SquaredDistance(vectors_.gamma, vectors_.AspectOf(0, partial));
  EXPECT_NEAR(ItemCost(vectors_, 0, partial, lambda), expected, 1e-12);
}

TEST_F(ObjectiveTest, LambdaZeroDropsAspectTerm) {
  Selection partial = {2};
  double cost = ItemCost(vectors_, 0, partial, 0.0);
  EXPECT_NEAR(cost, SquaredDistance(vectors_.tau(0),
                                    vectors_.OpinionOf(0, partial)),
              1e-12);
}

TEST_F(ObjectiveTest, CompareSetsObjectiveIsSumOfItemCosts) {
  std::vector<Selection> selections = {{0, 1}, {0, 2}, {1, 3}};
  double lambda = 1.5;
  double total = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    total += ItemCost(vectors_, i, selections[i], lambda);
  }
  EXPECT_NEAR(CompareSetsObjective(vectors_, selections, lambda), total,
              1e-12);
}

TEST_F(ObjectiveTest, PlusObjectiveAddsPairwiseTermsOnly) {
  std::vector<Selection> selections = {{0, 1}, {0, 2}, {1, 3}};
  double lambda = 1.0;
  double mu = 0.5;
  double base = CompareSetsObjective(vectors_, selections, lambda);
  double plus = CompareSetsPlusObjective(vectors_, selections, lambda, mu);
  EXPECT_GE(plus, base - 1e-12);

  // μ = 0 makes them identical.
  EXPECT_NEAR(CompareSetsPlusObjective(vectors_, selections, lambda, 0.0),
              base, 1e-12);
}

TEST_F(ObjectiveTest, PlusObjectiveMatchesManualExpansion) {
  std::vector<Selection> selections = {{0}, {1}, {2}};
  double lambda = 1.0;
  double mu = 0.3;
  SelectionVectors sv = BuildSelectionVectors(vectors_, selections);
  double expected = CompareSetsObjective(vectors_, selections, lambda);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      expected += mu * mu * SquaredDistance(sv.phi[i], sv.phi[j]);
    }
  }
  EXPECT_NEAR(CompareSetsPlusObjective(vectors_, selections, lambda, mu),
              expected, 1e-12);
}

TEST_F(ObjectiveTest, PairDistanceSymmetric) {
  std::vector<Selection> selections = {{0, 1}, {0, 2}, {1, 3}};
  double d01 = ItemPairDistance(vectors_, selections, 0, 1, 1.0, 0.1);
  double d10 = ItemPairDistance(vectors_, selections, 1, 0, 1.0, 0.1);
  EXPECT_NEAR(d01, d10, 1e-12);
}

TEST_F(ObjectiveTest, PairDistanceDecomposition) {
  std::vector<Selection> selections = {{0, 1}, {0, 2}, {1, 3}};
  double lambda = 1.0;
  double mu = 0.2;
  double d = ItemPairDistance(vectors_, selections, 0, 2, lambda, mu);
  SelectionVectors sv = BuildSelectionVectors(vectors_, selections);
  double expected =
      SquaredDistance(vectors_.tau(0), sv.pi[0]) +
      SquaredDistance(vectors_.tau(2), sv.pi[2]) +
      SquaredDistance(vectors_.gamma, sv.phi[0]) +
      SquaredDistance(vectors_.gamma, sv.phi[2]) +
      mu * mu * SquaredDistance(sv.phi[0], sv.phi[2]);
  EXPECT_NEAR(d, expected, 1e-12);
}

TEST_F(ObjectiveTest, SelectionVectorsMatchDirectComputation) {
  std::vector<Selection> selections = {{1, 3}, {0}, {2, 4}};
  SelectionVectors sv = BuildSelectionVectors(vectors_, selections);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(sv.pi[i].AlmostEquals(vectors_.OpinionOf(i, selections[i])));
    EXPECT_TRUE(sv.phi[i].AlmostEquals(vectors_.AspectOf(i, selections[i])));
  }
}

}  // namespace
}  // namespace comparesets
