#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/compare_sets.h"
#include "core/compare_sets_plus.h"
#include "core/crs.h"
#include "core/greedy_selector.h"
#include "core/random_selector.h"
#include "core/selector.h"
#include "eval/objective.h"
#include "test_fixtures.h"

namespace comparesets {
namespace {

class SelectorsTest : public ::testing::Test {
 protected:
  SelectorsTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  static SelectorOptions Options(size_t m = 3) {
    SelectorOptions options;
    options.m = m;
    options.lambda = 1.0;
    options.mu = 0.1;
    return options;
  }

  void ExpectWellFormed(const SelectionResult& result, size_t m) {
    ASSERT_EQ(result.selections.size(), vectors_.num_items());
    for (size_t i = 0; i < result.selections.size(); ++i) {
      const Selection& selection = result.selections[i];
      EXPECT_GE(selection.size(), 1u) << "item " << i;
      EXPECT_LE(selection.size(), m) << "item " << i;
      std::set<size_t> unique(selection.begin(), selection.end());
      EXPECT_EQ(unique.size(), selection.size()) << "item " << i;
      for (size_t index : selection) {
        EXPECT_LT(index, vectors_.num_reviews(i)) << "item " << i;
      }
    }
  }

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(SelectorsTest, EverySelectorProducesWellFormedSelections) {
  for (const std::string& name : AllSelectorNames()) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok()) << name;
    auto result = selector.value()->Select(vectors_, Options());
    ASSERT_TRUE(result.ok()) << name;
    ExpectWellFormed(result.value(), 3);
  }
}

TEST_F(SelectorsTest, FactoryRejectsUnknownNames) {
  EXPECT_FALSE(MakeSelector("NotASelector").ok());
  EXPECT_EQ(MakeSelector("NotASelector").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SelectorsTest, SelectorNamesMatchFactory) {
  for (const std::string& name : AllSelectorNames()) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok());
    EXPECT_EQ(selector.value()->name(), name);
  }
}

TEST_F(SelectorsTest, CompareSetsAchievesZeroCostOnWorkingExample) {
  CompareSetsSelector selector;
  auto result = selector.Select(vectors_, Options());
  ASSERT_TRUE(result.ok());
  // Item 0 has an exactly-proportional triple: Eq. 3 cost must be 0.
  EXPECT_NEAR(ItemCost(vectors_, 0, result.value().selections[0], 1.0), 0.0,
              1e-12);
}

TEST_F(SelectorsTest, CompareSetsPlusObjectiveNotWorseThanCompareSets) {
  // Algorithm 1 starts from the CompaReSetS solution and only accepts
  // improvements, so Eq. 5 can never get worse.
  CompareSetsSelector base;
  CompareSetsPlusSelector plus;
  SelectorOptions options = Options();
  auto base_result = base.Select(vectors_, options);
  auto plus_result = plus.Select(vectors_, options);
  ASSERT_TRUE(base_result.ok());
  ASSERT_TRUE(plus_result.ok());
  EXPECT_LE(plus_result.value().objective,
            base_result.value().objective + 1e-9);
}

TEST_F(SelectorsTest, ExtraSyncRoundsMonotone) {
  CompareSetsPlusSelector plus;
  SelectorOptions options = Options();
  auto one_pass = plus.Select(vectors_, options);
  options.extra_sync_rounds = 3;
  auto many_pass = plus.Select(vectors_, options);
  ASSERT_TRUE(one_pass.ok());
  ASSERT_TRUE(many_pass.ok());
  EXPECT_LE(many_pass.value().objective, one_pass.value().objective + 1e-9);
}

TEST_F(SelectorsTest, ReportedObjectiveMatchesRecomputation) {
  for (const std::string& name : AllSelectorNames()) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok());
    SelectorOptions options = Options();
    auto result = selector.value()->Select(vectors_, options);
    ASSERT_TRUE(result.ok()) << name;
    double recomputed = CompareSetsPlusObjective(
        vectors_, result.value().selections, options.lambda, options.mu);
    EXPECT_NEAR(result.value().objective, recomputed, 1e-9) << name;
  }
}

TEST_F(SelectorsTest, RandomSelectorDeterministicPerSeed) {
  RandomSelector selector;
  SelectorOptions options = Options();
  options.seed = 99;
  auto a = selector.Select(vectors_, options);
  auto b = selector.Select(vectors_, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().selections, b.value().selections);

  options.seed = 100;
  auto c = selector.Select(vectors_, options);
  ASSERT_TRUE(c.ok());
  // Different seed will (almost surely) change at least one selection;
  // tolerate equality but confirm the code path differs via objective.
  // (With 3 items × C(5..6,3) subsets, collision odds are tiny.)
  EXPECT_TRUE(a.value().selections != c.value().selections ||
              a.value().objective == c.value().objective);
}

TEST_F(SelectorsTest, RandomSelectorTakesAllWhenFewerThanM) {
  RandomSelector selector;
  auto result = selector.Select(vectors_, Options(100));
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < vectors_.num_items(); ++i) {
    EXPECT_EQ(result.value().selections[i].size(), vectors_.num_reviews(i));
  }
}

TEST_F(SelectorsTest, GreedyImprovesOverFirstPickOrStops) {
  CompareSetsGreedySelector selector;
  auto m1 = selector.Select(vectors_, Options(1));
  auto m3 = selector.Select(vectors_, Options(3));
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m3.ok());
  for (size_t i = 0; i < vectors_.num_items(); ++i) {
    double cost1 = ItemCost(vectors_, 0, m1.value().selections[0], 1.0);
    double cost3 = ItemCost(vectors_, 0, m3.value().selections[0], 1.0);
    EXPECT_LE(cost3, cost1 + 1e-9) << "item " << i;
  }
}

TEST_F(SelectorsTest, GreedyFirstPickIsBestSingleton) {
  CompareSetsGreedySelector selector;
  auto result = selector.Select(vectors_, Options(1));
  ASSERT_TRUE(result.ok());
  double chosen = ItemCost(vectors_, 0, result.value().selections[0], 1.0);
  for (size_t j = 0; j < vectors_.num_reviews(0); ++j) {
    EXPECT_LE(chosen, ItemCost(vectors_, 0, {j}, 1.0) + 1e-12);
  }
}

TEST_F(SelectorsTest, CrsIgnoresAspectCoverage) {
  // Crs only matches τ_i; its item-0 opinion distance is minimal among
  // all selectors (it is the specialist for that term).
  CrsSelector crs;
  auto result = crs.Select(vectors_, Options());
  ASSERT_TRUE(result.ok());
  Vector pi = vectors_.OpinionOf(0, result.value().selections[0]);
  EXPECT_NEAR(SquaredDistance(vectors_.tau(0), pi), 0.0, 1e-12);
}

TEST_F(SelectorsTest, InvalidOptionsRejectedByAllSelectors) {
  // m = 0 has no answer; a NaN or infinite λ/μ would otherwise come back
  // as a NaN objective labelled exact. Every selector refuses each with
  // the same Status.
  SelectorOptions zero_m = Options(3);
  zero_m.m = 0;
  SelectorOptions nan_lambda = Options(3);
  nan_lambda.lambda = std::numeric_limits<double>::quiet_NaN();
  SelectorOptions inf_mu = Options(3);
  inf_mu.mu = std::numeric_limits<double>::infinity();
  for (const std::string& name : AllSelectorNames()) {
    auto selector = MakeSelector(name);
    ASSERT_TRUE(selector.ok());
    for (const SelectorOptions& options : {zero_m, nan_lambda, inf_mu}) {
      auto result = selector.value()->Select(vectors_, options);
      ASSERT_FALSE(result.ok()) << name;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
      EXPECT_TRUE(result.status() == ValidateSelectorOptions(options)) << name;
    }
  }
}

TEST_F(SelectorsTest, SingleItemInstanceWorks) {
  // CompaReSetS+ degenerates to CompaReSetS for n = 1 (paper §2.2).
  ProblemInstance solo;
  solo.items = {corpus_.Find("p1")};
  InstanceVectors solo_vectors =
      BuildInstanceVectors(OpinionModel::Binary(5), solo);
  CompareSetsPlusSelector plus;
  auto result = plus.Select(solo_vectors, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().selections.size(), 1u);
  EXPECT_NEAR(ItemCost(solo_vectors, 0, result.value().selections[0], 1.0),
              0.0, 1e-12);
}

}  // namespace
}  // namespace comparesets
