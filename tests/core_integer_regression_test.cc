#include "core/integer_regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "eval/objective.h"
#include "oracle/integer_rounding.h"
#include "test_fixtures.h"
#include "util/rng.h"

namespace comparesets {
namespace {

// --- RoundToIntegerCounts ----------------------------------------------------

TEST(RoundingTest, ExactProportionsRecovered) {
  // x = (1/3, 1/3, 1/3) with caps 2 each, max_total 3 => ν = (1, 1, 1).
  Vector x = {1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<int> nu = RoundToIntegerCounts(x, {2, 2, 2}, 3);
  EXPECT_EQ(nu, (std::vector<int>{1, 1, 1}));
}

TEST(RoundingTest, SingleMassConcentrates) {
  Vector x = {0.0, 5.0, 0.0};
  std::vector<int> nu = RoundToIntegerCounts(x, {3, 3, 3}, 4);
  EXPECT_EQ(nu[0], 0);
  EXPECT_EQ(nu[2], 0);
  EXPECT_GE(nu[1], 1);
}

TEST(RoundingTest, CapsRespected) {
  Vector x = {10.0, 0.1};
  std::vector<int> nu = RoundToIntegerCounts(x, {1, 5}, 6);
  EXPECT_LE(nu[0], 1);
  EXPECT_LE(nu[1], 5);
}

TEST(RoundingTest, TotalBudgetRespected) {
  Vector x = {1.0, 1.0, 1.0, 1.0};
  for (size_t m = 1; m <= 6; ++m) {
    std::vector<int> nu = RoundToIntegerCounts(x, {5, 5, 5, 5}, m);
    int total = 0;
    for (int v : nu) total += v;
    EXPECT_LE(total, static_cast<int>(m));
    EXPECT_GE(total, 1);
  }
}

TEST(RoundingTest, ZeroVectorGivesZeroCounts) {
  std::vector<int> nu = RoundToIntegerCounts(Vector{0.0, 0.0}, {2, 2}, 3);
  EXPECT_EQ(nu, (std::vector<int>{0, 0}));
}

TEST(RoundingTest, SkewedProportionsFavorHeavyGroup) {
  Vector x = {0.75, 0.25};
  std::vector<int> nu = RoundToIntegerCounts(x, {10, 10}, 4);
  EXPECT_EQ(nu, (std::vector<int>{3, 1}));
}

TEST(RoundingTest, NormalizedDistanceOptimalOnSmallCase) {
  // Exhaustive check: returned ν is no worse than any feasible ν.
  Vector x = {0.6, 0.4};
  std::vector<int> caps = {2, 2};
  size_t m = 3;
  std::vector<int> best = RoundToIntegerCounts(x, caps, m);
  auto distance = [&](const std::vector<int>& nu) {
    double total = nu[0] + nu[1];
    if (total == 0) return 1e18;
    return std::fabs(nu[0] / total - 0.6) + std::fabs(nu[1] / total - 0.4);
  };
  for (int a = 0; a <= caps[0]; ++a) {
    for (int b = 0; b <= caps[1]; ++b) {
      if (a + b == 0 || a + b > static_cast<int>(m)) continue;
      EXPECT_LE(distance(best), distance({a, b}) + 1e-12)
          << "beaten by (" << a << "," << b << ")";
    }
  }
}

TEST(RoundingTest, HugeBudgetMatchesCapTotal) {
  // Past Σcaps every group is full, so any larger budget — up to the
  // largest a wire frame can carry — rounds exactly as Σcaps does (and
  // returns at once instead of scanning every total).
  Vector x = {0.55, 0.0, 0.3, 0.15};
  std::vector<int> caps = {2, 3, 1, 4};
  std::vector<int> at_cap_total = RoundToIntegerCounts(x, caps, 10);
  EXPECT_EQ(RoundToIntegerCounts(x, caps, SIZE_MAX), at_cap_total);
  EXPECT_EQ(RoundToIntegerCounts(x, caps, 11), at_cap_total);
}

TEST(RoundingTest, MatchesAllocatingReferenceExactly) {
  // The buffer-reusing, partial-sort rounding must return exactly what
  // the original allocate-and-stable_sort body returns. x is drawn from
  // a few small multiples of 1/4 (and zeros), so equal remainders — the
  // tie-break the two sorts must agree on — come up constantly.
  Rng rng(2024);
  for (int trial = 0; trial < 600; ++trial) {
    size_t q = 1 + static_cast<size_t>(rng.UniformInt(0, 63));
    if (trial % 3 == 0) q = 1 + static_cast<size_t>(rng.UniformInt(0, 11));
    Vector x(q);
    std::vector<int> caps(q);
    size_t cap_total = 0;
    for (size_t g = 0; g < q; ++g) {
      x[g] = rng.Bernoulli(0.2) ? 0.0 : 0.25 * rng.UniformInt(1, 8);
      caps[g] = rng.UniformInt(0, 5);
      cap_total += static_cast<size_t>(caps[g]);
    }
    std::vector<size_t> totals;
    if (q <= 12) {
      for (size_t t = 0; t <= cap_total + 3; ++t) totals.push_back(t);
    } else {
      totals = {0, 1, 2, cap_total, cap_total + 1, cap_total + 3};
      if (cap_total > 0) totals.push_back(cap_total - 1);
      for (int k = 0; k < 6; ++k) {
        totals.push_back(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(cap_total) + 3)));
      }
    }
    for (size_t max_total : totals) {
      EXPECT_EQ(RoundToIntegerCounts(x, caps, max_total),
                oracle::RoundToIntegerCounts(x, caps, max_total))
          << "trial " << trial << " q=" << q << " max_total=" << max_total;
    }
  }
}

// --- SolveIntegerRegression --------------------------------------------------

class IntegerRegressionTest : public ::testing::Test {
 protected:
  IntegerRegressionTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(IntegerRegressionTest, WorkingExampleAchievesZeroCost) {
  // Working Example 2: with m = 3 the optimal triple reproduces τ1 and Γ
  // exactly, so Integer-Regression must find a zero-cost selection.
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  auto cost = [&](const Selection& s) {
    return ItemCost(vectors_, 0, s, 1.0);
  };
  auto result = SolveIntegerRegression(system, 3, cost);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().cost, 0.0, 1e-12);
  EXPECT_EQ(result.value().selection.size(), 3u);
}

TEST_F(IntegerRegressionTest, WorkingExampleSelectionIsProportionalTriple) {
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  auto cost = [&](const Selection& s) {
    return ItemCost(vectors_, 0, s, 1.0);
  };
  auto result = SolveIntegerRegression(system, 3, cost);
  ASSERT_TRUE(result.ok());
  // The winning triple must contain one review of each signature class:
  // {b+,l+,q+}, {b−,l−,q−}, {b−}. Signature classes are {r1,r4}, {r2,r5},
  // {r3,r6} = indices {0,3}, {1,4}, {2,5}.
  std::vector<int> class_of = {0, 1, 2, 0, 1, 2};
  std::vector<int> seen(3, 0);
  for (size_t index : result.value().selection) {
    ASSERT_LT(index, 6u);
    ++seen[class_of[index]];
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 1, 1}));
}

TEST_F(IntegerRegressionTest, BudgetOfOneSelectsSingleReview) {
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  auto cost = [&](const Selection& s) {
    return ItemCost(vectors_, 0, s, 1.0);
  };
  auto result = SolveIntegerRegression(system, 1, cost);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().selection.size(), 1u);
}

TEST_F(IntegerRegressionTest, LargerBudgetNeverHurtsOnWorkingExample) {
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  auto cost = [&](const Selection& s) {
    return ItemCost(vectors_, 0, s, 1.0);
  };
  double previous = 1e18;
  for (size_t m = 1; m <= 6; ++m) {
    auto result = SolveIntegerRegression(system, m, cost);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value().cost, previous + 1e-9) << "m=" << m;
    previous = result.value().cost;
  }
}

TEST_F(IntegerRegressionTest, SelectionIndicesAreValidAndDistinct) {
  DesignSystem system = BuildCompareSetsSystem(vectors_, 1, 1.0);
  auto cost = [&](const Selection& s) {
    return ItemCost(vectors_, 1, s, 1.0);
  };
  auto result = SolveIntegerRegression(system, 3, cost);
  ASSERT_TRUE(result.ok());
  const Selection& selection = result.value().selection;
  std::set<size_t> unique(selection.begin(), selection.end());
  EXPECT_EQ(unique.size(), selection.size());
  for (size_t index : selection) {
    EXPECT_LT(index, instance_.items[1]->reviews.size());
  }
}

TEST_F(IntegerRegressionTest, InvalidInputsRejected) {
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  auto cost = [](const Selection&) { return 0.0; };
  EXPECT_FALSE(SolveIntegerRegression(system, 0, cost).ok());
  DesignSystem empty;
  EXPECT_FALSE(SolveIntegerRegression(empty, 3, cost).ok());
}

TEST_F(IntegerRegressionTest, CostCallbackDrivesChoice) {
  // With an adversarial cost that prefers review 5 alone, the engine must
  // respect the callback when comparing candidates it generates.
  DesignSystem system = BuildCompareSetsSystem(vectors_, 0, 1.0);
  auto contrarian_cost = [&](const Selection& s) {
    return s.size() == 1 && s[0] == 5 ? 0.0 : 1.0;
  };
  auto result = SolveIntegerRegression(system, 3, contrarian_cost);
  ASSERT_TRUE(result.ok());
  // The engine may or may not generate {5}, but whatever it returns must
  // be the best-cost candidate it evaluated; cost can never exceed the
  // cost of every generated candidate. Sanity: cost is 0 or 1.
  EXPECT_TRUE(result.value().cost == 0.0 || result.value().cost == 1.0);
}

}  // namespace
}  // namespace comparesets
