#include "linalg/nomp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "oracle/dense_solvers.h"
#include "util/rng.h"

namespace comparesets {
namespace {

Matrix FromColumns(const std::vector<Vector>& columns) {
  Matrix m(columns[0].size(), columns.size());
  for (size_t c = 0; c < columns.size(); ++c) m.SetColumn(c, columns[c]);
  return m;
}

TEST(NompTest, RecoversSingleAtom) {
  Matrix v = FromColumns({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}});
  auto result = SolveNomp(v, Vector{0.0, 2.0, 0.0}, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().support.size(), 1u);
  EXPECT_EQ(result.value().support[0], 1u);
  EXPECT_NEAR(result.value().x[1], 2.0, 1e-9);
  EXPECT_NEAR(result.value().residual_norm, 0.0, 1e-9);
}

TEST(NompTest, RecoversTwoAtomCombination) {
  Matrix v = FromColumns({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {1.0, 1.0, 1.0}});
  Vector target = {1.0, 0.0, 0.0};
  target.Axpy(2.0, Vector{1.0, 1.0, 1.0});  // target = col0 + 2*col2.
  auto result = SolveNomp(v, target, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().residual_norm, 0.0, 1e-8);
  EXPECT_NEAR(result.value().x[0], 1.0, 1e-7);
  EXPECT_NEAR(result.value().x[2], 2.0, 1e-7);
}

TEST(NompTest, RespectsSparsityBudget) {
  Rng rng(3);
  Matrix v(6, 10);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 10; ++c) v(r, c) = rng.UniformDouble();
  }
  Vector target(6);
  for (size_t r = 0; r < 6; ++r) target[r] = rng.UniformDouble();
  for (size_t ell = 1; ell <= 4; ++ell) {
    auto result = SolveNomp(v, target, ell);
    ASSERT_TRUE(result.ok());
    size_t nonzeros = 0;
    for (size_t j = 0; j < 10; ++j) {
      if (result.value().x[j] != 0.0) ++nonzeros;
    }
    EXPECT_LE(nonzeros, ell);
  }
}

TEST(NompTest, ResidualNonIncreasingInBudget) {
  // Core property of matching pursuit: more atoms never hurt.
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix v(8, 12);
    for (size_t r = 0; r < 8; ++r) {
      for (size_t c = 0; c < 12; ++c) v(r, c) = rng.UniformDouble();
    }
    Vector target(8);
    for (size_t r = 0; r < 8; ++r) target[r] = rng.UniformDouble();
    double previous = target.NormL2() + 1e-12;
    for (size_t ell = 1; ell <= 8; ++ell) {
      auto result = SolveNomp(v, target, ell);
      ASSERT_TRUE(result.ok());
      EXPECT_LE(result.value().residual_norm, previous + 1e-9)
          << "trial " << trial << " ell " << ell;
      previous = result.value().residual_norm;
    }
  }
}

TEST(NompTest, NonNegativeCoefficients) {
  Rng rng(23);
  Matrix v(6, 8);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 8; ++c) v(r, c) = rng.Normal();
  }
  Vector target(6);
  for (size_t r = 0; r < 6; ++r) target[r] = rng.Normal();
  auto result = SolveNomp(v, target, 5);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < 8; ++j) {
    EXPECT_GE(result.value().x[j], 0.0);
  }
}

TEST(NompTest, OrthogonalTargetGivesEmptySupport) {
  // Target negatively correlated with every column: nothing selected.
  Matrix v = FromColumns({{1.0, 0.0}, {1.0, 1.0}});
  auto result = SolveNomp(v, Vector{-1.0, -1.0}, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().support.empty());
  EXPECT_NEAR(result.value().residual_norm, std::sqrt(2.0), 1e-12);
}

TEST(NompTest, ZeroColumnsSkipped) {
  Matrix v = FromColumns({{0.0, 0.0}, {1.0, 0.0}});
  auto result = SolveNomp(v, Vector{2.0, 0.0}, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().support.size(), 1u);
  EXPECT_EQ(result.value().support[0], 1u);
}

TEST(NompTest, BudgetClampedToColumnCount) {
  Matrix v = FromColumns({{1.0, 0.0}});
  auto result = SolveNomp(v, Vector{1.0, 0.0}, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().support.size(), 1u);
}

TEST(NompTest, InvalidInputsRejected) {
  EXPECT_FALSE(SolveNomp(Matrix(0, 0), Vector(), 1).ok());
  EXPECT_FALSE(SolveNomp(Matrix(2, 2), Vector{1.0}, 1).ok());
  EXPECT_FALSE(SolveNomp(Matrix(2, 2), Vector{1.0, 2.0}, 0).ok());
}

TEST(NompTest, SupportOrderedBySelection) {
  // The column with the strongest *normalized* correlation is selected
  // first: col1 points exactly at the target, col0 only partially.
  Matrix v = FromColumns({{0.5, 0.5}, {1.0, 0.0}, {0.0, 1.0}});
  Vector target = {1.0, 0.0};
  auto result = SolveNomp(v, target, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result.value().support.size(), 1u);
  EXPECT_EQ(result.value().support[0], 1u);
}

TEST(NompTest, ExpiredDeadlineStopsMidSolve) {
  // An already-expired deadline trips at the first iteration boundary:
  // the solver returns kDeadlineExceeded instead of running the steps.
  Matrix v = FromColumns({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}});
  Deadline deadline(1e-12);
  while (!deadline.Expired()) {
  }
  ExecControl control;
  control.deadline = &deadline;
  auto result = SolveNomp(v, Vector{0.0, 2.0, 0.0}, 1, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(NompTest, CancellationStopsMidSolve) {
  Matrix v = FromColumns({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}});
  CancelToken cancel;
  cancel.Cancel();
  ExecControl control;
  control.cancel = &cancel;
  auto result = SolveNomp(v, Vector{0.0, 2.0, 0.0}, 1, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(NompTest, ControlledSolveMatchesUncontrolledBitForBit) {
  // Threading a live (never-tripping) control through the solver must
  // not change the numerics at all.
  Rng rng(11);
  Matrix v(6, 10);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 10; ++c) v(r, c) = rng.UniformDouble();
  }
  Vector target(6);
  for (size_t r = 0; r < 6; ++r) target[r] = rng.UniformDouble();

  Deadline deadline(0.0);  // Unlimited.
  std::atomic<uint64_t> iterations{0};
  ExecControl control;
  control.deadline = &deadline;
  control.iterations = &iterations;

  auto plain = SolveNomp(v, target, 3);
  auto controlled = SolveNomp(v, target, 3, &control);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(controlled.ok());
  EXPECT_EQ(plain.value().support, controlled.value().support);
  for (size_t i = 0; i < plain.value().x.size(); ++i) {
    EXPECT_EQ(plain.value().x[i], controlled.value().x[i]) << i;
  }
  EXPECT_EQ(plain.value().residual_norm, controlled.value().residual_norm);
  EXPECT_GT(iterations.load(), 0u);  // The checks actually ran.
}

TEST(NompTest, TiedCorrelationsBreakToFirstColumn) {
  // Parallel columns tie on normalized correlation; the deterministic
  // tie-break keeps the lowest index.
  Matrix v = FromColumns({{0.1, 0.0}, {1.0, 0.0}});
  auto result = SolveNomp(v, Vector{1.0, 0.0}, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().support.size(), 1u);
  EXPECT_EQ(result.value().support[0], 0u);
}

}  // namespace
}  // namespace comparesets
