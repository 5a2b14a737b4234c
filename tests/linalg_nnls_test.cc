#include "linalg/nnls.h"

#include <gtest/gtest.h>

#include "linalg/qr.h"
#include "oracle/dense_solvers.h"
#include "util/rng.h"

namespace comparesets {
namespace {

Matrix FromRows(const std::vector<std::vector<double>>& rows) {
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

TEST(NnlsTest, UnconstrainedOptimumAlreadyNonNegative) {
  Matrix a = FromRows({{1.0, 0.0}, {0.0, 1.0}});
  Vector b = {2.0, 3.0};
  auto result = SolveNnls(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().x[0], 2.0, 1e-9);
  EXPECT_NEAR(result.value().x[1], 3.0, 1e-9);
  EXPECT_NEAR(result.value().residual_norm, 0.0, 1e-9);
}

TEST(NnlsTest, ClampsNegativeCoordinateToZero) {
  // Unconstrained LS would need a negative coefficient on column 2.
  Matrix a = FromRows({{1.0, 1.0}, {0.0, 1.0}});
  Vector b = {1.0, -1.0};
  auto result = SolveNnls(a, b);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < result.value().x.size(); ++j) {
    EXPECT_GE(result.value().x[j], 0.0);
  }
  // Optimal NNLS here: x = (1, 0) with residual (0, -1).
  EXPECT_NEAR(result.value().x[0], 1.0, 1e-8);
  EXPECT_NEAR(result.value().x[1], 0.0, 1e-8);
}

TEST(NnlsTest, ZeroRhsGivesZeroSolution) {
  Matrix a = FromRows({{1.0, 2.0}, {3.0, 4.0}});
  auto result = SolveNnls(a, Vector{0.0, 0.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().x.NormL1(), 0.0, 1e-12);
}

TEST(NnlsTest, SolutionSatisfiesKkt) {
  // KKT for NNLS: w = A^T(b − Ax) has w_j <= tol for all j, and
  // w_j ≈ 0 where x_j > 0.
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 6 + trial % 5;
    size_t cols = 3 + trial % 3;
    Matrix a(rows, cols);
    Vector b(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) a(r, c) = rng.Normal();
      b[r] = rng.Normal();
    }
    auto result = SolveNnls(a, b);
    ASSERT_TRUE(result.ok());
    const Vector& x = result.value().x;
    Vector w = a.MultiplyTranspose(b - a.Multiply(x));
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_GE(x[j], 0.0) << "trial " << trial;
      EXPECT_LE(w[j], 1e-6) << "trial " << trial << " col " << j;
      if (x[j] > 1e-9) {
        EXPECT_NEAR(w[j], 0.0, 1e-6) << "trial " << trial << " col " << j;
      }
    }
  }
}

TEST(NnlsTest, NoWorseThanZeroVector) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix a(5, 4);
    Vector b(5);
    for (size_t r = 0; r < 5; ++r) {
      for (size_t c = 0; c < 4; ++c) a(r, c) = rng.Normal();
      b[r] = rng.Normal();
    }
    auto result = SolveNnls(a, b);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value().residual_norm, b.NormL2() + 1e-9);
  }
}

TEST(NnlsTest, RecoversPlantedNonNegativeSolution) {
  Rng rng(123);
  for (int trial = 0; trial < 15; ++trial) {
    Matrix a(10, 4);
    for (size_t r = 0; r < 10; ++r) {
      for (size_t c = 0; c < 4; ++c) a(r, c) = rng.UniformDouble();
    }
    Vector planted = {0.5, 0.0, 1.5, 0.0};
    Vector b = a.Multiply(planted);
    auto result = SolveNnls(a, b);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result.value().residual_norm, 0.0, 1e-6) << "trial " << trial;
  }
}

TEST(NnlsTest, RejectsEmptyAndMismatched) {
  EXPECT_FALSE(SolveNnls(Matrix(0, 0), Vector()).ok());
  EXPECT_FALSE(SolveNnls(Matrix(2, 2), Vector{1.0}).ok());
}

TEST(NnlsTest, AllNegativeCorrelationGivesZero) {
  // b is in the opposite direction of every column: optimum is x = 0.
  Matrix a = FromRows({{1.0, 2.0}, {1.0, 1.0}});
  Vector b = {-1.0, -1.0};
  auto result = SolveNnls(a, b);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().x.NormL1(), 0.0, 1e-12);
  EXPECT_EQ(result.value().iterations, 0);
}

}  // namespace
}  // namespace comparesets
