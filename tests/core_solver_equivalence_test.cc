// Randomized property tests pinning the sparse Gram/Cholesky solver
// path to the dense reference oracle (tests/oracle/): identical supports
// and selections, coefficients within 1e-10, on real CRS / CompaReSetS /
// CompaReSetS+ systems (materialized by the oracle builder, so the dense
// solvers see the stacked rows). The selectors are also pinned to known answers
// recorded from the dense path. Also covers the non-convergence flag and
// cancellation landing mid-solve between refits.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/design_matrix.h"
#include "core/integer_regression.h"
#include "core/selector.h"
#include "eval/runner.h"
#include "linalg/nnls.h"
#include "linalg/nomp.h"
#include "oracle/dense_solvers.h"
#include "oracle/materialized_design.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace comparesets {
namespace {

Workload SmallWorkload() {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 24;
  config.max_instances = 6;
  config.seed = 7;
  return Workload::BuildSynthetic(config).ValueOrDie();
}

/// Asserts SolveNomp (dense) and SolveNompGram agree on one system for
/// every sparsity budget up to `max_ell`.
void ExpectNompEquivalent(const oracle::MaterializedSystem& system,
                          size_t max_ell,
                          const char* label) {
  Matrix dense = system.v.ToDense();
  for (size_t ell = 1; ell <= max_ell; ++ell) {
    auto reference = SolveNomp(dense, system.target, ell);
    auto gram = SolveNompGram(system.gram, ell);
    ASSERT_TRUE(reference.ok()) << label;
    ASSERT_TRUE(gram.ok()) << label;
    EXPECT_EQ(gram.value().support, reference.value().support)
        << label << " ell=" << ell;
    ASSERT_EQ(gram.value().x.size(), reference.value().x.size());
    for (size_t j = 0; j < gram.value().x.size(); ++j) {
      EXPECT_NEAR(gram.value().x[j], reference.value().x[j], 1e-10)
          << label << " ell=" << ell << " x[" << j << "]";
    }
    // Compare squared residuals: near an exact fit the Gram quadratic
    // form ‖y‖² − 2xᵀVᵀy + xᵀGx cancels to ~ε·‖y‖², which is √ε ≈ 1e-8
    // in the *norm* — the squared values still agree to ~1e-15.
    EXPECT_NEAR(gram.value().residual_norm * gram.value().residual_norm,
                reference.value().residual_norm *
                    reference.value().residual_norm,
                1e-12)
        << label << " ell=" << ell;
  }
}

TEST(SolverEquivalenceTest, NompGramMatchesDenseOnCrsSystems) {
  Workload workload = SmallWorkload();
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      oracle::MaterializedSystem system = oracle::BuildCrsSystem(vectors, item);
      ExpectNompEquivalent(system, 5, "crs");
    }
  }
}

TEST(SolverEquivalenceTest, NompGramMatchesDenseOnCompareSetsSystems) {
  Workload workload = SmallWorkload();
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      for (double lambda : {1.0, 0.5}) {
        oracle::MaterializedSystem system =
            oracle::BuildCompareSetsSystem(vectors, item, lambda);
        ExpectNompEquivalent(system, 5, "comparesets");
      }
    }
  }
}

TEST(SolverEquivalenceTest, NompGramMatchesDenseOnCompareSetsPlusSystems) {
  Workload workload = SmallWorkload();
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      // φ's of the other items' current selections: take a small prefix
      // selection per item, as the coordinate-descent sweep would.
      std::vector<Vector> other_phis;
      for (size_t t = 0; t < vectors.num_items(); ++t) {
        if (t == item) continue;
        Selection prefix;
        for (size_t j = 0; j < std::min<size_t>(3, vectors.num_reviews(t));
             ++j) {
          prefix.push_back(j);
        }
        other_phis.push_back(vectors.AspectOf(t, prefix));
      }
      oracle::MaterializedSystem system = oracle::BuildCompareSetsPlusSystem(
          vectors, item, 1.0, 0.1, other_phis);
      ExpectNompEquivalent(system, 4, "comparesets+");
    }
  }
}

TEST(SolverEquivalenceTest, NnlsGramMatchesDenseOnRandomProblems) {
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    size_t rows = 8 + static_cast<size_t>(trial) % 7;
    size_t cols = 3 + static_cast<size_t>(trial) % 5;
    Matrix a(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        if (rng.Bernoulli(0.5)) a(r, c) = rng.UniformDouble(0.0, 2.0);
      }
    }
    Vector b(rows);
    for (size_t r = 0; r < rows; ++r) b[r] = rng.Normal();

    Matrix gram(cols, cols);
    for (size_t i = 0; i < cols; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        gram(i, j) = a.Column(i).Dot(a.Column(j));
      }
    }
    auto reference = SolveNnls(a, b);
    auto fast = SolveNnlsGram(gram, a.MultiplyTranspose(b), b.Dot(b));
    ASSERT_TRUE(reference.ok()) << "trial " << trial;
    ASSERT_TRUE(fast.ok()) << "trial " << trial;
    EXPECT_TRUE(reference.value().converged);
    EXPECT_TRUE(fast.value().converged);
    ASSERT_EQ(fast.value().x.size(), cols);
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_NEAR(fast.value().x[j], reference.value().x[j], 1e-10)
          << "trial " << trial << " x[" << j << "]";
    }
    EXPECT_NEAR(fast.value().residual_norm, reference.value().residual_norm,
                1e-8)
        << "trial " << trial;
  }
}

/// The Integer-Regression loop on the dense oracle: per budget ℓ, the
/// dense NOMP relaxation, then the library's public rounding, then an
/// argmin of the true cost over the rounded candidates (first minimum
/// wins, as in SolveIntegerRegression).
IntegerRegressionResult DenseIntegerRegression(
    const oracle::MaterializedSystem& system, size_t m,
    const TrueCostFn& cost) {
  IntegerRegressionResult best;
  best.cost = std::numeric_limits<double>::infinity();
  Matrix dense = system.v.ToDense();
  for (size_t ell = 1; ell <= std::min(m, system.v.cols()); ++ell) {
    auto nomp = SolveNomp(dense, system.target, ell);
    if (!nomp.ok() || nomp.value().support.empty()) continue;
    std::vector<int> nu =
        RoundToIntegerCounts(nomp.value().x, system.dup_counts, m);
    Selection candidate;
    for (size_t g = 0; g < nu.size(); ++g) {
      for (int c = 0; c < nu[g]; ++c) {
        candidate.push_back(system.group_reviews[g][static_cast<size_t>(c)]);
      }
    }
    if (candidate.empty()) continue;
    std::sort(candidate.begin(), candidate.end());
    double candidate_cost = cost(candidate);
    if (candidate_cost < best.cost) {
      best.cost = candidate_cost;
      best.selection = std::move(candidate);
    }
  }
  return best;
}

TEST(SolverEquivalenceTest, IntegerRegressionBackendsPickIdenticalSelections) {
  Workload workload = SmallWorkload();
  TrueCostFn cost = [](const Selection& selection) {
    double sum = 0.0;  // Any deterministic stand-in objective works here.
    for (size_t j : selection) sum += 1.0 / (1.0 + static_cast<double>(j));
    return sum;
  };
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      oracle::MaterializedSystem system =
          oracle::BuildCompareSetsSystem(vectors, item, 1.0);
      auto gram_run = SolveIntegerRegression(system.AsDesignSystem(), 3, cost);
      IntegerRegressionResult dense_run = DenseIntegerRegression(system, 3, cost);
      ASSERT_TRUE(gram_run.ok());
      ASSERT_FALSE(dense_run.selection.empty());
      EXPECT_EQ(gram_run.value().selection, dense_run.selection);
      EXPECT_DOUBLE_EQ(gram_run.value().cost, dense_run.cost);
    }
  }
}

struct KnownAnswer {
  const char* selector;
  size_t instance;
  double objective;
  std::vector<Selection> selections;
};

TEST(SolverEquivalenceTest, SelectorsReproduceKnownAnswers) {
  const std::vector<KnownAnswer> answers = {
#include "oracle/small_workload_answers.inc"
  };
  Workload workload = SmallWorkload();
  ASSERT_EQ(answers.size(), 3 * workload.vectors().size());
  for (const KnownAnswer& answer : answers) {
    auto selector = MakeSelector(answer.selector).ValueOrDie();
    ASSERT_LT(answer.instance, workload.vectors().size());
    auto run = selector->Select(workload.vectors()[answer.instance],
                                SelectorOptions{});
    ASSERT_TRUE(run.ok()) << answer.selector << ": " << run.status();
    std::string where = std::string(answer.selector) + " instance " +
                        std::to_string(answer.instance);
    EXPECT_EQ(run.value().selections, answer.selections) << where;
    EXPECT_EQ(run.value().objective, answer.objective) << where;
  }
}

TEST(SolverEquivalenceTest, BothBackendsFlagAndCountNonConvergence) {
  // x* = b on the identity needs one outer iteration per variable, so a
  // cap of 1 must trip on both implementations.
  Matrix a(3, 3);
  a(0, 0) = a(1, 1) = a(2, 2) = 1.0;
  Vector b(3);
  b[0] = 1.0;
  b[1] = 2.0;
  b[2] = 3.0;

  std::atomic<uint64_t> nonconverged{0};
  ExecControl control;
  control.nnls_nonconverged = &nonconverged;
  NnlsOptions options;
  options.max_iterations = 1;
  options.control = &control;

  auto dense = SolveNnls(a, b, options);
  ASSERT_TRUE(dense.ok());
  EXPECT_FALSE(dense.value().converged);
  EXPECT_EQ(nonconverged.load(), 1u);

  auto gram = SolveNnlsGram(a, b, b.Dot(b), options);  // AᵀA = I, Aᵀb = b.
  ASSERT_TRUE(gram.ok());
  EXPECT_FALSE(gram.value().converged);
  EXPECT_EQ(nonconverged.load(), 2u);

  options.max_iterations = 0;  // Default cap: both converge and don't count.
  EXPECT_TRUE(SolveNnls(a, b, options).value().converged);
  EXPECT_TRUE(SolveNnlsGram(a, b, b.Dot(b), options).value().converged);
  EXPECT_EQ(nonconverged.load(), 2u);
}

TEST(SolverEquivalenceTest, CancellationLandsBetweenRefits) {
  // Cancel from inside the true-cost callback: the token flips after the
  // ℓ = 1 round has produced a candidate, so the next control check —
  // inside the ℓ = 2 NOMP/NNLS refit machinery — must abort the solve.
  Workload workload = SmallWorkload();
  const InstanceVectors& vectors = workload.vectors().front();
  DesignSystem system = BuildCompareSetsSystem(vectors, 0, 1.0);

  CancelToken token;
  std::atomic<uint64_t> iterations{0};
  ExecControl control;
  control.cancel = &token;
  control.iterations = &iterations;

  TrueCostFn cancelling_cost = [&token](const Selection& selection) {
    token.Cancel();
    return static_cast<double>(selection.size());
  };
  auto result = SolveIntegerRegression(system, 4, cancelling_cost, &control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GT(iterations.load(), 0u);
}

TEST(SolverEquivalenceTest, NompSweepMatchesPerBudgetCallsBitwise) {
  // The batched sweep must reproduce each per-ℓ pursuit EXACTLY — same
  // bits, not just same supports — since Integer-Regression solves
  // every budget through the sweep in place of per-budget calls.
  Workload workload = SmallWorkload();
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      DesignSystem system = BuildCompareSetsSystem(vectors, item, 1.0);
      const size_t max_ell = std::min<size_t>(5, system.gram.cols());
      auto sweep = SolveNompGramSweep(system.gram, max_ell);
      ASSERT_TRUE(sweep.ok());
      ASSERT_EQ(sweep.value().size(), max_ell);
      for (size_t ell = 1; ell <= max_ell; ++ell) {
        auto solo = SolveNompGram(system.gram, ell);
        ASSERT_TRUE(solo.ok()) << "ell=" << ell;
        const NompResult& snap = sweep.value()[ell - 1];
        EXPECT_EQ(snap.support, solo.value().support) << "ell=" << ell;
        EXPECT_EQ(snap.x, solo.value().x) << "ell=" << ell;
        EXPECT_EQ(snap.residual_norm, solo.value().residual_norm)
            << "ell=" << ell;
      }
    }
  }
}

TEST(SolverEquivalenceTest, PlusAssemblyKeepsGramAcrossSweepTargets) {
  // Across CompaReSetS+ sync rounds only the φ target blocks evolve: the
  // assembled groups, G and column norms must be bitwise the same for
  // any φ, and only Ṽᵀy and ‖y‖² may move.
  Workload workload = SmallWorkload();
  for (const InstanceVectors& vectors : workload.vectors()) {
    if (vectors.num_items() < 2) continue;
    auto phis_with_prefix = [&](size_t item, size_t take) {
      std::vector<Vector> phis;
      for (size_t t = 0; t < vectors.num_items(); ++t) {
        if (t == item) continue;
        Selection prefix;
        for (size_t j = 0; j < std::min<size_t>(take, vectors.num_reviews(t));
             ++j) {
          prefix.push_back(j);
        }
        phis.push_back(vectors.AspectOf(t, prefix));
      }
      return phis;
    };
    const size_t item = 0;
    DesignSystem round0 = BuildCompareSetsPlusSystem(
        vectors, item, 1.0, 0.1, phis_with_prefix(item, 2));
    DesignSystem round1 = BuildCompareSetsPlusSystem(
        vectors, item, 1.0, 0.1, phis_with_prefix(item, 3));
    EXPECT_EQ(round0.dup_counts, round1.dup_counts);
    EXPECT_EQ(round0.group_reviews, round1.group_reviews);
    EXPECT_EQ(round0.gram.gram, round1.gram.gram);
    EXPECT_EQ(round0.gram.col_norms, round1.gram.col_norms);
  }
}

TEST(SolverEquivalenceTest, GramSolversHonorPreCancelledControl) {
  Workload workload = SmallWorkload();
  const InstanceVectors& vectors = workload.vectors().front();
  DesignSystem system = BuildCompareSetsSystem(vectors, 0, 1.0);

  CancelToken token;
  token.Cancel();
  ExecControl control;
  control.cancel = &token;

  EXPECT_EQ(SolveNompGram(system.gram, 3, &control).status().code(),
            StatusCode::kCancelled);
  NnlsOptions options;
  options.control = &control;
  EXPECT_EQ(SolveNnlsGram(system.gram.gram, system.gram.vty,
                          system.gram.target_norm2, options)
                .status()
                .code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace comparesets
