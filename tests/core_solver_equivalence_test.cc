// Randomized property tests pinning the sparse Gram/Cholesky solver
// path to the dense reference oracle (tests/oracle/): identical supports
// and selections, coefficients within 1e-10, on real CRS / CompaReSetS /
// CompaReSetS+ systems. The selectors are also pinned to known answers
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
void ExpectNompEquivalent(const DesignSystem& system, size_t max_ell,
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
      DesignSystem system = BuildCrsSystem(vectors, item);
      ExpectNompEquivalent(system, 5, "crs");
    }
  }
}

TEST(SolverEquivalenceTest, NompGramMatchesDenseOnCompareSetsSystems) {
  Workload workload = SmallWorkload();
  for (const InstanceVectors& vectors : workload.vectors()) {
    for (size_t item = 0; item < vectors.num_items(); ++item) {
      for (double lambda : {1.0, 0.5}) {
        DesignSystem system = BuildCompareSetsSystem(vectors, item, lambda);
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
      DesignSystem system =
          BuildCompareSetsPlusSystem(vectors, item, 1.0, 0.1, other_phis);
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
IntegerRegressionResult DenseIntegerRegression(const DesignSystem& system,
                                               size_t m,
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
      DesignSystem system = BuildCompareSetsSystem(vectors, item, 1.0);
      auto gram_run = SolveIntegerRegression(system, 3, cost);
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

/// Exact (bitwise) equality of two GramSystems.
void ExpectGramBitIdentical(const GramSystem& a, const GramSystem& b,
                            const char* label) {
  ASSERT_EQ(a.cols(), b.cols()) << label;
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a.gram(i, j), b.gram(i, j))
          << label << " G(" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(a.vty, b.vty) << label << " vty";
  EXPECT_EQ(a.target_norm2, b.target_norm2) << label << " ||y||^2";
  EXPECT_EQ(a.col_norms, b.col_norms) << label << " col_norms";
}

TEST(SolverEquivalenceTest, NompSweepMatchesPerBudgetCallsBitwise) {
  // The batched sweep must reproduce each per-ℓ pursuit EXACTLY — same
  // bits, not just same supports — since the engine's batch window
  // swaps one for the other behind callers' backs.
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

TEST(SolverEquivalenceTest, GramBatchMatchesSoloBuildsBitwise) {
  Workload workload = SmallWorkload();
  const InstanceVectors& vectors = workload.vectors().front();

  // Distinct systems per item, plus targets repeated against item 0's
  // matrix (the shared-V fast path must still match a solo build).
  std::vector<DesignSystem> skeletons;
  for (size_t item = 0; item < vectors.num_items(); ++item) {
    skeletons.push_back(BuildCompareSetsSystem(vectors, item, 0.5));
  }
  Vector alt_target = skeletons[0].target;
  for (size_t i = 0; i < alt_target.size(); ++i) {
    alt_target[i] += 0.25 * static_cast<double>(i % 3);
  }

  std::vector<GramBuildItem> items;
  for (const DesignSystem& s : skeletons) {
    items.push_back({&s.v, &s.target});
  }
  items.push_back({&skeletons[0].v, &alt_target});   // shared-V, new target
  items.push_back({&skeletons[0].v, &skeletons[0].target});  // exact repeat

  std::vector<GramSystem> batch = BuildGramSystemBatch(items);
  ASSERT_EQ(batch.size(), items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    GramSystem solo = BuildGramSystem(*items[k].v, *items[k].target);
    ExpectGramBitIdentical(batch[k], solo, "batch item");
  }
}

TEST(SolverEquivalenceTest, NnlsGramBatchMatchesSequentialSolvesBitwise) {
  Workload workload = SmallWorkload();
  const InstanceVectors& vectors = workload.vectors().front();
  DesignSystem base = BuildCompareSetsSystem(vectors, 0, 1.0);

  // Several right-hand sides against one Gram: the real targets of a
  // few items (re-projected through base's matrix), plus an exact
  // duplicate that must be served by the batch's memo path.
  std::vector<Vector> vtys;
  std::vector<double> norms;
  vtys.push_back(base.gram.vty);
  norms.push_back(base.gram.target_norm2);
  for (double shift : {0.5, -0.25, 2.0}) {
    Vector vty = base.gram.vty;
    for (size_t j = 0; j < vty.size(); ++j) {
      vty[j] += shift * static_cast<double>(j + 1) / 7.0;
    }
    vtys.push_back(std::move(vty));
    norms.push_back(base.gram.target_norm2 + shift * shift);
  }
  vtys.push_back(vtys[1]);  // Bit-exact duplicate of problem 1.
  norms.push_back(norms[1]);

  std::vector<NnlsGramProblem> problems;
  for (size_t k = 0; k < vtys.size(); ++k) {
    problems.push_back({&vtys[k], norms[k]});
  }
  auto batch = SolveNnlsGramBatch(base.gram.gram, problems);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), problems.size());
  for (size_t k = 0; k < problems.size(); ++k) {
    auto solo = SolveNnlsGram(base.gram.gram, vtys[k], norms[k]);
    ASSERT_TRUE(solo.ok()) << "problem " << k;
    EXPECT_EQ(batch.value()[k].x, solo.value().x) << "problem " << k;
    EXPECT_EQ(batch.value()[k].residual_norm, solo.value().residual_norm)
        << "problem " << k;
    EXPECT_EQ(batch.value()[k].iterations, solo.value().iterations)
        << "problem " << k;
    EXPECT_EQ(batch.value()[k].converged, solo.value().converged)
        << "problem " << k;
  }
}

TEST(SolverEquivalenceTest, RefreshDesignTargetMatchesRebuildBitwise) {
  // The CompaReSetS+ sweep refreshes each item's target in place across
  // sync rounds; a refreshed system must be indistinguishable — bitwise
  // — from rebuilding with the new φ blocks.
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
    std::vector<Vector> round0 = phis_with_prefix(item, 2);
    std::vector<Vector> round1 = phis_with_prefix(item, 3);

    DesignSystem refreshed =
        BuildCompareSetsPlusSystem(vectors, item, 1.0, 0.1, round0);
    RefreshDesignTarget(
        &refreshed, BuildCompareSetsPlusTarget(vectors, item, 1.0, 0.1, round1));

    DesignSystem rebuilt =
        BuildCompareSetsPlusSystem(vectors, item, 1.0, 0.1, round1);
    EXPECT_EQ(refreshed.target, rebuilt.target);
    EXPECT_EQ(refreshed.dup_counts, rebuilt.dup_counts);
    EXPECT_EQ(refreshed.group_reviews, rebuilt.group_reviews);
    ExpectGramBitIdentical(refreshed.gram, rebuilt.gram, "refresh");
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
