// NOMP — Non-negative Orthogonal Matching Pursuit.
//
// Solves the sparsity-constrained non-negative regression at the heart of
// the Integer-Regression algorithm (Lappas et al., KDD'12; Algorithm 1 of
// the CompaReSetS paper):
//
//   find x >= 0 with 0 < ||x||_0 <= ell minimizing ||V x - target||_2.
//
// Greedy: at each step, add the column most correlated with the current
// residual, then refit all active coefficients with NNLS. The residual
// norm is non-increasing over steps (tested as a property).

#pragma once

#include <vector>

#include "linalg/gram.h"
#include "linalg/vector.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace comparesets {

struct SolverWorkspace;

struct NompResult {
  /// Full-size coefficient vector (zeros outside the support).
  Vector x;
  /// Chosen column indices in selection order.
  std::vector<size_t> support;
  /// ||Vx - target||_2 at the solution.
  double residual_norm;
};

/// Runs NOMP with at most `ell` atoms on a precomputed GramSystem. Stops
/// early when no remaining column has positive correlation with the
/// residual. The correlation of every column with the residual is
/// Vᵀy − Gx (an O(q·k) update, independent of the row count), and each
/// refit is a SolveNnlsGramSubset over the current support with
/// incremental Cholesky factors. Matches the dense textbook pursuit up
/// to floating-point reassociation (pinned by the equivalence tests
/// against a test-side dense oracle). `control` is checked at every atom
/// step (and inside the NNLS refit); expiry or cancellation returns the
/// matching status mid-pursuit. `workspace` (nullptr = thread-local)
/// supplies reusable scratch.
Result<NompResult> SolveNompGram(const GramSystem& system, size_t ell,
                                 const ExecControl* control = nullptr,
                                 SolverWorkspace* workspace = nullptr);

/// Every budget ℓ = 1..max_ell of SolveNompGram in ONE pursuit. The
/// greedy state after step s never depends on the budget (the loop body
/// reads only the support and coefficients), so one pass snapshots the
/// per-ℓ results as it goes — collapsing the per-budget caller's
/// O(max_ell²/2) NNLS refits to O(max_ell) — and each snapshot is
/// bit-identical to SolveNompGram(ℓ) on the same system (pinned by the
/// equivalence tests). Pursuits that stall early replicate their final
/// state through the remaining budgets, exactly as the per-ℓ calls
/// would stall. On a recoverable refit failure at step s the sweep
/// returns the completed prefix (budgets 1..s) — the budgets a per-ℓ
/// caller would have skipped error out of the result instead.
/// Deadline expiry / cancellation surface as status.
Result<std::vector<NompResult>> SolveNompGramSweep(
    const GramSystem& system, size_t max_ell,
    const ExecControl* control = nullptr,
    SolverWorkspace* workspace = nullptr);

}  // namespace comparesets
