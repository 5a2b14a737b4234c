// The Integer-Regression engine (Lappas et al. KDD'12; paper §2.2,
// Algorithm 1 lines 6–12): solve the continuous sparse non-negative
// relaxation with NOMP for every sparsity budget ℓ = 1..m, round each
// continuous solution to the nearest feasible integer selection, and
// keep the candidate with the lowest *true* set objective.

#pragma once

#include <functional>
#include <vector>

#include "core/design_matrix.h"
#include "util/cancellation.h"
#include "util/parallel.h"
#include "util/status.h"

namespace comparesets {

/// Exact objective of a candidate selection (review indices into
/// Product::reviews). Selectors pass Eq. 3 / Algorithm-1-line-10 costs.
using TrueCostFn = std::function<double(const Selection&)>;

struct IntegerRegressionResult {
  Selection selection;  ///< Chosen review indices, sorted ascending.
  double cost = 0.0;    ///< TrueCostFn value of the winner.
};

/// Rounds a continuous NOMP solution x to integer group counts ν
/// minimizing ‖ν/‖ν‖₁ − x/‖x‖₁‖₁ subject to ν_g ≤ caps[g] and
/// ‖ν‖₁ ≤ max_total (Algorithm 1 line 8). Exposed for testing.
std::vector<int> RoundToIntegerCounts(const Vector& x,
                                      const std::vector<int>& caps,
                                      size_t max_total);

/// Runs the engine on a deduplicated system; selects at most m reviews.
/// `true_cost` is consulted once per distinct rounded candidate.
/// `control` is checked at each sparsity budget ℓ and inside the NOMP
/// relaxation; cancellation/deadline aborts with the matching status.
/// The relaxations run on the system's sparse Gram/Cholesky core.
Result<IntegerRegressionResult> SolveIntegerRegression(
    const DesignSystem& system, size_t m, const TrueCostFn& true_cost,
    const ExecControl* control = nullptr);

/// Fans `n` independent per-item solves out over `parallel` (serial, in
/// index order, when the context is empty) and merges the results in
/// index order. `solve_item(i)` must be self-contained: it builds (or
/// fetches from a thread-safe cache) item i's system and runs
/// SolveIntegerRegression, whose solvers draw their scratch from the
/// running thread's SolverWorkspace::ThreadLocal(), so lanes never share
/// buffers.
///
/// Determinism contract: every solve_item(i) runs to completion whether
/// or not a sibling failed, and the merge returns the *lowest-index*
/// non-OK status — so a parallel run returns exactly the value (or
/// exactly the error) the serial run would. `control` is checked before
/// each item on top of solve_item's own iteration-boundary checks.
Result<std::vector<IntegerRegressionResult>> SolveItemsParallel(
    size_t n, const ParallelContext& parallel, const ExecControl* control,
    const char* where,
    const std::function<Result<IntegerRegressionResult>(size_t)>& solve_item);

}  // namespace comparesets
