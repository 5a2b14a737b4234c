// Non-negative least squares (Lawson–Hanson active-set method):
//   argmin_x ||Ax - b||_2  s.t.  x >= 0.
//
// Used inside NOMP to refit the coefficients of the active column set
// after each atom is added. The solvers work on the precomputed normal
// equations (G = AᵀA, Aᵀb, ‖b‖²), maintaining an incremental Cholesky
// factor of G_PP as variables enter/leave the passive set. (The dense
// textbook variant, which QR-solves the rows×k passive system per inner
// iteration, lives on only as a test-side oracle.)

#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace comparesets {

struct SolverWorkspace;

struct NnlsOptions {
  /// Dual-feasibility tolerance for termination.
  double tolerance = 1e-10;
  /// Safety cap on outer iterations (the algorithm terminates finitely in
  /// exact arithmetic; this guards against floating-point cycling).
  int max_iterations = 0;  // 0 => 3 * cols + 10.
  /// Deadline / cancellation, checked once per outer iteration; nullptr
  /// runs uncontrolled. Does not affect the numerics of completed runs.
  const ExecControl* control = nullptr;
};

struct NnlsResult {
  Vector x;              ///< Non-negative solution.
  double residual_norm;  ///< ||Ax - b||_2 at the solution.
  int iterations;        ///< Outer-loop iterations used.
  /// False when the iteration cap tripped before dual feasibility: the
  /// returned x may violate KKT. Counted on ExecControl (when present)
  /// so the serving layer can surface silent non-convergence.
  bool converged = true;
};

/// Solves the NNLS problem from its normal equations: `gram` = AᵀA,
/// `vty` = Aᵀb, `b_norm2` = ‖b‖². Never touches A or b, so the cost per
/// iteration is O(q·k) + O(k²) regardless of A's row count.
/// `workspace` (nullptr = thread-local) supplies reusable scratch.
Result<NnlsResult> SolveNnlsGram(const Matrix& gram, const Vector& vty,
                                 double b_norm2,
                                 const NnlsOptions& options = {},
                                 SolverWorkspace* workspace = nullptr);

/// SolveNnlsGram restricted to the subset `vars` of the Gram system's
/// columns (in the given order): solves over A[:, vars] without forming
/// the submatrix. The result's x has vars.size() entries, aligned with
/// `vars`; `vty_local[t]` must equal (Aᵀb)[vars[t]]. This is the NOMP
/// refit kernel — `vars` is the support in selection order.
Result<NnlsResult> SolveNnlsGramSubset(const Matrix& gram,
                                       const std::vector<size_t>& vars,
                                       const double* vty_local, double b_norm2,
                                       const NnlsOptions& options,
                                       SolverWorkspace* workspace);

}  // namespace comparesets
