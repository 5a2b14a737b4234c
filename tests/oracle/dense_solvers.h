// Dense reference NOMP / NNLS: the original implementations of the
// Integer-Regression relaxation, run on a densified design matrix with a
// QR solve per Lawson–Hanson inner iteration. The library solves through
// the sparse Gram/Cholesky path only (linalg/nomp.h, linalg/nnls.h);
// these stay as a test-side oracle that the equivalence tests and the
// micro_solvers bench compare the production solvers against.

#pragma once

#include <cstddef>

#include "linalg/matrix.h"
#include "linalg/nnls.h"
#include "linalg/nomp.h"
#include "linalg/vector.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace comparesets {

/// Lawson–Hanson NNLS on a dense matrix: argmin ||Ax - b||_2 s.t. x >= 0.
/// `a` must have rows >= 1 and cols >= 1. Counts a capped solve on
/// `options.control` exactly as SolveNnlsGram does.
Result<NnlsResult> SolveNnls(const Matrix& a, const Vector& b,
                             const NnlsOptions& options = {});

/// NOMP with at most `ell` atoms on a dense matrix: score every column by
/// its normalized correlation with the residual, add the best, refit the
/// support with SolveNnls. Stops early when no remaining column has
/// positive correlation. `control` is checked at every atom step and
/// inside the refits.
Result<NompResult> SolveNomp(const Matrix& v, const Vector& target, size_t ell,
                             const ExecControl* control = nullptr);

}  // namespace comparesets
