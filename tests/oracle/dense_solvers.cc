#include "oracle/dense_solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "linalg/qr.h"

namespace comparesets {

namespace {

/// Unconstrained least squares restricted to the passive set P; entries
/// outside P are zero in the returned full-size vector.
Result<Vector> SolveOnPassiveSet(const Matrix& a, const Vector& b,
                                 const std::vector<size_t>& passive) {
  Matrix sub = a.SelectColumns(passive);
  COMPARESETS_ASSIGN_OR_RETURN(Vector z, LeastSquares(sub, b));
  Vector full(a.cols());
  for (size_t j = 0; j < passive.size(); ++j) full[passive[j]] = z[j];
  return full;
}

}  // namespace

Result<NnlsResult> SolveNnls(const Matrix& a, const Vector& b,
                             const NnlsOptions& options) {
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("NNLS with empty matrix");
  }
  if (b.size() != a.rows()) {
    return Status::InvalidArgument("NNLS rhs size mismatch");
  }
  size_t cols = a.cols();
  // The default cap is computed in size_t: the historical int arithmetic
  // overflowed for cols > (INT_MAX - 10) / 3.
  size_t max_iters = options.max_iterations > 0
                         ? static_cast<size_t>(options.max_iterations)
                         : 3 * cols + 10;

  Vector x(cols, 0.0);
  std::vector<bool> in_passive(cols, false);
  Vector residual = b;  // b - A x, with x = 0 initially.
  size_t iterations = 0;
  bool converged = true;

  for (;;) {
    COMPARESETS_RETURN_NOT_OK(CheckExec(options.control, "nnls"));
    // Dual w = A^T (b - A x); pick the most positive inactive coordinate.
    Vector w = a.MultiplyTranspose(residual);
    double best = options.tolerance;
    size_t best_j = cols;
    for (size_t j = 0; j < cols; ++j) {
      if (!in_passive[j] && w[j] > best) {
        best = w[j];
        best_j = j;
      }
    }
    if (best_j == cols) break;  // KKT conditions hold.
    if (++iterations > max_iters) {
      converged = false;
      break;
    }

    in_passive[best_j] = true;

    for (;;) {
      std::vector<size_t> passive;
      for (size_t j = 0; j < cols; ++j) {
        if (in_passive[j]) passive.push_back(j);
      }
      COMPARESETS_ASSIGN_OR_RETURN(Vector z, SolveOnPassiveSet(a, b, passive));

      // If the unconstrained sub-solution is feasible, accept it.
      bool feasible = true;
      for (size_t j : passive) {
        if (z[j] <= 0.0) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        x = z;
        break;
      }

      // Step from x toward z, stopping at the first variable to hit zero,
      // and move that variable back to the active (zero) set.
      double alpha = std::numeric_limits<double>::infinity();
      for (size_t j : passive) {
        if (z[j] <= 0.0) {
          double denom = x[j] - z[j];
          if (denom > 0.0) alpha = std::min(alpha, x[j] / denom);
        }
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (size_t j : passive) {
        x[j] += alpha * (z[j] - x[j]);
        if (x[j] <= options.tolerance) {
          x[j] = 0.0;
          in_passive[j] = false;
        }
      }
      // Guard: ensure at least the newly added column survives rounding;
      // otherwise terminate this inner loop to avoid cycling.
      bool any_passive = false;
      for (size_t j = 0; j < cols; ++j) any_passive = any_passive || in_passive[j];
      if (!any_passive) break;
    }

    residual = b - a.Multiply(x);
  }

  NnlsResult out;
  out.residual_norm = (b - a.Multiply(x)).NormL2();
  out.x = std::move(x);
  out.iterations = static_cast<int>(iterations);
  out.converged = converged;
  if (!converged && options.control != nullptr &&
      options.control->nnls_nonconverged != nullptr) {
    options.control->nnls_nonconverged->fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

Result<NompResult> SolveNomp(const Matrix& v, const Vector& target, size_t ell,
                             const ExecControl* control) {
  if (v.cols() == 0 || v.rows() == 0) {
    return Status::InvalidArgument("NOMP with empty matrix");
  }
  if (target.size() != v.rows()) {
    return Status::InvalidArgument("NOMP target size mismatch");
  }
  if (ell == 0) {
    return Status::InvalidArgument("NOMP requires ell >= 1");
  }
  ell = std::min(ell, v.cols());

  // Precompute column norms for normalized correlation scoring; an
  // all-zero column can never reduce the residual and is skipped.
  std::vector<double> col_norms(v.cols());
  for (size_t j = 0; j < v.cols(); ++j) {
    col_norms[j] = v.Column(j).NormL2();
  }

  NompResult out;
  out.x = Vector(v.cols(), 0.0);
  Vector residual = target;
  std::vector<bool> active(v.cols(), false);

  NnlsOptions refit_options;
  refit_options.control = control;

  for (size_t step = 0; step < ell; ++step) {
    COMPARESETS_RETURN_NOT_OK(CheckExec(control, "nomp"));
    // Score every inactive column by correlation with the residual.
    Vector correlation = v.MultiplyTranspose(residual);
    double best = 0.0;
    size_t best_j = v.cols();
    for (size_t j = 0; j < v.cols(); ++j) {
      if (active[j] || col_norms[j] == 0.0) continue;
      double score = correlation[j] / col_norms[j];
      if (score > best + 1e-15) {
        best = score;
        best_j = j;
      }
    }
    if (best_j == v.cols()) break;  // Nothing helps anymore.
    active[best_j] = true;
    out.support.push_back(best_j);

    // Refit all active coefficients jointly (the "orthogonal" step),
    // with non-negativity enforced.
    Matrix sub = v.SelectColumns(out.support);
    COMPARESETS_ASSIGN_OR_RETURN(NnlsResult fit,
                                 SolveNnls(sub, target, refit_options));
    Vector x(v.cols(), 0.0);
    for (size_t t = 0; t < out.support.size(); ++t) {
      x[out.support[t]] = fit.x[t];
    }
    out.x = std::move(x);
    residual = target - v.Multiply(out.x);
  }

  // Drop support entries whose refit coefficient collapsed to zero.
  std::vector<size_t> live;
  for (size_t j : out.support) {
    if (out.x[j] > 0.0) live.push_back(j);
  }
  out.support = std::move(live);
  out.residual_norm = residual.NormL2();
  return out;
}

}  // namespace comparesets
