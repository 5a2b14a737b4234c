#include "linalg/nnls.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/kernels/kernels.h"
#include "linalg/qr.h"
#include "linalg/workspace.h"

namespace comparesets {

namespace {

/// Reports a capped (non-converged) solve on the control, when present.
void CountNonConvergence(const ExecControl* control) {
  if (control != nullptr && control->nnls_nonconverged != nullptr) {
    control->nnls_nonconverged->fetch_add(1, std::memory_order_relaxed);
  }
}

/// A Gram block seen through an optional column-subset indirection, so
/// the subset solve never materializes G[vars, vars].
struct GramView {
  const Matrix* gram;
  const std::vector<size_t>* vars;  ///< nullptr = identity mapping.
  size_t size;

  double At(size_t i, size_t j) const {
    if (vars == nullptr) return (*gram)(i, j);
    return (*gram)((*vars)[i], (*vars)[j]);
  }
};

/// Lawson–Hanson on the normal equations. The passive-set solves run on
/// an incrementally maintained Cholesky factor of G_PP; if a pivot ever
/// collapses (linearly dependent passive column — the case a dense
/// textbook solve hands to QR's rank tolerance), the call degrades to QR
/// solves of the passive Gram block for its remainder, matching the dense
/// semantics of zeroed free variables in passive-ascending order.
Result<NnlsResult> SolveNnlsGramImpl(const GramView& g, const double* vty,
                                     double b_norm2,
                                     const NnlsOptions& options,
                                     SolverWorkspace& ws) {
  size_t cols = g.size;
  if (cols == 0) {
    return Status::InvalidArgument("NNLS with empty gram system");
  }
  size_t max_iters = options.max_iterations > 0
                         ? static_cast<size_t>(options.max_iterations)
                         : 3 * cols + 10;

  std::vector<double>& x = ws.nnls_x;
  std::vector<double>& w = ws.nnls_w;
  std::vector<double>& z = ws.nnls_z;
  std::vector<double>& rhs = ws.nnls_rhs;
  std::vector<double>& solve = ws.nnls_solve;
  std::vector<double>& cross = ws.nnls_cross;
  std::vector<char>& in_passive = ws.nnls_in_passive;
  std::vector<size_t>& factor = ws.nnls_factor;
  std::vector<size_t>& passive = ws.nnls_passive;
  IncrementalCholesky& chol = ws.chol;

  x.assign(cols, 0.0);
  w.assign(cols, 0.0);
  z.assign(cols, 0.0);
  in_passive.assign(cols, 0);
  factor.clear();
  chol.Clear();

  bool degenerate = false;
  size_t iterations = 0;
  bool converged = true;

  // Solves G_PP z_P = (Aᵀb)_P into the full-size z (zeros outside P).
  auto solve_passive = [&]() -> Status {
    std::fill(z.begin(), z.end(), 0.0);
    if (!degenerate) {
      rhs.resize(factor.size());
      solve.resize(factor.size());
      for (size_t t = 0; t < factor.size(); ++t) rhs[t] = vty[factor[t]];
      chol.Solve(rhs.data(), solve.data());
      for (size_t t = 0; t < factor.size(); ++t) z[factor[t]] = solve[t];
      return Status::OK();
    }
    size_t k = passive.size();
    Matrix gp(k, k);
    Vector gp_rhs(k);
    for (size_t r = 0; r < k; ++r) {
      for (size_t c = 0; c < k; ++c) gp(r, c) = g.At(passive[r], passive[c]);
      gp_rhs[r] = vty[passive[r]];
    }
    COMPARESETS_ASSIGN_OR_RETURN(Vector zp, LeastSquares(gp, gp_rhs));
    for (size_t r = 0; r < k; ++r) z[passive[r]] = zp[r];
    return Status::OK();
  };

  const KernelDispatch& kernels = Kernels();

  for (;;) {
    COMPARESETS_RETURN_NOT_OK(CheckExec(options.control, "nnls"));
    // Dual w = Aᵀb − Gx as one kernel row-axpy per nonzero coordinate:
    // G is exactly symmetric, so subtracting x[p]·G(p,·) in ascending p
    // applies the same rounded terms, in the same order per entry, as
    // the classic per-j inner loop over G(j,·).
    std::copy(vty, vty + cols, w.begin());
    for (size_t p = 0; p < cols; ++p) {
      if (x[p] == 0.0) continue;
      if (g.vars == nullptr) {
        kernels.axpy(-x[p], g.gram->RowData(p), w.data(), cols);
      } else {
        kernels.gather_axpy(-x[p], g.gram->RowData((*g.vars)[p]),
                            g.vars->data(), w.data(), cols);
      }
    }
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

    in_passive[best_j] = 1;
    if (!degenerate) {
      cross.resize(factor.size());
      for (size_t t = 0; t < factor.size(); ++t) {
        cross[t] = g.At(best_j, factor[t]);
      }
      if (chol.Append(cross.data(), g.At(best_j, best_j))) {
        factor.push_back(best_j);
      } else {
        degenerate = true;  // Dependent column: QR fallback from here on.
      }
    }

    for (;;) {
      passive.clear();
      for (size_t j = 0; j < cols; ++j) {
        if (in_passive[j]) passive.push_back(j);
      }
      COMPARESETS_RETURN_NOT_OK(solve_passive());

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
          in_passive[j] = 0;
          if (!degenerate) {
            for (size_t t = 0; t < factor.size(); ++t) {
              if (factor[t] == j) {
                chol.Remove(t);
                factor.erase(factor.begin() + static_cast<ptrdiff_t>(t));
                break;
              }
            }
          }
        }
      }
      // Guard: ensure at least the newly added column survives rounding;
      // otherwise terminate this inner loop to avoid cycling.
      bool any_passive = false;
      for (size_t j = 0; j < cols; ++j) any_passive |= (in_passive[j] != 0);
      if (!any_passive) break;
    }
  }

  NnlsResult out;
  out.x = Vector(cols);
  double xv = 0.0;
  double xgx = 0.0;
  for (size_t i = 0; i < cols; ++i) {
    out.x[i] = x[i];
    if (x[i] == 0.0) continue;
    xv += x[i] * vty[i];
    for (size_t j = 0; j < cols; ++j) {
      if (x[j] != 0.0) xgx += x[i] * g.At(i, j) * x[j];
    }
  }
  out.residual_norm = std::sqrt(std::max(0.0, b_norm2 - 2.0 * xv + xgx));
  out.iterations = static_cast<int>(iterations);
  out.converged = converged;
  if (!converged) CountNonConvergence(options.control);
  return out;
}

}  // namespace

Result<NnlsResult> SolveNnlsGram(const Matrix& gram, const Vector& vty,
                                 double b_norm2, const NnlsOptions& options,
                                 SolverWorkspace* workspace) {
  if (gram.rows() != gram.cols()) {
    return Status::InvalidArgument("gram matrix must be square");
  }
  if (vty.size() != gram.cols()) {
    return Status::InvalidArgument("gram rhs size mismatch");
  }
  SolverWorkspace& ws =
      workspace != nullptr ? *workspace : SolverWorkspace::ThreadLocal();
  GramView view{&gram, nullptr, gram.cols()};
  return SolveNnlsGramImpl(view, vty.raw(), b_norm2, options, ws);
}

Result<NnlsResult> SolveNnlsGramSubset(const Matrix& gram,
                                       const std::vector<size_t>& vars,
                                       const double* vty_local, double b_norm2,
                                       const NnlsOptions& options,
                                       SolverWorkspace* workspace) {
  SolverWorkspace& ws =
      workspace != nullptr ? *workspace : SolverWorkspace::ThreadLocal();
  GramView view{&gram, &vars, vars.size()};
  return SolveNnlsGramImpl(view, vty_local, b_norm2, options, ws);
}

}  // namespace comparesets
