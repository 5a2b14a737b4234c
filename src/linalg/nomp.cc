#include "linalg/nomp.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels/kernels.h"
#include "linalg/nnls.h"
#include "linalg/workspace.h"

namespace comparesets {

Result<NompResult> SolveNompGram(const GramSystem& system, size_t ell,
                                 const ExecControl* control,
                                 SolverWorkspace* workspace) {
  size_t q = system.cols();
  if (q == 0) {
    return Status::InvalidArgument("NOMP with empty gram system");
  }
  if (system.vty.size() != q) {
    return Status::InvalidArgument("NOMP gram rhs size mismatch");
  }
  if (ell == 0) {
    return Status::InvalidArgument("NOMP requires ell >= 1");
  }
  ell = std::min(ell, q);
  SolverWorkspace& ws =
      workspace != nullptr ? *workspace : SolverWorkspace::ThreadLocal();

  NompResult out;
  out.x = Vector(q, 0.0);
  std::vector<char>& active = ws.nomp_active;
  std::vector<double>& corr = ws.nomp_corr;
  std::vector<double>& vty_sub = ws.nomp_vty_sub;
  active.assign(q, 0);

  NnlsOptions refit_options;
  refit_options.control = control;

  for (size_t step = 0; step < ell; ++step) {
    COMPARESETS_RETURN_NOT_OK(CheckExec(control, "nomp"));
    // Correlation with the residual, without forming it:
    // Vᵀ(y − Vx) = Vᵀy − Gx, one kernel row-axpy per support column.
    corr.assign(system.vty.data().begin(), system.vty.data().end());
    for (size_t s : out.support) {
      double xs = out.x[s];
      if (xs == 0.0) continue;
      Kernels().axpy(-xs, system.gram.RowData(s), corr.data(), q);
    }
    double best = 0.0;
    size_t best_j = q;
    for (size_t j = 0; j < q; ++j) {
      if (active[j] || system.col_norms[j] == 0.0) continue;
      double score = corr[j] / system.col_norms[j];
      if (score > best + 1e-15) {
        best = score;
        best_j = j;
      }
    }
    if (best_j == q) break;  // Nothing helps anymore.
    active[best_j] = 1;
    out.support.push_back(best_j);

    // Refit all active coefficients jointly (the "orthogonal" step) on
    // the support's Gram block — no submatrix is ever materialized.
    vty_sub.resize(out.support.size());
    for (size_t t = 0; t < out.support.size(); ++t) {
      vty_sub[t] = system.vty[out.support[t]];
    }
    COMPARESETS_ASSIGN_OR_RETURN(
        NnlsResult fit,
        SolveNnlsGramSubset(system.gram, out.support, vty_sub.data(),
                            system.target_norm2, refit_options, &ws));
    Vector x(q, 0.0);
    for (size_t t = 0; t < out.support.size(); ++t) {
      x[out.support[t]] = fit.x[t];
    }
    out.x = std::move(x);
  }

  // Drop support entries whose refit coefficient collapsed to zero.
  std::vector<size_t> live;
  for (size_t j : out.support) {
    if (out.x[j] > 0.0) live.push_back(j);
  }
  out.support = std::move(live);

  // ‖Vx − y‖² = ‖y‖² − 2 xᵀVᵀy + xᵀGx, clamped against cancellation of
  // nearly equal terms.
  double xv = 0.0;
  double xgx = 0.0;
  for (size_t i : out.support) {
    xv += out.x[i] * system.vty[i];
    for (size_t j : out.support) {
      xgx += out.x[i] * system.gram(i, j) * out.x[j];
    }
  }
  out.residual_norm =
      std::sqrt(std::max(0.0, system.target_norm2 - 2.0 * xv + xgx));
  return out;
}

Result<std::vector<NompResult>> SolveNompGramSweep(
    const GramSystem& system, size_t max_ell, const ExecControl* control,
    SolverWorkspace* workspace) {
  size_t q = system.cols();
  if (q == 0) {
    return Status::InvalidArgument("NOMP with empty gram system");
  }
  if (system.vty.size() != q) {
    return Status::InvalidArgument("NOMP gram rhs size mismatch");
  }
  if (max_ell == 0) {
    return Status::InvalidArgument("NOMP requires ell >= 1");
  }
  max_ell = std::min(max_ell, q);
  SolverWorkspace& ws =
      workspace != nullptr ? *workspace : SolverWorkspace::ThreadLocal();

  std::vector<NompResult> snapshots;
  snapshots.reserve(max_ell);

  Vector x(q, 0.0);
  std::vector<size_t> support;
  std::vector<char>& active = ws.nomp_active;
  std::vector<double>& corr = ws.nomp_corr;
  std::vector<double>& vty_sub = ws.nomp_vty_sub;
  active.assign(q, 0);

  NnlsOptions refit_options;
  refit_options.control = control;

  for (size_t step = 0; step < max_ell; ++step) {
    COMPARESETS_RETURN_NOT_OK(CheckExec(control, "nomp"));
    // Identical step body to SolveNompGram — the budget only ever
    // bounds how many times it runs, never what it computes.
    corr.assign(system.vty.data().begin(), system.vty.data().end());
    for (size_t s : support) {
      double xs = x[s];
      if (xs == 0.0) continue;
      Kernels().axpy(-xs, system.gram.RowData(s), corr.data(), q);
    }
    double best = 0.0;
    size_t best_j = q;
    for (size_t j = 0; j < q; ++j) {
      if (active[j] || system.col_norms[j] == 0.0) continue;
      double score = corr[j] / system.col_norms[j];
      if (score > best + 1e-15) {
        best = score;
        best_j = j;
      }
    }
    if (best_j == q) break;  // Stalled: every later budget stalls here too.
    active[best_j] = 1;
    support.push_back(best_j);

    vty_sub.resize(support.size());
    for (size_t t = 0; t < support.size(); ++t) {
      vty_sub[t] = system.vty[support[t]];
    }
    auto fit = SolveNnlsGramSubset(system.gram, support, vty_sub.data(),
                                   system.target_norm2, refit_options, &ws);
    if (!fit.ok()) {
      StatusCode code = fit.status().code();
      if (code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kCancelled) {
        return fit.status();
      }
      // Recoverable degeneracy at this step: every budget ≥ step+1 would
      // fail the same refit, so the completed prefix is the whole answer.
      return snapshots;
    }
    Vector next(q, 0.0);
    for (size_t t = 0; t < support.size(); ++t) {
      next[support[t]] = fit.value().x[t];
    }
    x = std::move(next);

    // Snapshot for ℓ = step + 1: prune-on-copy plus the Gram-form
    // residual, exactly as SolveNompGram finishes.
    NompResult snap;
    snap.x = x;
    for (size_t j : support) {
      if (x[j] > 0.0) snap.support.push_back(j);
    }
    double xv = 0.0;
    double xgx = 0.0;
    for (size_t i : snap.support) {
      xv += snap.x[i] * system.vty[i];
      for (size_t j : snap.support) {
        xgx += snap.x[i] * system.gram(i, j) * snap.x[j];
      }
    }
    snap.residual_norm =
        std::sqrt(std::max(0.0, system.target_norm2 - 2.0 * xv + xgx));
    snapshots.push_back(std::move(snap));
  }

  // The pursuit stalled before exhausting the budgets: SolveNompGram(ℓ)
  // for any larger ℓ runs the same steps and stalls at the same place,
  // so the remaining budgets repeat the last state.
  while (snapshots.size() < max_ell) {
    if (snapshots.empty()) {
      NompResult empty;
      empty.x = Vector(q, 0.0);
      empty.residual_norm = std::sqrt(std::max(0.0, system.target_norm2));
      snapshots.push_back(std::move(empty));
    } else {
      snapshots.push_back(snapshots.back());
    }
  }
  return snapshots;
}

}  // namespace comparesets
