// Precomputed normal-equation view of a design system.
//
// Every quantity the NOMP/NNLS iterations need can be expressed through
// G = VᵀV, Vᵀy and ‖y‖²: the correlation of column j with the residual
// is (Vᵀy)_j − (G x)_j, the dual w = Vᵀ(y − Vx) likewise, and
// ‖Vx − y‖² = ‖y‖² − 2 xᵀVᵀy + xᵀGx. Building G once per DesignSystem
// (O(q · nnz)) replaces the per-iteration O(rows · k) residual algebra
// and the per-refit O(rows · k²) QR with O(q·k) scoring and O(k²)
// Cholesky updates.
//
// The serving path never materializes V: core/design_matrix.h assembles
// each item's GramSystem from λ/μ-free blocks. BuildGramSystem is the
// general sparse builder, kept for callers that do hold a V (the
// test-side materialized design oracle among them).
//
// A GramSystem is immutable once built: solvers only read it, so one
// instance is safely shared by every lane of a parallel per-product
// sweep (docs/execution-model.md). All mutable solver state lives in
// SolverWorkspace (linalg/workspace.h) instead.

#pragma once

#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace comparesets {

struct SolverWorkspace;

struct GramSystem {
  /// G = VᵀV (q×q, symmetric, dense — q is the deduplicated group count).
  Matrix gram;
  /// Vᵀy.
  Vector vty;
  /// ‖y‖₂².
  double target_norm2 = 0.0;
  /// √G_jj per column — NOMP's correlation normalizers.
  std::vector<double> col_norms;

  size_t cols() const { return gram.cols(); }
};

/// Builds G, Vᵀy, ‖y‖² and the column norms in one O(q · nnz) pass of
/// kernel-dispatch gather/scatter ops. `target.size()` must equal
/// `v.rows()`. `workspace` (nullptr = thread-local) supplies the dense
/// scatter buffer, so back-to-back builds allocate nothing.
GramSystem BuildGramSystem(const SparseMatrix& v, const Vector& target,
                           SolverWorkspace* workspace = nullptr);

}  // namespace comparesets
