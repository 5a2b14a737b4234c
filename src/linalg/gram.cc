#include "linalg/gram.h"

#include <cmath>

#include "linalg/kernels/kernels.h"
#include "linalg/workspace.h"
#include "util/logging.h"

namespace comparesets {

GramSystem BuildGramSystem(const SparseMatrix& v, const Vector& target,
                           SolverWorkspace* workspace) {
  COMPARESETS_CHECK(target.size() == v.rows()) << "gram target size mismatch";
  const KernelDispatch& kernels = Kernels();
  SolverWorkspace& ws =
      workspace != nullptr ? *workspace : SolverWorkspace::ThreadLocal();
  size_t q = v.cols();
  GramSystem out;
  out.gram = Matrix(q, q);
  out.vty = Vector(q);
  out.target_norm2 = kernels.dot(target.raw(), target.raw(), target.size());
  out.col_norms.resize(q);

  // Scatter column j into a dense row-sized workspace, dot every earlier
  // column against it, then clear only the touched rows — O(q · nnz)
  // total instead of the dense O(q² · rows). The workspace buffer is
  // all-zero between builds (see workspace.h), so only growth zeroes.
  if (ws.gram_scatter.size() < v.rows()) ws.gram_scatter.resize(v.rows(), 0.0);
  double* scatter = ws.gram_scatter.data();
  ws.gram_col.resize(q);
  double* col = ws.gram_col.data();
  for (size_t j = 0; j < q; ++j) {
    size_t nnz = v.ColumnNnz(j);
    const size_t* rows = v.ColumnRows(j);
    const double* values = v.ColumnValues(j);
    kernels.scatter_set(values, rows, nnz, scatter);

    kernels.gram_scatter(v.ColPtr(), v.RowIdx(), v.Values(), j, scatter, col);
    for (size_t i = 0; i <= j; ++i) {
      out.gram(i, j) = col[i];
      out.gram(j, i) = col[i];
    }

    out.vty[j] = kernels.gather_dot(values, rows, nnz, target.raw());
    out.col_norms[j] = std::sqrt(out.gram(j, j));

    kernels.scatter_clear(rows, nnz, scatter);
  }
  return out;
}

}  // namespace comparesets
