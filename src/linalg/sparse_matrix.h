// Sparse column-major (CSC) matrix. Design matrices in this library are
// stacks of 0/1 aspect indicators plus a short opinion block, so most
// entries are zero; storing only the nonzeros makes the Gram build and
// the NOMP correlation kernels O(nnz) instead of O(rows·cols).
//
// Columns are append-only (the design-matrix builders emit one column
// per review group); rows are fixed at construction. A dense seam
// (FromDense / ToDense) feeds the test-side dense reference solvers.

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace comparesets {

/// One nonzero of a sparse column: (row, value).
struct SparseEntry {
  size_t row = 0;
  double value = 0.0;

  friend bool operator==(const SparseEntry&, const SparseEntry&) = default;
};

/// A sparse column as its nonzeros in strictly increasing row order.
using SparseColumn = std::vector<SparseEntry>;

class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// An empty matrix with a fixed row count and no columns yet.
  explicit SparseMatrix(size_t rows) : rows_(rows) {}

  /// Converts a dense matrix, dropping exact zeros.
  static SparseMatrix FromDense(const Matrix& dense);
  /// Materializes the dense equivalent (the reference-solver seam).
  Matrix ToDense() const;

  /// Appends one column. Entries must be in strictly increasing row
  /// order with rows < rows(); zero values are permitted but wasteful.
  void AppendColumn(const SparseColumn& column);

  size_t rows() const { return rows_; }
  size_t cols() const { return col_ptr_.size() - 1; }
  size_t nnz() const { return values_.size(); }

  /// Element access by (row, col): O(nnz of the column) scan. Meant for
  /// tests and debugging, not kernels.
  double operator()(size_t r, size_t c) const;

  /// Copies out column c as a dense vector.
  Vector Column(size_t c) const;

  /// Number of nonzeros stored in column c.
  size_t ColumnNnz(size_t c) const { return col_ptr_[c + 1] - col_ptr_[c]; }

  /// Row indices / values of column c (ColumnNnz(c) entries each).
  const size_t* ColumnRows(size_t c) const { return &row_idx_[col_ptr_[c]]; }
  const double* ColumnValues(size_t c) const { return &values_[col_ptr_[c]]; }

  /// Raw CSC arrays (cols()+1 / nnz() / nnz() entries) — the seam the
  /// kernel-dispatch layer works through.
  const size_t* ColPtr() const { return col_ptr_.data(); }
  const size_t* RowIdx() const { return row_idx_.data(); }
  const double* Values() const { return values_.data(); }

  /// ⟨column c, x⟩ for a dense x of size rows().
  double ColumnDot(size_t c, const Vector& x) const;

  /// y = A x.
  Vector Multiply(const Vector& x) const;
  /// y = Aᵀ x.
  Vector MultiplyTranspose(const Vector& x) const;
  /// y = Aᵀ x written into a caller-provided vector (resized to cols());
  /// the workspace variant the solver hot loops use to avoid allocating.
  void MultiplyTranspose(const Vector& x, Vector* out) const;

  /// L2 norm of every column, without materializing Column(j) copies.
  std::vector<double> ColumnNorms() const;

 private:
  size_t rows_ = 0;
  /// col_ptr_[c]..col_ptr_[c+1] indexes column c's entries; one past the
  /// last column so cols() and spans need no special cases.
  std::vector<size_t> col_ptr_{0};
  std::vector<size_t> row_idx_;
  std::vector<double> values_;
};

}  // namespace comparesets
