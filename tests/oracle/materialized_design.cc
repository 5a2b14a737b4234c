#include "oracle/materialized_design.h"

#include <algorithm>
#include <map>
#include <span>
#include <utility>

#include "util/logging.h"

namespace comparesets::oracle {

namespace {

/// Appends `scale * block` to a sparse column at row offset `offset`,
/// skipping exact zeros (so λ = 0 blocks collapse away).
void AppendBlock(SparseColumn* column, size_t offset, double scale,
                 std::span<const double> block) {
  for (size_t i = 0; i < block.size(); ++i) {
    double value = scale * block[i];
    if (value != 0.0) column->push_back({offset + i, value});
  }
}

/// Strict weak order on sparse columns equal to lexicographic order of
/// their dense payloads — a merge walk over the two nonzero lists where
/// a missing row compares as 0.0.
bool DenseLexLess(const SparseColumn& a, const SparseColumn& b) {
  size_t ia = 0;
  size_t ib = 0;
  while (ia < a.size() || ib < b.size()) {
    size_t ra = ia < a.size() ? a[ia].row : static_cast<size_t>(-1);
    size_t rb = ib < b.size() ? b[ib].row : static_cast<size_t>(-1);
    if (ra == rb) {
      if (a[ia].value != b[ib].value) return a[ia].value < b[ib].value;
      ++ia;
      ++ib;
    } else if (ra < rb) {
      if (a[ia].value != 0.0) return a[ia].value < 0.0;
      ++ia;
    } else {
      if (b[ib].value != 0.0) return b[ib].value > 0.0;
      ++ib;
    }
  }
  return false;
}

/// Deduplicates raw per-review sparse columns; groups are numbered in
/// order of their first review.
MaterializedSystem Deduplicate(size_t rows, std::vector<SparseColumn> columns,
                               Vector target) {
  COMPARESETS_CHECK(target.size() == rows) << "design target size mismatch";
  struct ColumnLess {
    bool operator()(const SparseColumn* a, const SparseColumn* b) const {
      return DenseLexLess(*a, *b);
    }
  };
  std::map<const SparseColumn*, size_t, ColumnLess> groups;
  MaterializedSystem out;
  out.target = std::move(target);
  std::vector<const SparseColumn*> representatives;
  for (size_t j = 0; j < columns.size(); ++j) {
    auto [it, inserted] = groups.emplace(&columns[j], representatives.size());
    if (inserted) {
      representatives.push_back(&columns[j]);
      out.dup_counts.push_back(0);
      out.group_reviews.emplace_back();
    }
    ++out.dup_counts[it->second];
    out.group_reviews[it->second].push_back(j);
  }
  out.v = SparseMatrix(rows);
  for (const SparseColumn* representative : representatives) {
    out.v.AppendColumn(*representative);
  }
  out.gram = BuildGramSystem(out.v, out.target);
  return out;
}

}  // namespace

MaterializedSystem BuildCrsSystem(const InstanceVectors& vectors,
                                  size_t item) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  std::vector<SparseColumn> columns;
  for (size_t j = 0; j < vectors.num_reviews(item); ++j) {
    SparseColumn column;
    AppendBlock(&column, 0, 1.0, vectors.items[item]->OpinionColumn(j));
    columns.push_back(std::move(column));
  }
  return Deduplicate(vectors.tau(item).size(), std::move(columns),
                     vectors.tau(item));
}

MaterializedSystem BuildCompareSetsSystem(const InstanceVectors& vectors,
                                          size_t item, double lambda) {
  return oracle::BuildCompareSetsPlusSystem(vectors, item, lambda, 0.0, {});
}

MaterializedSystem BuildCompareSetsPlusSystem(
    const InstanceVectors& vectors, size_t item, double lambda, double mu,
    const std::vector<Vector>& other_phis) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  size_t opinion_rows = vectors.tau(item).size();
  size_t aspect_rows = vectors.gamma.size();
  std::vector<SparseColumn> columns;
  for (size_t j = 0; j < vectors.num_reviews(item); ++j) {
    SparseColumn column;
    AppendBlock(&column, 0, 1.0, vectors.items[item]->OpinionColumn(j));
    AppendBlock(&column, opinion_rows, lambda,
                vectors.items[item]->AspectColumn(j));
    // One μ-scaled aspect block per other item (identical rows; the
    // corresponding target blocks differ — Algorithm 1 line 4).
    size_t offset = opinion_rows + aspect_rows;
    for (size_t t = 0; t < other_phis.size(); ++t) {
      AppendBlock(&column, offset, mu, vectors.items[item]->AspectColumn(j));
      offset += aspect_rows;
    }
    columns.push_back(std::move(column));
  }
  Vector target = vectors.tau(item);
  target.AppendScaled(lambda, vectors.gamma);
  for (const Vector& phi : other_phis) target.AppendScaled(mu, phi);
  size_t rows = target.size();
  return Deduplicate(rows, std::move(columns), std::move(target));
}

MaterializedSystem RestrictToSample(const MaterializedSystem& full,
                                    const std::vector<size_t>& sample) {
  MaterializedSystem out;
  out.v = SparseMatrix(full.v.rows());
  for (size_t g = 0; g < full.group_reviews.size(); ++g) {
    std::vector<size_t> members;
    for (size_t r : full.group_reviews[g]) {
      if (std::binary_search(sample.begin(), sample.end(), r)) {
        members.push_back(r);
      }
    }
    if (members.empty()) continue;
    SparseColumn column;
    for (size_t k = 0; k < full.v.ColumnNnz(g); ++k) {
      column.push_back({full.v.ColumnRows(g)[k], full.v.ColumnValues(g)[k]});
    }
    out.v.AppendColumn(column);
    out.dup_counts.push_back(static_cast<int>(members.size()));
    out.group_reviews.push_back(std::move(members));
  }
  out.target = full.target;
  out.gram = BuildGramSystem(out.v, out.target);
  return out;
}

}  // namespace comparesets::oracle
