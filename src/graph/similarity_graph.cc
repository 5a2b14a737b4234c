#include "graph/similarity_graph.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace comparesets {

double SimilarityGraph::SubsetWeight(const std::vector<size_t>& subset) const {
  double total = 0.0;
  for (size_t a = 0; a < subset.size(); ++a) {
    for (size_t b = a + 1; b < subset.size(); ++b) {
      total += weight(subset[a], subset[b]);
    }
  }
  return total;
}

double SimilarityGraph::WeightToSubset(size_t vertex,
                                       const std::vector<size_t>& subset) const {
  double total = 0.0;
  for (size_t v : subset) {
    if (v != vertex) total += weight(vertex, v);
  }
  return total;
}

Result<SimilarityGraph> BuildSimilarityGraph(
    const InstanceVectors& vectors, const std::vector<Selection>& selections,
    double lambda, double mu, const ParallelContext& parallel,
    const ExecControl* control) {
  size_t n = vectors.num_items();
  COMPARESETS_CHECK(selections.size() == n) << "selection count mismatch";
  SimilarityGraph graph(n);
  if (n < 2) return graph;

  // Precompute π/φ once; d_ij decomposes into per-item and pair terms.
  SelectionVectors sv = BuildSelectionVectors(vectors, selections);
  std::vector<double> item_cost(n);
  double lambda2 = lambda * lambda;
  for (size_t i = 0; i < n; ++i) {
    item_cost[i] = SquaredDistance(vectors.tau(i), sv.pi[i]) +
                   lambda2 * SquaredDistance(vectors.gamma, sv.phi[i]);
  }

  // Row i owns the disjoint slice distances[i*n + (i+1..n)] and its own
  // running max, so rows fan out with no shared writes. The max-shift
  // reduction below folds the per-row maxima in index order; max is
  // exactly associative over doubles, so parallel == serial bitwise.
  Timer timer;
  std::vector<double> distances(n * n, 0.0);
  std::vector<double> row_max(n, 0.0);
  std::vector<Status> row_status(n, Status::OK());
  double mu2 = mu * mu;
  RunParallel(
      parallel, n,
      [&](size_t i) {
        Status exec = CheckExec(control, "similarity graph rows");
        if (!exec.ok()) {
          row_status[i] = std::move(exec);
          return;
        }
        for (size_t j = i + 1; j < n; ++j) {
          double d = item_cost[i] + item_cost[j] +
                     mu2 * SquaredDistance(sv.phi[i], sv.phi[j]);
          distances[i * n + j] = d;
          row_max[i] = std::max(row_max[i], d);
        }
      },
      control);
  // Lowest-index failure wins, matching what a serial build would hit.
  for (size_t i = 0; i < n; ++i) {
    COMPARESETS_RETURN_NOT_OK(row_status[i]);
  }

  double max_distance = 0.0;
  for (size_t i = 0; i < n; ++i) {
    max_distance = std::max(max_distance, row_max[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      graph.set_weight(i, j, max_distance - distances[i * n + j]);
    }
  }
  RecordSpan(control, "similarity_graph.edges", timer.ElapsedSeconds());
  return graph;
}

SimilarityGraph BuildSimilarityGraph(const InstanceVectors& vectors,
                                     const std::vector<Selection>& selections,
                                     double lambda, double mu) {
  // Serial + uncontrolled, so the Result can only ever be OK.
  return BuildSimilarityGraph(vectors, selections, lambda, mu,
                              ParallelContext{}, nullptr)
      .ValueOrDie();
}

}  // namespace comparesets
