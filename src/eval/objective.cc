#include "eval/objective.h"

#include "util/logging.h"

namespace comparesets {

double ItemCost(const InstanceVectors& vectors, size_t item,
                const Selection& selection, double lambda) {
  Vector pi = vectors.OpinionOf(item, selection);
  Vector phi = vectors.AspectOf(item, selection);
  return SquaredDistance(vectors.tau(item), pi) +
         lambda * lambda * SquaredDistance(vectors.gamma, phi);
}

SelectionVectors BuildSelectionVectors(
    const InstanceVectors& vectors, const std::vector<Selection>& selections) {
  COMPARESETS_CHECK(selections.size() == vectors.num_items())
      << "selection count mismatch";
  SelectionVectors out;
  out.pi.reserve(selections.size());
  out.phi.reserve(selections.size());
  for (size_t i = 0; i < selections.size(); ++i) {
    out.pi.push_back(vectors.OpinionOf(i, selections[i]));
    out.phi.push_back(vectors.AspectOf(i, selections[i]));
  }
  return out;
}

double CompareSetsObjective(const InstanceVectors& vectors,
                            const std::vector<Selection>& selections,
                            double lambda) {
  SelectionVectors sv = BuildSelectionVectors(vectors, selections);
  double total = 0.0;
  for (size_t i = 0; i < selections.size(); ++i) {
    total += SquaredDistance(vectors.tau(i), sv.pi[i]) +
             lambda * lambda * SquaredDistance(vectors.gamma, sv.phi[i]);
  }
  return total;
}

double CompareSetsPlusObjective(const InstanceVectors& vectors,
                                const std::vector<Selection>& selections,
                                double lambda, double mu) {
  SelectionVectors sv = BuildSelectionVectors(vectors, selections);
  double total = 0.0;
  for (size_t i = 0; i < selections.size(); ++i) {
    total += SquaredDistance(vectors.tau(i), sv.pi[i]) +
             lambda * lambda * SquaredDistance(vectors.gamma, sv.phi[i]);
  }
  for (size_t i = 0; i < selections.size(); ++i) {
    for (size_t j = i + 1; j < selections.size(); ++j) {
      total += mu * mu * SquaredDistance(sv.phi[i], sv.phi[j]);
    }
  }
  return total;
}

double ItemPairDistance(const InstanceVectors& vectors,
                        const std::vector<Selection>& selections, size_t i,
                        size_t j, double lambda, double mu) {
  COMPARESETS_CHECK(i != j) << "pair distance needs distinct items";
  Vector pi_i = vectors.OpinionOf(i, selections[i]);
  Vector pi_j = vectors.OpinionOf(j, selections[j]);
  Vector phi_i = vectors.AspectOf(i, selections[i]);
  Vector phi_j = vectors.AspectOf(j, selections[j]);
  double lambda2 = lambda * lambda;
  return SquaredDistance(vectors.tau(i), pi_i) +
         SquaredDistance(vectors.tau(j), pi_j) +
         lambda2 * SquaredDistance(vectors.gamma, phi_i) +
         lambda2 * SquaredDistance(vectors.gamma, phi_j) +
         mu * mu * SquaredDistance(phi_i, phi_j);
}

}  // namespace comparesets
