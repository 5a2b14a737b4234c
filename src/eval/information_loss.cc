#include "eval/information_loss.h"

#include "util/logging.h"

namespace comparesets {

InformationLoss MeasureInformationLoss(
    const InstanceVectors& vectors, const std::vector<Selection>& selections) {
  COMPARESETS_CHECK(selections.size() == vectors.num_items())
      << "selection count mismatch";
  InformationLoss out;
  double delta_sum = 0.0;
  double cosine_sum = 0.0;
  for (size_t i = 0; i < selections.size(); ++i) {
    Vector pi = vectors.OpinionOf(i, selections[i]);
    double delta = SquaredDistance(vectors.tau(i), pi);
    double cosine = CosineSimilarity(vectors.tau(i), pi);
    if (i == 0) {
      out.delta_target = delta;
      out.cosine_target = cosine;
    }
    delta_sum += delta;
    cosine_sum += cosine;
  }
  out.delta_all_items = delta_sum / static_cast<double>(selections.size());
  out.cosine_all_items = cosine_sum / static_cast<double>(selections.size());
  return out;
}

}  // namespace comparesets
