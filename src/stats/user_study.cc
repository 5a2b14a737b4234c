#include "stats/user_study.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/logging.h"
#include "util/rng.h"

namespace comparesets {

namespace {

/// Distinct aspects mentioned across an item's selected reviews.
std::set<AspectId> SelectedAspects(const InstanceVectors& vectors,
                                   size_t item, const Selection& selection) {
  std::set<AspectId> out;
  const Product& product = *vectors.instance->items[item];
  for (size_t r : selection) {
    for (AspectId aspect : product.reviews[r].MentionedAspects()) {
      out.insert(aspect);
    }
  }
  return out;
}

double Jaccard(const std::set<AspectId>& a, const std::set<AspectId>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t intersection = 0;
  for (AspectId x : a) intersection += b.count(x);
  size_t unions = a.size() + b.size() - intersection;
  return unions == 0 ? 0.0 : static_cast<double>(intersection) / unions;
}

}  // namespace

ExampleProxies ComputeExampleProxies(const InstanceVectors& vectors,
                                     const std::vector<Selection>& selections,
                                     const std::vector<size_t>& items) {
  COMPARESETS_CHECK(!items.empty()) << "empty core list";
  ExampleProxies out;

  std::vector<std::set<AspectId>> aspects;
  aspects.reserve(items.size());
  for (size_t item : items) {
    aspects.push_back(SelectedAspects(vectors, item, selections[item]));
  }

  // Q1 proxy: mean pairwise aspect-set Jaccard.
  double jaccard_sum = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a < items.size(); ++a) {
    for (size_t b = a + 1; b < items.size(); ++b) {
      jaccard_sum += Jaccard(aspects[a], aspects[b]);
      ++pairs;
    }
  }
  out.similarity = pairs > 0 ? jaccard_sum / pairs : 0.0;

  // Q2 proxy: how much of each item's opinion distribution survives.
  double cosine_sum = 0.0;
  for (size_t item : items) {
    cosine_sum += CosineSimilarity(vectors.tau(item),
                                   vectors.OpinionOf(item, selections[item]));
  }
  out.informativeness = cosine_sum / static_cast<double>(items.size());

  // Q3 proxy: fraction of the target's selected aspects that every other
  // item's selection also covers (directly comparable content).
  if (items.size() >= 2 && !aspects[0].empty()) {
    size_t common = 0;
    for (AspectId aspect : aspects[0]) {
      bool everywhere = true;
      for (size_t t = 1; t < items.size(); ++t) {
        if (!aspects[t].count(aspect)) {
          everywhere = false;
          break;
        }
      }
      if (everywhere) ++common;
    }
    out.comparability = static_cast<double>(common) / aspects[0].size();
  }
  return out;
}

Result<UserStudyResult> SimulateUserStudy(
    const std::vector<ExampleProxies>& examples,
    const UserStudyConfig& config) {
  if (examples.empty()) return Status::InvalidArgument("no examples");
  if (config.annotators_per_example > config.num_annotators) {
    return Status::InvalidArgument("annotators_per_example > num_annotators");
  }

  Rng rng(config.seed, examples.size());

  // Per-annotator leniency bias, fixed for the whole study.
  std::vector<double> bias(config.num_annotators);
  for (double& b : bias) b = rng.Normal(0.0, config.bias_stddev);

  // Units are (example, question) pairs; ratings[annotator][unit].
  size_t num_units = examples.size() * 3;
  RatingsMatrix ratings(config.num_annotators,
                        std::vector<std::optional<double>>(num_units));

  double q_sum[3] = {0.0, 0.0, 0.0};
  size_t q_count[3] = {0, 0, 0};

  for (size_t e = 0; e < examples.size(); ++e) {
    const ExampleProxies& proxies = examples[e];
    // Incoherent selections are harder to judge consistently.
    double sigma = config.noise_stddev *
                   (1.0 + config.incoherence_gain * (1.0 - proxies.similarity));
    std::vector<size_t> raters = rng.SampleWithoutReplacement(
        config.num_annotators, config.annotators_per_example);

    const double latent[3] = {proxies.similarity, proxies.informativeness,
                              proxies.comparability};
    for (size_t q = 0; q < 3; ++q) {
      // Map the [0, 1] proxy to the Likert anchor range ~[2, 5].
      double anchor = 2.0 + 3.0 * latent[q];
      for (size_t rater : raters) {
        double raw = anchor + bias[rater] + rng.Normal(0.0, sigma);
        double likert = std::clamp(std::round(raw), 1.0, 5.0);
        ratings[rater][e * 3 + q] = likert;
        q_sum[q] += likert;
        ++q_count[q];
      }
    }
  }

  UserStudyResult out;
  out.q1_mean = q_sum[0] / static_cast<double>(q_count[0]);
  out.q2_mean = q_sum[1] / static_cast<double>(q_count[1]);
  out.q3_mean = q_sum[2] / static_cast<double>(q_count[2]);
  COMPARESETS_ASSIGN_OR_RETURN(
      out.alpha, KrippendorffAlpha(ratings, AlphaMetric::kOrdinal));
  return out;
}

}  // namespace comparesets
