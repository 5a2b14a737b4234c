// Generalization beyond positive/negative opinions (paper §4.2.3): the
// same selection pipeline under the three opinion definitions — binary,
// 3-polarity (adds neutral), and unary-scale (sigmoid of aggregated
// sentiment) — plus what changes in the vectors.
//
//   ./build/examples/opinion_definitions

#include <cstdio>

#include "core/selector.h"
#include "data/synthetic.h"
#include "eval/information_loss.h"
#include "opinion/vectors.h"
#include "util/logging.h"

using namespace comparesets;

int main() {
  SetLogLevel(LogLevel::kWarning);
  SyntheticConfig config = DefaultConfig("Clothing", 120).ValueOrDie();
  Corpus corpus = GenerateCorpus(config).ValueOrDie();
  std::vector<ProblemInstance> instances = corpus.BuildInstances();
  const ProblemInstance& instance = instances.front();

  const OpinionDefinition kDefinitions[] = {
      OpinionDefinition::kBinary,
      OpinionDefinition::kThreePolarity,
      OpinionDefinition::kUnaryScale,
  };

  for (OpinionDefinition definition : kDefinitions) {
    OpinionModel model(definition, corpus.num_aspects());
    InstanceVectors vectors = BuildInstanceVectors(model, instance);

    std::printf("=== %s ===\n", OpinionDefinitionName(definition));
    std::printf("  opinion vector dims: %zu (z = %zu aspects)\n",
                model.opinion_dims(), model.num_aspects());

    // Peek at the target's τ: the first few non-zero entries.
    const Vector& tau = vectors.tau(0);
    std::printf("  τ_target non-zeros:");
    int shown = 0;
    for (size_t d = 0; d < tau.size() && shown < 5; ++d) {
      if (tau[d] > 0.0) {
        std::printf(" [%zu]=%.3f", d, tau[d]);
        ++shown;
      }
    }
    std::printf("\n");

    SelectorOptions options;
    options.m = 3;
    SelectionResult result =
        MakeSelector("CompaReSetS+").ValueOrDie()->Select(vectors, options)
            .ValueOrDie();
    InformationLoss loss =
        MeasureInformationLoss(vectors, result.selections);
    std::printf("  Eq. 5 objective: %.4f\n", result.objective);
    std::printf("  information retained (cosine τ vs π(S), target): %.4f\n",
                loss.cosine_target);
    std::printf("  target selection:");
    for (size_t review_index : result.selections[0]) {
      std::printf(" %s",
                  instance.target().reviews[review_index].id.c_str());
    }
    std::printf("\n\n");
  }

  std::printf(
      "All three definitions plug into the same Integer-Regression engine;\n"
      "only the opinion block of the design matrix and the target τ change\n"
      "(see src/opinion/opinion_model.h).\n");
  return 0;
}
