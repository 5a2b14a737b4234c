#include "eval/alignment.h"

#include <numeric>
#include <utility>

#include "text/tokenizer.h"
#include "util/logging.h"

namespace comparesets {

namespace {

/// Symmetrized pair score: the mean of the triples of a→b and b→a. The
/// backward triple shares the forward one's integer overlaps, so its
/// precision and recall are the forward recall and precision, and its
/// F1 is bitwise the forward F1 (IEEE + and × commute). Deriving it by
/// the swap therefore reproduces scoring both directions exactly.
RougeTriple PairScore(const RougeTriple& forward) {
  RougeTriple backward = forward;
  for (RougeScore* s : {&backward.rouge1, &backward.rouge2, &backward.rougeL}) {
    std::swap(s->precision, s->recall);
  }
  RougeTriple pair = forward;
  pair += backward;
  pair /= 2.0;
  return pair;
}

}  // namespace

AlignmentScores MeasureAlignmentSubset(const ProblemInstance& instance,
                                       const std::vector<Selection>& selections,
                                       const std::vector<size_t>& items) {
  COMPARESETS_CHECK(selections.size() == instance.num_items())
      << "selection count mismatch";

  // Tokenize every selected review once and intern its tokens. The ids
  // are consistent within this call only, which is all ROUGE needs: its
  // counts depend on token equality alone.
  TokenInterner interner;
  std::vector<InternedDocument> docs;
  std::vector<size_t> first_doc(items.size() + 1, 0);
  for (size_t t = 0; t < items.size(); ++t) {
    size_t item = items[t];
    COMPARESETS_CHECK(item < instance.num_items()) << "item out of range";
    const Product& product = *instance.items[item];
    for (size_t review_index : selections[item]) {
      COMPARESETS_CHECK(review_index < product.reviews.size())
          << "review index out of range";
      docs.emplace_back(
          interner.Intern(Tokenize(product.reviews[review_index].text)));
    }
    first_doc[t + 1] = docs.size();
  }

  // Each unordered pair is scored once. The two sums accumulate in pair
  // order (item a, item b > a, a's reviews, b's reviews) and are divided
  // by the pair count once: the mean of the per-pair triples, bit for
  // bit.
  RowIndex index(interner.size());
  AlignmentScores out;
  for (size_t a = 0; a < items.size(); ++a) {
    for (size_t b = a + 1; b < items.size(); ++b) {
      const bool with_target = items[a] == 0 || items[b] == 0;
      for (size_t i = first_doc[a]; i < first_doc[a + 1]; ++i) {
        for (size_t j = first_doc[b]; j < first_doc[b + 1]; ++j) {
          RougeTriple score = PairScore(ScoreAgainst(docs[i], docs[j], index));
          out.among_items += score;
          ++out.among_pairs;
          if (with_target) {
            out.target_vs_comparative += score;
            ++out.target_pairs;
          }
        }
      }
    }
  }
  if (out.target_pairs > 0) {
    out.target_vs_comparative /= static_cast<double>(out.target_pairs);
  }
  if (out.among_pairs > 0) {
    out.among_items /= static_cast<double>(out.among_pairs);
  }
  return out;
}

AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections) {
  std::vector<size_t> all(instance.num_items());
  std::iota(all.begin(), all.end(), 0);
  return MeasureAlignmentSubset(instance, selections, all);
}

}  // namespace comparesets
