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

/// The alignment of `items` given each one's selected documents:
/// docs[first_doc[t] .. first_doc[t + 1]) belong to items[t], and every
/// id is below `vocabulary`. Each unordered pair is scored once. The two
/// sums accumulate in pair order (item a, item b > a, a's reviews, b's
/// reviews) and are divided by the pair count once: the mean of the
/// per-pair triples, bit for bit.
AlignmentScores ScorePairs(const std::vector<const InternedDocument*>& docs,
                           const std::vector<size_t>& first_doc,
                           const std::vector<size_t>& items,
                           size_t vocabulary) {
  RowIndex index(vocabulary);
  AlignmentScores out;
  for (size_t a = 0; a < items.size(); ++a) {
    for (size_t b = a + 1; b < items.size(); ++b) {
      const bool with_target = items[a] == 0 || items[b] == 0;
      for (size_t i = first_doc[a]; i < first_doc[a + 1]; ++i) {
        for (size_t j = first_doc[b]; j < first_doc[b + 1]; ++j) {
          RougeTriple score =
              PairScore(ScoreAgainst(*docs[i], *docs[j], index));
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

const Review& SelectedReview(const ProblemInstance& instance, size_t item,
                             size_t review_index) {
  const Product& product = *instance.items[item];
  COMPARESETS_CHECK(review_index < product.reviews.size())
      << "review index out of range";
  return product.reviews[review_index];
}

std::vector<size_t> AllItems(const ProblemInstance& instance) {
  std::vector<size_t> all(instance.num_items());
  std::iota(all.begin(), all.end(), 0);
  return all;
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
    COMPARESETS_CHECK(items[t] < instance.num_items()) << "item out of range";
    for (size_t review_index : selections[items[t]]) {
      docs.emplace_back(interner.Intern(
          Tokenize(SelectedReview(instance, items[t], review_index).text)));
    }
    first_doc[t + 1] = docs.size();
  }
  std::vector<const InternedDocument*> pointers;
  pointers.reserve(docs.size());
  for (const InternedDocument& doc : docs) pointers.push_back(&doc);
  return ScorePairs(pointers, first_doc, items, interner.size());
}

AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections) {
  return MeasureAlignmentSubset(instance, selections, AllItems(instance));
}

AlignmentDocumentMemo::AlignmentDocumentMemo(const ProblemInstance& instance)
    : instance_(&instance), first_slot_(instance.num_items() + 1, 0) {
  for (size_t i = 0; i < instance.num_items(); ++i) {
    first_slot_[i + 1] = first_slot_[i] + instance.items[i]->reviews.size();
  }
  docs_.resize(first_slot_.back());
}

AlignmentScores AlignmentDocumentMemo::Measure(
    const std::vector<Selection>& selections, Use* use) const {
  const ProblemInstance& instance = *instance_;
  COMPARESETS_CHECK(selections.size() == instance.num_items())
      << "selection count mismatch";
  std::vector<size_t> items = AllItems(instance);
  std::vector<const InternedDocument*> docs;
  std::vector<size_t> first_doc(items.size() + 1, 0);
  size_t vocabulary = 0;
  Use local;
  {
    // Lookups and builds share the lock: the interner grows with every
    // new document.
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t item : items) {
      for (size_t review_index : selections[item]) {
        const Review& review = SelectedReview(instance, item, review_index);
        std::unique_ptr<const InternedDocument>& slot =
            docs_[first_slot_[item] + review_index];
        if (slot == nullptr) {
          slot = std::make_unique<const InternedDocument>(
              interner_.Intern(Tokenize(review.text)));
          doc_bytes_ += slot->ApproxMemoryBytes();
          ++local.built;
        } else {
          ++local.reused;
        }
        docs.push_back(slot.get());
      }
      first_doc[item + 1] = docs.size();
    }
    vocabulary = interner_.size();
  }
  if (use != nullptr) *use = local;
  return ScorePairs(docs, first_doc, items, vocabulary);
}

size_t AlignmentDocumentMemo::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return docs_.size() * sizeof(docs_[0]) + doc_bytes_ +
         interner_.ApproxMemoryBytes();
}

}  // namespace comparesets
