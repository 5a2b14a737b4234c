// Review-alignment measurement (§4.1.3): average pairwise ROUGE between
// selected reviews of different items —
//   * "Target vs Comparative": pairs (r ∈ S_1, r' ∈ S_j), j ≥ 2
//     (Tables 3a / 6a);
//   * "Among items": pairs from any two distinct items (Tables 3b / 6b).
// Reported as mean F1 per pair; 0 when no pair exists.

#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "data/corpus.h"
#include "opinion/vectors.h"
#include "text/rouge.h"
#include "text/tokenizer.h"

namespace comparesets {

struct AlignmentScores {
  RougeTriple target_vs_comparative;  ///< Mean pairwise F1 triple.
  RougeTriple among_items;
  size_t target_pairs = 0;  ///< #pairs behind target_vs_comparative.
  size_t among_pairs = 0;   ///< #pairs behind among_items.
};

/// Measures alignment over all items of the instance.
AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections);

/// Measures alignment restricted to a subset of item indices (the core
/// list; must contain item 0 for the target view to be meaningful).
AlignmentScores MeasureAlignmentSubset(const ProblemInstance& instance,
                                       const std::vector<Selection>& selections,
                                       const std::vector<size_t>& items);

/// Lazily filled, thread-safe memo of one instance's interned review
/// documents, for serving many alignments of the same instance. Each
/// (item, review) is tokenized, interned and given its match rows once,
/// on the first selection that holds it; ids come from one interner per
/// instance. ROUGE depends only on token equality, so Measure returns
/// bit for bit what MeasureAlignment returns on the same selections.
class AlignmentDocumentMemo {
 public:
  /// `instance` must outlive the memo.
  explicit AlignmentDocumentMemo(const ProblemInstance& instance);

  /// How many of one call's documents were built and how many reused.
  struct Use {
    size_t built = 0;
    size_t reused = 0;
  };

  /// MeasureAlignment(instance, selections) from the memo, building the
  /// documents it lacks. `use` (optional) receives the build/reuse split.
  AlignmentScores Measure(const std::vector<Selection>& selections,
                          Use* use = nullptr) const;

  /// Footprint of the documents and the dictionary built so far.
  size_t ApproxMemoryBytes() const;

 private:
  const ProblemInstance* instance_;
  /// first_slot_[i] + review is the slot of (item i, review).
  std::vector<size_t> first_slot_;
  mutable std::mutex mutex_;
  mutable TokenInterner interner_;
  /// Built documents never change or move, so scoring reads them
  /// outside the lock.
  mutable std::vector<std::unique_ptr<const InternedDocument>> docs_;
  mutable size_t doc_bytes_ = 0;
};

}  // namespace comparesets
