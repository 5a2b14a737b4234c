// String-keyed reference ROUGE and alignment: the original
// implementations over token strings — hash-map n-gram multisets with
// bigrams joined by '\x1f', an O(|a|·|b|) dynamic-program LCS, and an
// alignment pass that scores every pair in both directions and averages
// stored per-pair triples. The library scores through interned ids,
// sorted-gram merge walks and the bit-parallel LCS (text/, eval/);
// these stay as a test-side oracle that the text and alignment tests
// compare the production path against, bit for bit.

#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eval/alignment.h"
#include "text/rouge.h"

namespace comparesets::oracle {

/// Multiset of n-grams: joined-token key -> count.
using NgramCounts = std::unordered_map<std::string, int>;

/// Extracts order-n n-grams from a token sequence. Tokens are joined
/// with '\x1f' so that multi-token grams cannot collide with each other.
NgramCounts CountNgrams(const std::vector<std::string>& tokens, size_t n);

/// Σ_g min(a[g], b[g]) — the ROUGE-N overlap numerator.
int ClippedOverlap(const NgramCounts& a, const NgramCounts& b);

/// Total count in a multiset.
int TotalCount(const NgramCounts& counts);

/// Length of the LCS of two token sequences by the two-row dynamic
/// program: O(|a|·|b|) time, O(min(|a|,|b|)) space.
size_t LcsLength(const std::vector<std::string>& a,
                 const std::vector<std::string>& b);

/// Pre-tokenized document with cached n-gram multisets.
class RougeDocument {
 public:
  explicit RougeDocument(std::string_view text);

  const std::vector<std::string>& tokens() const { return tokens_; }

  /// Scores this document as candidate against `reference`.
  RougeTriple ScoreAgainst(const RougeDocument& reference) const;

 private:
  std::vector<std::string> tokens_;
  NgramCounts unigrams_;
  NgramCounts bigrams_;
};

/// Reference MeasureAlignment / MeasureAlignmentSubset (eval/alignment.h).
AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections);
AlignmentScores MeasureAlignmentSubset(const ProblemInstance& instance,
                                       const std::vector<Selection>& selections,
                                       const std::vector<size_t>& items);

}  // namespace comparesets::oracle
