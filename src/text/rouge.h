// ROUGE metrics (Lin & Hovy 2003) used for review-alignment measurement.
//
// The paper reports F1 of ROUGE-1 (unigrams), ROUGE-2 (bigrams), and
// ROUGE-L (longest common subsequence) between pairs of selected reviews
// coming from different items, averaged over pairs. Scores here are
// returned in [0, 1]; benches print them scaled by 100 as in the paper.

#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "text/match_rows.h"
#include "text/ngram.h"

namespace comparesets {

/// Precision / recall / F1 triple for one ROUGE variant.
struct RougeScore {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// R-1 / R-2 / R-L bundle, as reported in the paper's tables.
struct RougeTriple {
  RougeScore rouge1;
  RougeScore rouge2;
  RougeScore rougeL;

  RougeTriple& operator+=(const RougeTriple& other);
  RougeTriple& operator/=(double denom);
};

/// One tokenized document ready for repeated ROUGE scoring: its token
/// ids, its match rows (which carry its unigram
/// multiset) and its bigram multiset. Documents scored against each
/// other must take their ids from one TokenInterner.
class InternedDocument {
 public:
  explicit InternedDocument(std::vector<uint32_t> ids);

  std::span<const uint32_t> ids() const { return ids_; }
  const MatchRows& rows() const { return rows_; }
  const GramCounts<uint32_t>& unigrams() const { return rows_.unigrams(); }
  const GramCounts<uint64_t>& bigrams() const { return bigrams_; }
  /// Approximate heap footprint (for cache accounting).
  size_t ApproxMemoryBytes() const {
    return ids_.size() * sizeof(uint32_t) + rows_.ApproxMemoryBytes() +
           bigrams_.size() * sizeof(GramCount<uint64_t>);
  }

 private:
  std::vector<uint32_t> ids_;
  MatchRows rows_;
  GramCounts<uint64_t> bigrams_;
};

/// Scores `candidate` against `reference`. `index` (sized to the ids'
/// vocabulary) is bound to the candidate's rows unless it already is,
/// so scoring one candidate against many references binds it once.
RougeTriple ScoreAgainst(const InternedDocument& candidate,
                         const InternedDocument& reference, RowIndex& index);

/// Convenience helpers over raw strings (candidate scored vs reference).
RougeScore Rouge1(std::string_view candidate, std::string_view reference);
RougeScore Rouge2(std::string_view candidate, std::string_view reference);
RougeScore RougeL(std::string_view candidate, std::string_view reference);
RougeTriple RougeAll(std::string_view candidate, std::string_view reference);

}  // namespace comparesets
