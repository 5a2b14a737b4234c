// Match rows: the positions of each distinct token id of one document as
// a bit row. ROUGE needs three integers per document pair, and all three
// come from the rows of one side, found through an array indexed by
// token id:
//
//   count of token t                 popcount(row t)
//   count of bigram (s, t)           popcount(row s & (row t >> 1))
//   LCS length with a text           bit-vector LCS of Allison & Dix
//                                    (1986) and Hyyrö (2004)
//
// The clipped ROUGE-1/2 overlap Σ_g min(a[g], b[g]) then walks only the
// other side's distinct grams, each a lookup (and, for a bigram, a
// popcount). The LCS
// keeps a bit vector V over the row side's positions, all ones at
// first; each text token, with match row M, updates it as
//   V' = (V + (V & M)) | (V & ~M),
// the addition carrying across the 64-bit words of long documents. The
// LCS length is the number of zero bits among V's first |row side|
// bits. Cost: |text| · ⌈|row side| / 64⌉ word steps.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "text/ngram.h"

namespace comparesets {

/// The match rows of one id sequence. Row 0 is all zeros and stands for
/// every id the sequence lacks; row k + 1 belongs to unigrams()[k].
class MatchRows {
 public:
  explicit MatchRows(std::span<const uint32_t> ids);

  size_t length() const { return length_; }
  /// 64-bit words per row: ⌈length() / 64⌉.
  size_t words() const { return words_; }
  /// The distinct ids of the sequence, ascending, with their counts.
  const GramCounts<uint32_t>& unigrams() const { return unigrams_; }
  const uint64_t* row(size_t k) const { return rows_.data() + k * words_; }
  /// Approximate heap footprint (for cache accounting).
  size_t ApproxMemoryBytes() const {
    return unigrams_.size() * sizeof(GramCount<uint32_t>) +
           rows_.size() * sizeof(uint64_t);
  }

 private:
  size_t length_ = 0;
  size_t words_ = 0;
  GramCounts<uint32_t> unigrams_;
  std::vector<uint64_t> rows_;
};

/// Counts against one bound MatchRows at a time. Maps a token id to its
/// row through an array sized to the vocabulary of one scoring call.
class RowIndex {
 public:
  /// Every id of a bound document and of a probe must be below
  /// `vocabulary_size`.
  explicit RowIndex(size_t vocabulary_size);

  /// Makes `rows` the counted side of later calls; it must outlive the
  /// binding. Rebinding the bound rows is free.
  void Bind(const MatchRows& rows);

  /// Clipped overlap Σ_t min(other[t], bound[t]) over token ids.
  int UnigramOverlap(const GramCounts<uint32_t>& other) const;
  /// Clipped overlap over bigrams (keys as in CountBigrams).
  int BigramOverlap(const GramCounts<uint64_t>& other) const;
  /// LCS length of the bound sequence and `text`.
  size_t LcsLength(std::span<const uint32_t> text);

 private:
  const MatchRows* rows_ = nullptr;
  std::vector<uint32_t> row_of_;  ///< id -> row in rows_; 0 if absent.
  std::vector<int> count_of_;     ///< id -> count in rows_; 0 if absent.
  std::vector<uint64_t> v_;       ///< V, for sequences of several words.
};

}  // namespace comparesets
