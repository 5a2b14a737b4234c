// N-gram multisets over interned token ids, for ROUGE-N.
//
// A multiset is a vector of distinct grams sorted ascending, each with
// its count (the sorted-integer-set idiom of Kaldi's SortAndUniq).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace comparesets {

/// One distinct gram and its multiplicity. Unigram keys are token ids;
/// bigram keys pack two ids as (first << 32) | second, so two distinct
/// bigrams never share a key.
template <typename Key>
struct GramCount {
  Key gram;
  int count;
};

/// Sorted by gram, ascending; grams are distinct.
template <typename Key>
using GramCounts = std::vector<GramCount<Key>>;

GramCounts<uint64_t> CountBigrams(std::span<const uint32_t> ids);

}  // namespace comparesets
