#include "text/match_rows.h"

#include <algorithm>
#include <bit>

namespace comparesets {

namespace {

constexpr size_t kWordBits = 64;

/// The bits of the last word that are sequence positions. A sequence
/// whose length is a multiple of 64 fills its last word.
uint64_t LastWordMask(size_t length) {
  size_t used = length % kWordBits;
  return used == 0 ? ~uint64_t{0} : (uint64_t{1} << used) - 1;
}

/// Set bits of `x`, one step per bit. Most probes match nothing and
/// few match twice, and the baseline x86-64 target has no popcount
/// instruction: std::popcount would be a library call per probe.
int SparsePopcount(uint64_t x) {
  int count = 0;
  for (; x != 0; x &= x - 1) ++count;
  return count;
}

}  // namespace

MatchRows::MatchRows(std::span<const uint32_t> ids)
    : length_(ids.size()), words_((ids.size() + kWordBits - 1) / kWordBits) {
  // One sort of (id, position) keys groups each id's positions.
  std::vector<uint64_t> keys(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    keys[i] = (static_cast<uint64_t>(ids[i]) << 32) | i;
  }
  std::sort(keys.begin(), keys.end());
  rows_.assign(words_, 0);  // Row 0: no match.
  for (uint64_t key : keys) {
    const auto id = static_cast<uint32_t>(key >> 32);
    const size_t position = key & 0xffffffffu;
    if (unigrams_.empty() || unigrams_.back().gram != id) {
      unigrams_.push_back({id, 0});
      rows_.resize(rows_.size() + words_, 0);
    }
    ++unigrams_.back().count;
    rows_[unigrams_.size() * words_ + position / kWordBits] |=
        uint64_t{1} << (position % kWordBits);
  }
}

RowIndex::RowIndex(size_t vocabulary_size)
    : row_of_(vocabulary_size, 0), count_of_(vocabulary_size, 0) {}

void RowIndex::Bind(const MatchRows& rows) {
  if (rows_ == &rows) return;
  if (rows_ != nullptr) {
    for (const GramCount<uint32_t>& unigram : rows_->unigrams()) {
      row_of_[unigram.gram] = 0;
      count_of_[unigram.gram] = 0;
    }
  }
  rows_ = &rows;
  const GramCounts<uint32_t>& unigrams = rows.unigrams();
  for (size_t k = 0; k < unigrams.size(); ++k) {
    row_of_[unigrams[k].gram] = static_cast<uint32_t>(k + 1);
    count_of_[unigrams[k].gram] = unigrams[k].count;
  }
}

int RowIndex::UnigramOverlap(const GramCounts<uint32_t>& other) const {
  int overlap = 0;
  for (const GramCount<uint32_t>& unigram : other) {
    overlap += std::min(unigram.count, count_of_[unigram.gram]);
  }
  return overlap;
}

int RowIndex::BigramOverlap(const GramCounts<uint64_t>& other) const {
  // Bigram (s, t) sits at position i when bit i of row s and bit i + 1
  // of row t are set: shift row t down one position, carrying the low
  // bit of each next word into the top of the word below.
  const size_t words = rows_->words();
  int overlap = 0;
  for (const GramCount<uint64_t>& bigram : other) {
    const uint64_t* first = rows_->row(row_of_[bigram.gram >> 32]);
    const uint64_t* second =
        rows_->row(row_of_[static_cast<uint32_t>(bigram.gram)]);
    int count = 0;
    for (size_t w = 0; w < words; ++w) {
      uint64_t shifted = second[w] >> 1;
      if (w + 1 < words) shifted |= second[w + 1] << (kWordBits - 1);
      count += SparsePopcount(first[w] & shifted);
    }
    overlap += std::min(bigram.count, count);
  }
  return overlap;
}

size_t RowIndex::LcsLength(std::span<const uint32_t> text) {
  const size_t length = rows_->length();
  if (length == 0) return 0;
  const size_t words = rows_->words();
  const uint64_t* rows = rows_->row(0);
  if (words == 1) {
    uint64_t v = ~uint64_t{0};
    for (uint32_t id : text) {
      const uint64_t m = rows[row_of_[id]];
      v = (v + (v & m)) | (v & ~m);
    }
    return length -
           static_cast<size_t>(std::popcount(v & LastWordMask(length)));
  }

  v_.assign(words, ~uint64_t{0});
  for (uint32_t id : text) {
    const uint32_t k = row_of_[id];
    if (k == 0) continue;  // M = 0 leaves V unchanged.
    const uint64_t* m = rows + k * words;
    uint64_t carry = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t v = v_[w];
      uint64_t sum = v + (v & m[w]);
      const uint64_t carry_out = sum < v;
      sum += carry;
      carry = carry_out | (sum < carry);
      v_[w] = sum | (v & ~m[w]);
    }
  }
  int ones = std::popcount(v_[words - 1] & LastWordMask(length));
  for (size_t w = 0; w + 1 < words; ++w) ones += std::popcount(v_[w]);
  return length - static_cast<size_t>(ones);
}

}  // namespace comparesets
