#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle/string_rouge.h"
#include "text/match_rows.h"
#include "text/ngram.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace comparesets {
namespace {

std::vector<std::string> Words(std::initializer_list<const char*> words) {
  return std::vector<std::string>(words.begin(), words.end());
}

/// Count of `gram` in a sorted multiset; 0 when absent.
template <typename Key>
int CountOf(const GramCounts<Key>& counts, Key gram) {
  for (const GramCount<Key>& entry : counts) {
    if (entry.gram == gram) return entry.count;
  }
  return 0;
}

uint64_t BigramKey(uint32_t first, uint32_t second) {
  return (static_cast<uint64_t>(first) << 32) | second;
}

/// Clipped unigram / bigram overlaps of two word lists, counted on the
/// match rows of `a` for the distinct grams of `b`.
struct Overlaps {
  int unigram;
  int bigram;
};

Overlaps CountOverlaps(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  TokenInterner interner;
  std::vector<uint32_t> ia = interner.Intern(a);
  std::vector<uint32_t> ib = interner.Intern(b);
  MatchRows rows(ia);
  RowIndex index(interner.size());
  index.Bind(rows);
  return {index.UnigramOverlap(MatchRows(ib).unigrams()),
          index.BigramOverlap(CountBigrams(ib))};
}

/// LCS with the rows of `bound` on the counted side (the multi-word
/// path whenever it is longer than 64). Ids are below `alphabet`.
size_t BoundLcs(const std::vector<uint32_t>& bound,
                const std::vector<uint32_t>& text, size_t alphabet) {
  MatchRows rows(bound);
  RowIndex index(alphabet);
  index.Bind(rows);
  return index.LcsLength(text);
}

/// LCS of two word lists through the bit-parallel path, with either
/// side's rows bound, checked against the string dynamic program.
size_t Lcs(const std::vector<std::string>& a,
           const std::vector<std::string>& b) {
  TokenInterner interner;
  std::vector<uint32_t> ia = interner.Intern(a);
  std::vector<uint32_t> ib = interner.Intern(b);
  size_t fast = BoundLcs(ia, ib, interner.size());
  EXPECT_EQ(BoundLcs(ib, ia, interner.size()), fast);
  EXPECT_EQ(fast, oracle::LcsLength(a, b));
  return fast;
}

TEST(NgramTest, UnigramCounts) {
  TokenInterner interner;
  MatchRows rows(interner.Intern(Words({"a", "b", "a"})));
  const GramCounts<uint32_t>& counts = rows.unigrams();
  EXPECT_EQ(counts.size(), 2u);
  EXPECT_EQ(CountOf(counts, interner.Intern("a")), 2);
  EXPECT_EQ(CountOf(counts, interner.Intern("b")), 1);
}

TEST(NgramTest, BigramCounts) {
  TokenInterner interner;
  GramCounts<uint64_t> counts =
      CountBigrams(interner.Intern(Words({"a", "b", "a", "b"})));
  int total = 0;
  for (const GramCount<uint64_t>& entry : counts) total += entry.count;
  EXPECT_EQ(total, 3);
  uint32_t a = interner.Intern("a");
  uint32_t b = interner.Intern("b");
  EXPECT_EQ(CountOf(counts, BigramKey(a, b)), 2);
  EXPECT_EQ(CountOf(counts, BigramKey(b, a)), 1);
}

TEST(NgramTest, CountsAreSortedAndDistinct) {
  TokenInterner interner;
  std::vector<uint32_t> ids =
      interner.Intern(Words({"z", "y", "x", "z", "y", "z", "x", "y"}));
  MatchRows rows(ids);
  const GramCounts<uint32_t>& unigrams = rows.unigrams();
  GramCounts<uint64_t> bigrams = CountBigrams(ids);
  for (size_t i = 1; i < unigrams.size(); ++i) {
    EXPECT_LT(unigrams[i - 1].gram, unigrams[i].gram);
  }
  for (size_t i = 1; i < bigrams.size(); ++i) {
    EXPECT_LT(bigrams[i - 1].gram, bigrams[i].gram);
  }
}

TEST(NgramTest, OrderLargerThanSequenceIsEmpty) {
  TokenInterner interner;
  EXPECT_TRUE(CountBigrams(interner.Intern(Words({"a"}))).empty());
  EXPECT_TRUE(MatchRows({}).unigrams().empty());
  EXPECT_TRUE(CountBigrams({}).empty());
}

TEST(NgramTest, SeparatorPreventsCollisions) {
  // Tokens "ab"+"c" must not collide with "a"+"bc".
  EXPECT_EQ(CountOverlaps(Words({"ab", "c"}), Words({"a", "bc"})).bigram, 0);
}

TEST(NgramTest, BigramsKeepOrder) {
  // (x, y) and (y, x) are distinct grams.
  EXPECT_EQ(CountOverlaps(Words({"x", "y"}), Words({"y", "x"})).bigram, 0);
  EXPECT_EQ(CountOverlaps(Words({"x", "y"}), Words({"x", "y"})).bigram, 1);
}

TEST(ClippedOverlapTest, ClipsAtMinimumCount) {
  auto a = Words({"x", "x", "x", "y"});
  auto b = Words({"x", "y", "y"});
  // min(3,1) for x + min(1,2) for y = 2.
  EXPECT_EQ(CountOverlaps(a, b).unigram, 2);
  EXPECT_EQ(CountOverlaps(b, a).unigram, 2);  // Symmetric.
}

TEST(ClippedOverlapTest, DisjointIsZero) {
  EXPECT_EQ(CountOverlaps(Words({"p"}), Words({"q"})).unigram, 0);
  EXPECT_EQ(CountOverlaps(Words({"p"}), {}).unigram, 0);
  EXPECT_EQ(CountOverlaps({}, Words({"p"})).unigram, 0);
}

TEST(ClippedOverlapTest, MatchesStringOracleOnRandomSequences) {
  // Lengths up to 200 put bigrams across the 64-bit row words.
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> a(rng.UniformU32(200));
    std::vector<std::string> b(rng.UniformU32(200));
    uint32_t alphabet = 1 + rng.UniformU32(12);
    for (std::string& w : a) w = "w" + std::to_string(rng.UniformU32(alphabet));
    for (std::string& w : b) w = "w" + std::to_string(rng.UniformU32(alphabet));
    Overlaps fast = CountOverlaps(a, b);
    EXPECT_EQ(fast.unigram,
              oracle::ClippedOverlap(oracle::CountNgrams(a, 1),
                                     oracle::CountNgrams(b, 1)));
    EXPECT_EQ(fast.bigram,
              oracle::ClippedOverlap(oracle::CountNgrams(a, 2),
                                     oracle::CountNgrams(b, 2)));
  }
}

TEST(TokenInternerTest, IdsAreDenseInFirstSeenOrder) {
  TokenInterner interner;
  EXPECT_EQ(interner.Intern(Words({"b", "a", "b", "c"})),
            (std::vector<uint32_t>{0, 1, 0, 2}));
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.Intern("a"), 1u);
}

TEST(LcsTest, ClassicExamples) {
  EXPECT_EQ(Lcs(Words({"a", "b", "c", "d"}), Words({"a", "c", "d"})), 3u);
  EXPECT_EQ(Lcs(Words({"a", "b"}), Words({"b", "a"})), 1u);
  EXPECT_EQ(Lcs(Words({"x"}), Words({"y"})), 0u);
}

TEST(LcsTest, EmptySequences) {
  EXPECT_EQ(Lcs({}, Words({"a"})), 0u);
  EXPECT_EQ(Lcs(Words({"a"}), {}), 0u);
  EXPECT_EQ(Lcs({}, {}), 0u);
}

TEST(LcsTest, IdenticalSequences) {
  auto seq = Words({"the", "battery", "is", "great"});
  EXPECT_EQ(Lcs(seq, seq), seq.size());
}

TEST(LcsTest, SubsequenceNotSubstring) {
  // LCS is order-preserving but not contiguous.
  EXPECT_EQ(Lcs(Words({"a", "x", "b", "y", "c"}), Words({"a", "b", "c"})),
            3u);
}

TEST(LcsTest, Symmetric) {
  auto a = Words({"one", "two", "three", "four", "five"});
  auto b = Words({"two", "five", "one", "three"});
  EXPECT_EQ(Lcs(a, b), Lcs(b, a));
}

TEST(LcsTest, RepeatedTokens) {
  EXPECT_EQ(Lcs(Words({"a", "a", "a"}), Words({"a", "a"})), 2u);
}

TEST(LcsTest, UpperBoundedByShorterLength) {
  auto a = Words({"a", "b", "c", "d", "e", "f"});
  auto b = Words({"c", "d"});
  EXPECT_LE(Lcs(a, b), b.size());
}

/// Random ids below `alphabet`.
std::vector<uint32_t> RandomIds(Rng& rng, size_t length, uint32_t alphabet) {
  std::vector<uint32_t> ids(length);
  for (uint32_t& id : ids) id = rng.UniformU32(alphabet);
  return ids;
}

/// The ids as words, for the string oracle.
std::vector<std::string> AsWords(const std::vector<uint32_t>& ids) {
  std::vector<std::string> words;
  for (uint32_t id : ids) words.push_back("t" + std::to_string(id));
  return words;
}

TEST(BitParallelLcsTest, MatchesDynamicProgramAcrossWordBoundaries) {
  // The multiples of 64 fill the last word; 63/65, 127/129 straddle it;
  // 1031 needs 17 words and carries across all of them.
  const size_t lengths[] = {0, 1, 63, 64, 65, 127, 128, 129, 1031};
  const uint32_t alphabets[] = {1, 2, 4, 13, 50};
  Rng rng(2004);
  for (uint32_t alphabet : alphabets) {
    for (size_t la : lengths) {
      for (size_t lb : lengths) {
        std::vector<uint32_t> a = RandomIds(rng, la, alphabet);
        std::vector<uint32_t> b = RandomIds(rng, lb, alphabet);
        size_t expected = oracle::LcsLength(AsWords(a), AsWords(b));
        SCOPED_TRACE(::testing::Message() << "alphabet " << alphabet
                                          << " lengths " << la << "/" << lb);
        EXPECT_EQ(BoundLcs(a, b, alphabet), expected);
        EXPECT_EQ(BoundLcs(b, a, alphabet), expected);
      }
    }
  }
}

TEST(BitParallelLcsTest, AllEqualSequences) {
  for (size_t la : {1u, 64u, 65u, 128u, 1100u}) {
    for (size_t lb : {1u, 63u, 64u, 129u, 1100u}) {
      std::vector<uint32_t> a(la, 7);
      std::vector<uint32_t> b(lb, 7);
      EXPECT_EQ(BoundLcs(a, b, 8), std::min(la, lb));
      EXPECT_EQ(BoundLcs(b, a, 8), std::min(la, lb));
    }
  }
}

TEST(BitParallelLcsTest, RebindingForgetsThePreviousRows) {
  Rng rng(5);
  const uint32_t alphabet = 30;
  std::vector<uint32_t> first = RandomIds(rng, 90, alphabet);
  std::vector<uint32_t> second = {alphabet - 1, alphabet - 2};
  std::vector<uint32_t> text = RandomIds(rng, 70, alphabet - 2);
  MatchRows first_rows(first);
  MatchRows second_rows(second);
  RowIndex index(alphabet);
  const size_t expected = oracle::LcsLength(AsWords(first), AsWords(text));
  index.Bind(first_rows);
  EXPECT_EQ(index.LcsLength(text), expected);
  index.Bind(second_rows);
  // `text` shares no id with `second`; a stale row of `first` would
  // index past `second`'s rows.
  EXPECT_EQ(index.LcsLength(text), 0u);
  EXPECT_EQ(index.UnigramOverlap(MatchRows(text).unigrams()), 0);
  index.Bind(first_rows);
  EXPECT_EQ(index.LcsLength(text), expected);
}

}  // namespace
}  // namespace comparesets
