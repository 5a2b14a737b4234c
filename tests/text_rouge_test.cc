#include "text/rouge.h"

#include <gtest/gtest.h>

#include <cstring>

#include "oracle/string_rouge.h"
#include "text/tokenizer.h"

namespace comparesets {
namespace {

TEST(RougeTest, IdenticalTextsScorePerfect) {
  const char* text = "the battery is great and charges quickly";
  RougeTriple scores = RougeAll(text, text);
  EXPECT_DOUBLE_EQ(scores.rouge1.f1, 1.0);
  EXPECT_DOUBLE_EQ(scores.rouge2.f1, 1.0);
  EXPECT_DOUBLE_EQ(scores.rougeL.f1, 1.0);
}

TEST(RougeTest, DisjointTextsScoreZero) {
  RougeTriple scores = RougeAll("alpha beta gamma", "delta epsilon zeta");
  EXPECT_DOUBLE_EQ(scores.rouge1.f1, 0.0);
  EXPECT_DOUBLE_EQ(scores.rouge2.f1, 0.0);
  EXPECT_DOUBLE_EQ(scores.rougeL.f1, 0.0);
}

TEST(RougeTest, Rouge1HandComputed) {
  // candidate: {the, cat, sat} reference: {the, cat, ran, far}
  // overlap = 2, P = 2/3, R = 2/4, F1 = 2·(2/3)(1/2)/((2/3)+(1/2)) = 4/7.
  RougeScore score = Rouge1("the cat sat", "the cat ran far");
  EXPECT_NEAR(score.precision, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.recall, 0.5, 1e-12);
  EXPECT_NEAR(score.f1, 4.0 / 7.0, 1e-12);
}

TEST(RougeTest, Rouge2HandComputed) {
  // candidate bigrams: {the-cat, cat-sat}; reference: {the-cat, cat-ran}.
  // overlap = 1, P = 1/2, R = 1/2, F1 = 1/2.
  RougeScore score = Rouge2("the cat sat", "the cat ran");
  EXPECT_NEAR(score.f1, 0.5, 1e-12);
}

TEST(RougeTest, RougeLUsesSubsequenceNotSubstring) {
  // LCS("a b c d", "a x b y d") = {a, b, d} = 3.
  // P = 3/4 (wrt candidate of len 4), R = 3/5.
  RougeScore score = RougeL("a b c d", "a x b y d");
  EXPECT_NEAR(score.precision, 0.75, 1e-12);
  EXPECT_NEAR(score.recall, 0.6, 1e-12);
}

TEST(RougeTest, F1SymmetricUnderSwap) {
  // P and R swap, so F1 (harmonic mean) is symmetric.
  const char* a = "the charger works great in the car";
  const char* b = "great charger for the car and the price";
  EXPECT_NEAR(RougeAll(a, b).rouge1.f1, RougeAll(b, a).rouge1.f1, 1e-12);
  EXPECT_NEAR(RougeAll(a, b).rougeL.f1, RougeAll(b, a).rougeL.f1, 1e-12);
  EXPECT_NEAR(RougeAll(a, b).rouge2.f1, RougeAll(b, a).rouge2.f1, 1e-12);
}

TEST(RougeTest, ScoresBoundedInUnitInterval) {
  const char* pairs[][2] = {
      {"one two three", "three two one"},
      {"a a a a", "a"},
      {"x", "x y z w v u"},
  };
  for (const auto& pair : pairs) {
    RougeTriple scores = RougeAll(pair[0], pair[1]);
    for (const RougeScore* s :
         {&scores.rouge1, &scores.rouge2, &scores.rougeL}) {
      EXPECT_GE(s->f1, 0.0);
      EXPECT_LE(s->f1, 1.0);
      EXPECT_GE(s->precision, 0.0);
      EXPECT_LE(s->precision, 1.0);
      EXPECT_GE(s->recall, 0.0);
      EXPECT_LE(s->recall, 1.0);
    }
  }
}

TEST(RougeTest, EmptyTextsHandled) {
  EXPECT_DOUBLE_EQ(RougeAll("", "").rouge1.f1, 0.0);
  EXPECT_DOUBLE_EQ(RougeAll("words here", "").rouge1.f1, 0.0);
  EXPECT_DOUBLE_EQ(RougeAll("", "words here").rougeL.f1, 0.0);
}

TEST(RougeTest, SingleTokenHasNoBigrams) {
  RougeScore score = Rouge2("word", "word");
  EXPECT_DOUBLE_EQ(score.f1, 0.0);
}

TEST(RougeTest, RepeatedTokensClipped) {
  // candidate "a a a" vs reference "a": overlap clipped to 1.
  RougeScore score = Rouge1("a a a", "a");
  EXPECT_NEAR(score.precision, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.recall, 1.0, 1e-12);
}

TEST(RougeTest, CaseAndPunctuationInsensitive) {
  RougeScore exact = Rouge1("The Battery, is GREAT!", "the battery is great");
  EXPECT_DOUBLE_EQ(exact.f1, 1.0);
}

TEST(InternedDocumentTest, CachedDocumentsMatchStringApi) {
  const char* a = "the puzzle pieces fit together well";
  const char* b = "the pieces of the puzzle are well made";
  TokenInterner interner;
  InternedDocument da(interner.Intern(Tokenize(a)));
  InternedDocument db(interner.Intern(Tokenize(b)));
  RowIndex index(interner.size());
  RougeTriple cached = ScoreAgainst(da, db, index);
  RougeTriple direct = RougeAll(a, b);
  EXPECT_DOUBLE_EQ(cached.rouge1.f1, direct.rouge1.f1);
  EXPECT_DOUBLE_EQ(cached.rouge2.f1, direct.rouge2.f1);
  EXPECT_DOUBLE_EQ(cached.rougeL.f1, direct.rougeL.f1);
}

TEST(InternedDocumentTest, MatchesStringOracleBitForBit) {
  const char* texts[] = {
      "",
      "!!! ... ???",
      "word",
      "the battery is great and the battery lasts",
      "Great battery, great screen; the battery is GREAT.",
      "the screen the screen the screen the screen",
      "a b c d e f g h i j k l m n o p q r s t u v w x y z a b c d e f g h "
      "i j k l m n o p q r s t u v w x y z a b c d e f g h i j k l m n",
  };
  for (const char* candidate : texts) {
    for (const char* reference : texts) {
      RougeTriple fast = RougeAll(candidate, reference);
      RougeTriple slow = oracle::RougeDocument(candidate).ScoreAgainst(
          oracle::RougeDocument(reference));
      EXPECT_EQ(std::memcmp(&fast, &slow, sizeof(RougeTriple)), 0)
          << "'" << candidate << "' vs '" << reference << "'";
    }
  }
}

TEST(RougeTest, RougeLAtLeastAsSelectiveAsRouge1) {
  // LCS overlap <= unigram overlap, hence R-L F1 <= R-1 F1.
  const char* a = "one two three four five six";
  const char* b = "six five four three two one";
  RougeTriple scores = RougeAll(a, b);
  EXPECT_LE(scores.rougeL.f1, scores.rouge1.f1 + 1e-12);
}

TEST(RougeTripleTest, AccumulateAndAverage) {
  RougeTriple total;
  total += RougeAll("a b", "a b");
  total += RougeAll("x", "y");
  total /= 2.0;
  EXPECT_NEAR(total.rouge1.f1, 0.5, 1e-12);
}

}  // namespace
}  // namespace comparesets
