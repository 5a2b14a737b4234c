#include "eval/alignment.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>

#include "core/selector.h"
#include "eval/information_loss.h"
#include "eval/runner.h"
#include "oracle/string_rouge.h"
#include "test_fixtures.h"

namespace comparesets {
namespace {

class AlignmentTest : public ::testing::Test {
 protected:
  AlignmentTest()
      : corpus_(testing::WorkingExampleCorpus()),
        instance_(testing::WorkingExampleInstance(corpus_)),
        vectors_(BuildInstanceVectors(OpinionModel::Binary(5), instance_)) {}

  Corpus corpus_;
  ProblemInstance instance_;
  InstanceVectors vectors_;
};

TEST_F(AlignmentTest, PairCountsCorrect) {
  std::vector<Selection> selections = {{0, 1}, {0}, {0, 1}};
  AlignmentScores scores = MeasureAlignment(instance_, selections);
  // Target pairs: |S1|·(|S2|+|S3|) = 2·(1+2) = 6.
  EXPECT_EQ(scores.target_pairs, 6u);
  // Among pairs: 2·1 + 2·2 + 1·2 = 8.
  EXPECT_EQ(scores.among_pairs, 8u);
}

TEST_F(AlignmentTest, ScoresWithinUnitInterval) {
  std::vector<Selection> selections = {{0, 1, 2}, {0, 1}, {2, 3}};
  AlignmentScores scores = MeasureAlignment(instance_, selections);
  for (const RougeTriple* t :
       {&scores.target_vs_comparative, &scores.among_items}) {
    EXPECT_GE(t->rouge1.f1, 0.0);
    EXPECT_LE(t->rouge1.f1, 1.0);
    EXPECT_GE(t->rougeL.f1, 0.0);
    EXPECT_LE(t->rougeL.f1, 1.0);
  }
}

TEST_F(AlignmentTest, SharedAspectSelectionsScoreHigher) {
  // Aspect-aligned: target talks battery/lens/quality; comparatives pick
  // their battery-ish review (index 2) vs price-only review (index 3).
  std::vector<Selection> aligned = {{0}, {2}, {2}};
  std::vector<Selection> misaligned = {{0}, {3}, {3}};
  AlignmentScores a = MeasureAlignment(instance_, aligned);
  AlignmentScores b = MeasureAlignment(instance_, misaligned);
  EXPECT_GT(a.target_vs_comparative.rouge1.f1,
            b.target_vs_comparative.rouge1.f1);
}

TEST_F(AlignmentTest, SubsetRestrictsPairs) {
  std::vector<Selection> selections = {{0, 1}, {0}, {0, 1}};
  AlignmentScores subset =
      MeasureAlignmentSubset(instance_, selections, {0, 1});
  EXPECT_EQ(subset.target_pairs, 2u);  // |S1|·|S2| only.
  EXPECT_EQ(subset.among_pairs, 2u);
}

TEST_F(AlignmentTest, SubsetWithoutTargetHasNoTargetPairs) {
  std::vector<Selection> selections = {{0, 1}, {0}, {0, 1}};
  AlignmentScores subset =
      MeasureAlignmentSubset(instance_, selections, {1, 2});
  EXPECT_EQ(subset.target_pairs, 0u);
  EXPECT_EQ(subset.among_pairs, 2u);
  EXPECT_DOUBLE_EQ(subset.target_vs_comparative.rougeL.f1, 0.0);
}

TEST_F(AlignmentTest, EmptySelectionsYieldNoPairs) {
  std::vector<Selection> selections = {{}, {}, {}};
  AlignmentScores scores = MeasureAlignment(instance_, selections);
  EXPECT_EQ(scores.target_pairs, 0u);
  EXPECT_EQ(scores.among_pairs, 0u);
  EXPECT_DOUBLE_EQ(scores.among_items.rouge1.f1, 0.0);
}

TEST_F(AlignmentTest, IdenticalTextEverywhereScoresOne) {
  // Build a dedicated corpus where all reviews share identical text.
  Corpus corpus("same");
  corpus.catalog().Intern("battery");
  for (const char* id : {"a", "b"}) {
    Product p;
    p.id = id;
    for (int r = 0; r < 2; ++r) {
      Review review = testing::MakeReview(
          std::string(id) + std::to_string(r), {{0, testing::kPos}},
          "identical words in every review");
      p.reviews.push_back(review);
    }
    if (std::string(id) == "a") p.also_bought = {"b"};
    corpus.AddProduct(std::move(p)).CheckOK();
  }
  corpus.Finalize();
  ProblemInstance instance;
  instance.items = {corpus.Find("a"), corpus.Find("b")};
  AlignmentScores scores = MeasureAlignment(instance, {{0, 1}, {0, 1}});
  EXPECT_DOUBLE_EQ(scores.among_items.rouge1.f1, 1.0);
  EXPECT_DOUBLE_EQ(scores.among_items.rougeL.f1, 1.0);
}

// --- Bit identity with the string-keyed oracle ------------------------------

void ExpectBitIdentical(const AlignmentScores& fast,
                        const AlignmentScores& oracle, const char* label) {
  EXPECT_EQ(fast.target_pairs, oracle.target_pairs) << label;
  EXPECT_EQ(fast.among_pairs, oracle.among_pairs) << label;
  EXPECT_EQ(std::memcmp(&fast, &oracle, sizeof(AlignmentScores)), 0)
      << label << ": among R-L " << fast.among_items.rougeL.f1 << " vs "
      << oracle.among_items.rougeL.f1;
}

/// Selects with CompaReSetS+ at each m on every instance of `workload`
/// and compares full and core-list alignment with the oracle's — the
/// full alignment both one-off and from a per-instance document memo
/// that stays warm across the m values (so its ids were interned in
/// another order than any one call's).
void ExpectWorkloadMatchesOracle(const Workload& workload) {
  auto selector = MakeSelector("CompaReSetS+");
  ASSERT_TRUE(selector.ok());
  std::vector<std::unique_ptr<AlignmentDocumentMemo>> memos;
  for (const ProblemInstance& instance : workload.instances()) {
    memos.push_back(std::make_unique<AlignmentDocumentMemo>(instance));
  }
  for (size_t m : {10u, 1u, 3u}) {
    SelectorOptions options;
    options.m = m;
    auto run = RunSelector(*selector.value(), workload, options);
    ASSERT_TRUE(run.ok()) << run.status();
    for (size_t i = 0; i < workload.num_instances(); ++i) {
      const ProblemInstance& instance = workload.instances()[i];
      const std::vector<Selection>& selections =
          run.value().results[i].selections;
      SCOPED_TRACE(::testing::Message() << "m " << m << " instance " << i);
      AlignmentScores expected = oracle::MeasureAlignment(instance, selections);
      ExpectBitIdentical(MeasureAlignment(instance, selections), expected,
                         "all items");
      ExpectBitIdentical(memos[i]->Measure(selections), expected,
                         "all items from the memo");
      // Core lists with the target and without it.
      std::vector<size_t> with_target;
      std::vector<size_t> without_target;
      for (size_t v = 0; v < instance.num_items(); v += 2) {
        with_target.push_back(v);
        if (v + 1 < instance.num_items()) without_target.push_back(v + 1);
      }
      ExpectBitIdentical(
          MeasureAlignmentSubset(instance, selections, with_target),
          oracle::MeasureAlignmentSubset(instance, selections, with_target),
          "core list with item 0");
      ExpectBitIdentical(
          MeasureAlignmentSubset(instance, selections, without_target),
          oracle::MeasureAlignmentSubset(instance, selections,
                                         without_target),
          "core list without item 0");
    }
  }
}

TEST(AlignmentOracleTest, SmallWorkloadMatchesOracleBitForBit) {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 24;
  config.max_instances = 6;
  config.seed = 7;
  ExpectWorkloadMatchesOracle(Workload::BuildSynthetic(config).ValueOrDie());
}

TEST(AlignmentOracleTest, CellphoneCatalogMatchesOracleBitForBit) {
  RunnerConfig config;
  config.category = "Cellphone";
  config.num_products = 80;
  config.max_instances = 4;
  config.seed = 42;
  ExpectWorkloadMatchesOracle(Workload::BuildSynthetic(config).ValueOrDie());
}

TEST(AlignmentOracleTest, EdgeCaseReviewsMatchOracleBitForBit) {
  // A review of more than 1,000 tokens (17 LCS words), reviews with no
  // tokens at all, and duplicated reviews within and across items.
  std::string long_text;
  for (int w = 0; w < 1100; ++w) {
    long_text += (w % 7 == 0 ? "battery " : "word") + std::to_string(w % 23);
    long_text += ' ';
  }
  const std::vector<std::vector<std::string>> texts = {
      {long_text, "", "the battery is great", "the battery is great"},
      {"!!! ... ???", long_text, "battery word3 word5 the"},
      {"the battery is great", "", "---"},
  };
  Corpus corpus("edge");
  corpus.catalog().Intern("battery");
  const char* ids[] = {"a", "b", "c"};
  for (size_t p = 0; p < texts.size(); ++p) {
    Product product;
    product.id = ids[p];
    for (size_t r = 0; r < texts[p].size(); ++r) {
      product.reviews.push_back(testing::MakeReview(
          std::string(ids[p]) + std::to_string(r), {{0, testing::kPos}},
          texts[p][r]));
    }
    if (p == 0) product.also_bought = {"b", "c"};
    corpus.AddProduct(std::move(product)).CheckOK();
  }
  corpus.Finalize();
  ProblemInstance instance;
  instance.items = {corpus.Find("a"), corpus.Find("b"), corpus.Find("c")};
  const std::vector<std::vector<Selection>> cases = {
      {{0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2}},
      {{0}, {1}, {}},
      {{1}, {0}, {1, 2}},
      {{2, 3}, {2}, {0}},
  };
  AlignmentDocumentMemo memo(instance);
  for (const std::vector<Selection>& selections : cases) {
    AlignmentScores expected = oracle::MeasureAlignment(instance, selections);
    ExpectBitIdentical(MeasureAlignment(instance, selections), expected,
                       "all items");
    AlignmentDocumentMemo::Use use;
    ExpectBitIdentical(memo.Measure(selections, &use), expected,
                       "all items from the memo");
    size_t selected = 0;
    for (const Selection& selection : selections) selected += selection.size();
    EXPECT_EQ(use.built + use.reused, selected);
    for (const std::vector<size_t>& items :
         {std::vector<size_t>{0, 2}, std::vector<size_t>{1, 2},
          std::vector<size_t>{2, 0, 1}}) {
      ExpectBitIdentical(
          MeasureAlignmentSubset(instance, selections, items),
          oracle::MeasureAlignmentSubset(instance, selections, items),
          "subset");
    }
  }
}

// --- Information loss (Figure 11) ------------------------------------------

TEST_F(AlignmentTest, InformationLossZeroForFullSelection) {
  std::vector<Selection> full;
  for (size_t i = 0; i < 3; ++i) {
    Selection all(vectors_.num_reviews(i));
    std::iota(all.begin(), all.end(), 0);
    full.push_back(all);
  }
  InformationLoss loss = MeasureInformationLoss(vectors_, full);
  EXPECT_NEAR(loss.delta_target, 0.0, 1e-12);
  EXPECT_NEAR(loss.delta_all_items, 0.0, 1e-12);
  EXPECT_NEAR(loss.cosine_target, 1.0, 1e-12);
  EXPECT_NEAR(loss.cosine_all_items, 1.0, 1e-12);
}

TEST_F(AlignmentTest, InformationLossPositiveForPartialSelection) {
  std::vector<Selection> partial = {{2}, {3}, {3}};
  InformationLoss loss = MeasureInformationLoss(vectors_, partial);
  EXPECT_GT(loss.delta_target, 0.0);
  EXPECT_LT(loss.cosine_target, 1.0);
  EXPECT_GE(loss.cosine_target, 0.0);
}

TEST_F(AlignmentTest, LargerSelectionsLoseLessOnWorkingExample) {
  // m = 3 contains a proportional triple (zero loss); m = 1 cannot.
  std::vector<Selection> m1 = {{0}, {0}, {0}};
  std::vector<Selection> m3 = {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}};
  InformationLoss loss1 = MeasureInformationLoss(vectors_, m1);
  InformationLoss loss3 = MeasureInformationLoss(vectors_, m3);
  EXPECT_LE(loss3.delta_target, loss1.delta_target + 1e-12);
}

}  // namespace
}  // namespace comparesets
