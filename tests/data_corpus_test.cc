#include "data/corpus.h"

#include <gtest/gtest.h>

#include "test_fixtures.h"

namespace comparesets {
namespace {

using testing::MakeReview;
using testing::kPos;
using testing::kNeg;

Product TinyProduct(const std::string& id, size_t reviews,
                    std::vector<std::string> also_bought = {}) {
  Product p;
  p.id = id;
  p.title = "product " + id;
  p.also_bought = std::move(also_bought);
  for (size_t r = 0; r < reviews; ++r) {
    Review review = MakeReview(id + "-r" + std::to_string(r),
                               {{0, r % 2 == 0 ? kPos : kNeg}});
    review.reviewer_id = "user-" + std::to_string(r % 3);
    p.reviews.push_back(std::move(review));
  }
  return p;
}

TEST(CatalogTest, InternAssignsSequentialIds) {
  AspectCatalog catalog;
  EXPECT_EQ(catalog.Intern("battery"), 0);
  EXPECT_EQ(catalog.Intern("lens"), 1);
  EXPECT_EQ(catalog.Intern("battery"), 0);  // Idempotent.
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.Name(1), "lens");
  EXPECT_EQ(catalog.Find("lens"), 1);
  EXPECT_EQ(catalog.Find("missing"), -1);
}

TEST(ReviewTest, MentionedAspectsDeduplicatedSorted) {
  Review review = MakeReview("r", {{2, kPos}, {0, kNeg}, {2, kNeg}, {1, kPos}});
  EXPECT_EQ(review.MentionedAspects(), (std::vector<AspectId>{0, 1, 2}));
}

TEST(PolarityTest, Names) {
  EXPECT_STREQ(PolarityName(Polarity::kPositive), "positive");
  EXPECT_STREQ(PolarityName(Polarity::kNegative), "negative");
  EXPECT_STREQ(PolarityName(Polarity::kNeutral), "neutral");
}

TEST(CorpusTest, AddFindAndCounts) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("a", 3)).CheckOK();
  corpus.AddProduct(TinyProduct("b", 5)).CheckOK();
  corpus.Finalize();
  EXPECT_EQ(corpus.num_products(), 2u);
  EXPECT_EQ(corpus.num_reviews(), 8u);
  EXPECT_EQ(corpus.num_reviewers(), 3u);  // user-0/1/2 shared.
  ASSERT_NE(corpus.Find("a"), nullptr);
  EXPECT_EQ(corpus.Find("a")->reviews.size(), 3u);
  EXPECT_EQ(corpus.Find("zzz"), nullptr);
}

TEST(CorpusTest, DuplicateProductRejected) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("a", 2)).CheckOK();
  Status status = corpus.AddProduct(TinyProduct("a", 2));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(CorpusTest, BuildInstancesFollowsAlsoBought) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("t", 4, {"c1", "c2", "ghost"})).CheckOK();
  corpus.AddProduct(TinyProduct("c1", 4)).CheckOK();
  corpus.AddProduct(TinyProduct("c2", 4)).CheckOK();
  corpus.Finalize();

  auto instances = corpus.BuildInstances();
  // Only "t" has enough comparatives; c1/c2 have none.
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].target().id, "t");
  EXPECT_EQ(instances[0].num_items(), 3u);  // Ghost link skipped.
}

TEST(CorpusTest, MinReviewsFilterSkipsThinItems) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("t", 4, {"thin", "ok1", "ok2"})).CheckOK();
  corpus.AddProduct(TinyProduct("thin", 1)).CheckOK();
  corpus.AddProduct(TinyProduct("ok1", 3)).CheckOK();
  corpus.AddProduct(TinyProduct("ok2", 3)).CheckOK();
  corpus.Finalize();

  InstanceOptions options;
  options.min_reviews_per_item = 2;
  auto instances = corpus.BuildInstances(options);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].num_items(), 3u);  // "thin" excluded.
}

TEST(CorpusTest, MinComparativeItemsFilter) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("t", 4, {"c1"})).CheckOK();
  corpus.AddProduct(TinyProduct("c1", 4)).CheckOK();
  corpus.Finalize();

  InstanceOptions options;
  options.min_comparative_items = 2;
  EXPECT_TRUE(corpus.BuildInstances(options).empty());
  options.min_comparative_items = 1;
  EXPECT_EQ(corpus.BuildInstances(options).size(), 1u);
}

TEST(CorpusTest, MaxComparativeItemsCap) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("t", 4, {"c1", "c2", "c3", "c4"})).CheckOK();
  for (const char* id : {"c1", "c2", "c3", "c4"}) {
    corpus.AddProduct(TinyProduct(id, 3)).CheckOK();
  }
  corpus.Finalize();

  InstanceOptions options;
  options.max_comparative_items = 2;
  auto instances = corpus.BuildInstances(options);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].num_items(), 3u);  // Target + 2 comparatives.
}

TEST(CorpusTest, SelfLinkIgnored) {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("t", 4, {"t", "c1", "c2"})).CheckOK();
  corpus.AddProduct(TinyProduct("c1", 3)).CheckOK();
  corpus.AddProduct(TinyProduct("c2", 3)).CheckOK();
  corpus.Finalize();
  auto instances = corpus.BuildInstances();
  ASSERT_EQ(instances.size(), 1u);
  for (const Product* item : instances[0].items) {
    EXPECT_NE(item, nullptr);
  }
  EXPECT_EQ(instances[0].num_items(), 3u);
}

TEST(CorpusTest, WorkingExampleFixtureWellFormed) {
  Corpus corpus = testing::WorkingExampleCorpus();
  EXPECT_EQ(corpus.num_products(), 3u);
  EXPECT_EQ(corpus.num_aspects(), 5u);
  EXPECT_EQ(corpus.catalog().Name(testing::kBattery), "battery");
  EXPECT_EQ(corpus.catalog().Name(testing::kShuttle), "shuttle");
  auto instances = corpus.BuildInstances();
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].num_items(), 3u);
}

/// Every field of every product, for bit-for-bit comparisons.
std::string Fingerprint(const Corpus& corpus) {
  std::string out;
  for (const Product& product : corpus.products()) {
    out += product.id + "|" + product.title + "|";
    for (const std::string& id : product.also_bought) out += id + ",";
    for (const Review& review : product.reviews) {
      out += review.id + "/" + review.reviewer_id + "/" + review.text + "/" +
             std::to_string(review.rating) + "/";
      for (const OpinionMention& mention : review.opinions) {
        out += std::to_string(mention.aspect) + ":" +
               PolarityName(mention.polarity) + ":" +
               std::to_string(mention.strength) + ";";
      }
    }
    out += "\n";
  }
  return out;
}

Corpus ThreeProducts() {
  Corpus corpus("test");
  corpus.AddProduct(TinyProduct("a", 3, {"b", "c"})).CheckOK();
  corpus.AddProduct(TinyProduct("b", 2)).CheckOK();
  corpus.AddProduct(TinyProduct("c", 2)).CheckOK();
  corpus.Finalize();
  return corpus;
}

// Copies share their products until one side mutates: the mutated copy
// gets its own product, and the original stays bit-identical.
TEST(CorpusTest, MutatedCopyLeavesTheOriginalBitIdentical) {
  Corpus original = ThreeProducts();
  const std::string before = Fingerprint(original);
  const Product* shared_b = original.Find("b");

  Corpus copy = original;
  EXPECT_EQ(copy.Find("b"), shared_b);  // Shared, not copied.
  Product* edited = copy.MutableProduct(copy.IndexOf("b"));
  edited->reviews.push_back(MakeReview("b-extra", {{0, kPos}}));
  edited->title = "edited";
  copy.MutableProduct(copy.IndexOf("a"))->reviews.clear();

  EXPECT_EQ(Fingerprint(original), before);
  EXPECT_EQ(original.Find("b"), shared_b);
  EXPECT_NE(copy.Find("b"), shared_b);
  EXPECT_EQ(copy.Find("b")->reviews.size(), 3u);
  EXPECT_EQ(copy.Find("c"), original.Find("c"));  // Untouched: still shared.

  // And the other way round: editing the original leaves the copy alone.
  const std::string copied = Fingerprint(copy);
  original.MutableProduct(original.IndexOf("c"))->reviews.pop_back();
  EXPECT_EQ(Fingerprint(copy), copied);
  EXPECT_EQ(original.Find("c")->reviews.size(), 1u);
}

// An unshared corpus edits in place: Find() pointers (and the instances
// built from them) stay valid across MutableProduct. Once a copy is
// gone the corpus is unshared again.
TEST(CorpusTest, FindPointersSurviveMutableProductOnUnsharedCorpus) {
  Corpus corpus = ThreeProducts();
  const Product* a = corpus.Find("a");
  auto instances = corpus.BuildInstances();
  ASSERT_EQ(instances.size(), 1u);

  Product* edited = corpus.MutableProduct(corpus.IndexOf("a"));
  EXPECT_EQ(edited, a);
  edited->reviews.push_back(MakeReview("a-extra", {{0, kNeg}}));
  EXPECT_EQ(corpus.Find("a"), a);
  EXPECT_EQ(instances[0].items[0], a);
  EXPECT_EQ(a->reviews.size(), 4u);

  { Corpus copy = corpus; }
  EXPECT_EQ(corpus.MutableProduct(corpus.IndexOf("a")), a);
}

TEST(CorpusTest, SubsetSharesTheChosenProductsInOrder) {
  Corpus corpus = ThreeProducts();
  corpus.catalog().Intern("battery");
  Corpus subset = Corpus::Subset(corpus, {0, 2});
  EXPECT_TRUE(subset.finalized());
  EXPECT_EQ(subset.name(), "test");
  EXPECT_EQ(subset.num_aspects(), 1u);
  ASSERT_EQ(subset.num_products(), 2u);
  EXPECT_EQ(&subset.products()[0], corpus.Find("a"));
  EXPECT_EQ(&subset.products()[1], corpus.Find("c"));
  EXPECT_EQ(subset.IndexOf("c"), 1u);
  EXPECT_EQ(subset.IndexOf("b"), Corpus::npos);
  EXPECT_EQ(subset.FindShared("c").get(), corpus.Find("c"));
  EXPECT_EQ(subset.FindShared("b"), nullptr);
}

}  // namespace
}  // namespace comparesets
