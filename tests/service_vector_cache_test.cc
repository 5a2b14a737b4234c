#include "service/vector_cache.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "service/indexed_corpus.h"

namespace comparesets {
namespace {

class VectorCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto config = DefaultConfig("Cellphone", 40);
    ASSERT_TRUE(config.ok());
    auto corpus = GenerateCorpus(config.value());
    ASSERT_TRUE(corpus.ok());
    auto indexed = IndexedCorpus::Build(std::move(corpus).value());
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    corpus_ = indexed.value();
    ASSERT_GE(corpus_->num_instances(), 3u);
  }

  /// A prepared bundle for the i-th enumerated instance.
  std::shared_ptr<const PreparedInstance> Bundle(size_t i) {
    OpinionModel model = OpinionModel::Binary(corpus_->num_aspects());
    std::vector<std::shared_ptr<const Product>> products;
    for (const Product* item : corpus_->instances()[i].items) {
      products.push_back(corpus_->corpus().FindShared(item->id));
    }
    return PreparedInstance::Create(std::move(products), model);
  }

  std::shared_ptr<const IndexedCorpus> corpus_;
};

TEST_F(VectorCacheTest, PreparedInstanceWiresVectorsToOwnedInstance) {
  auto bundle = Bundle(0);
  EXPECT_EQ(bundle->vectors.instance, &bundle->instance);
  // The instance reads the snapshot's own (shared) products.
  EXPECT_EQ(bundle->instance.items, corpus_->instances()[0].items);
  ASSERT_EQ(bundle->products.size(), bundle->instance.num_items());
  EXPECT_EQ(bundle->products[0].get(), bundle->instance.items[0]);
  EXPECT_EQ(bundle->vectors.num_items(), bundle->instance.num_items());
  EXPECT_GT(bundle->vectors.ApproxMemoryBytes(), 0u);
}

TEST_F(VectorCacheTest, HitAndMissAccounting) {
  VectorCache cache(4);
  EXPECT_EQ(cache.Get("a"), nullptr);
  auto bundle = Bundle(0);
  cache.Put("a", bundle);
  EXPECT_EQ(cache.Get("a"), bundle);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.Get("a"), bundle);

  VectorCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.approx_bytes, 0u);
}

TEST_F(VectorCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  VectorCache cache(2);
  cache.Put("a", Bundle(0));
  cache.Put("b", Bundle(1));
  // Touch "a" so "b" becomes the LRU entry.
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Put("c", Bundle(2));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_NE(cache.Get("a"), nullptr);  // Survived (recently used).
  EXPECT_EQ(cache.Get("b"), nullptr);  // Evicted.
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST_F(VectorCacheTest, PutReplacesExistingKeyWithoutEviction) {
  VectorCache cache(2);
  cache.Put("a", Bundle(0));
  auto replacement = Bundle(1);
  cache.Put("a", replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  EXPECT_EQ(cache.Get("a"), replacement);
}

TEST_F(VectorCacheTest, CapacityIsAtLeastOne) {
  VectorCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.Put("a", Bundle(0));
  cache.Put("b", Bundle(1));
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(VectorCacheTest, RekeyMovesKeptEntriesDropsTheRestKeepsCounters) {
  VectorCache cache(4);
  auto kept = Bundle(0);
  cache.Put("1|a", kept);
  cache.Put("1|b", Bundle(1));
  cache.Put("0|c", Bundle(2));
  EXPECT_NE(cache.Get("1|a"), nullptr);

  RekeyCounts counts = cache.Rekey([](const std::string& key) {
    return key == "1|a" ? std::string("2|a") : std::string();
  });
  EXPECT_EQ(counts.kept, 1u);
  EXPECT_EQ(counts.dropped, 2u);
  EXPECT_EQ(cache.size(), 1u);
  // The kept entry answers under its new key only.
  EXPECT_EQ(cache.Get("1|a"), nullptr);
  EXPECT_EQ(cache.Get("2|a"), kept);
  EXPECT_EQ(cache.Get("1|b"), nullptr);
  VectorCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(VectorCacheTest, EvictedEntryStaysAliveForHolders) {
  VectorCache cache(1);
  auto bundle = Bundle(0);
  cache.Put("a", bundle);
  auto held = cache.Get("a");
  cache.Put("b", Bundle(1));  // Evicts "a".
  ASSERT_NE(held, nullptr);
  // The held bundle is still fully usable after eviction.
  EXPECT_EQ(held->vectors.instance, &held->instance);
  EXPECT_GT(held->vectors.num_items(), 0u);
}

}  // namespace
}  // namespace comparesets
