#include "service/vector_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/design_matrix.h"

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
    return PreparedInstance::Create(std::move(products), model, store_);
  }

  std::shared_ptr<const IndexedCorpus> corpus_;
  ItemVectorStore store_{64};
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

/// The i-th enumerated instance's products, shared with `corpus`.
std::vector<std::shared_ptr<const Product>> SharedProducts(
    const IndexedCorpus& corpus, const ProblemInstance& instance) {
  std::vector<std::shared_ptr<const Product>> products;
  for (const Product* item : instance.items) {
    products.push_back(corpus.corpus().FindShared(item->id));
  }
  return products;
}

TEST_F(VectorCacheTest, SharedItemsAreCountedOnce) {
  OpinionModel model = OpinionModel::Binary(corpus_->num_aspects());
  ItemVectorStore store(64);
  const ProblemInstance& first = corpus_->instances()[0];
  const ProblemInstance* second = nullptr;
  for (const ProblemInstance& other : corpus_->instances()) {
    if (&other == &first) continue;
    for (const Product* item : other.items) {
      if (std::find(first.items.begin(), first.items.end(), item) !=
          first.items.end()) {
        second = &other;
      }
    }
    if (second != nullptr) break;
  }
  ASSERT_NE(second, nullptr) << "no two instances share a product";
  size_t built = 0;
  auto a = PreparedInstance::Create(SharedProducts(*corpus_, first), model,
                                    store, &built);
  EXPECT_EQ(built, first.num_items());
  auto b = PreparedInstance::Create(SharedProducts(*corpus_, *second), model,
                                    store, &built);
  EXPECT_LT(built, first.num_items() + second->num_items());

  VectorCache cache(4);
  cache.Put("a", a);
  cache.Put("b", b);
  size_t own = 0;
  size_t per_bundle_items = 0;
  std::set<const ItemVectors*> distinct;
  for (const auto& bundle : {a, b}) {
    own += bundle->vectors.ApproxMemoryBytes() +
           bundle->alignment_docs->ApproxMemoryBytes();
    for (const auto& item : bundle->vectors.items) {
      per_bundle_items += item->ApproxMemoryBytes();
      distinct.insert(item.get());
    }
  }
  size_t shared_once = 0;
  for (const ItemVectors* item : distinct) {
    shared_once += item->ApproxMemoryBytes();
  }
  ASSERT_LT(distinct.size(), first.num_items() + second->num_items());
  EXPECT_EQ(cache.Stats().approx_bytes, own + shared_once);
  EXPECT_LT(cache.Stats().approx_bytes, own + per_bundle_items);
  // The store counts as idle only what no bundle holds.
  EXPECT_EQ(store.IdleBytes(), 0u);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameItem(const ItemVectors& got, const ItemVectors& want) {
  EXPECT_EQ(got.reviews, want.reviews);
  EXPECT_TRUE(SameBits(got.tau.data(), want.tau.data()));
  EXPECT_TRUE(SameBits(got.opinion_columns, want.opinion_columns));
  EXPECT_TRUE(SameBits(got.aspect_columns, want.aspect_columns));
}

void ExpectSameBlocks(const ItemBlocks& got, const ItemBlocks& want) {
  EXPECT_EQ(got.dup_counts, want.dup_counts);
  EXPECT_EQ(got.group_begin, want.group_begin);
  EXPECT_EQ(got.group_members, want.group_members);
  EXPECT_EQ(got.opinion_head, want.opinion_head);
  EXPECT_EQ(got.opinion_dup_counts, want.opinion_dup_counts);
  EXPECT_EQ(got.opinion_group_begin, want.opinion_group_begin);
  EXPECT_EQ(got.opinion_group_members, want.opinion_group_members);
  EXPECT_TRUE(SameBits(got.gram_opinion, want.gram_opinion));
  EXPECT_TRUE(SameBits(got.gram_aspect, want.gram_aspect));
  EXPECT_TRUE(SameBits(got.vty_opinion, want.vty_opinion));
  EXPECT_EQ(got.support_begin, want.support_begin);
  EXPECT_EQ(got.support_rows, want.support_rows);
  EXPECT_EQ(got.aspect_rows, want.aspect_rows);
  EXPECT_TRUE(SameBits(got.tau_norm2, want.tau_norm2));
}

void ExpectSameSystem(const DesignSystem& got, const DesignSystem& want) {
  EXPECT_EQ(got.dup_counts, want.dup_counts);
  EXPECT_EQ(got.group_reviews, want.group_reviews);
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t g = 0; g < got.cols(); ++g) {
    for (size_t h = 0; h < got.cols(); ++h) {
      EXPECT_TRUE(SameBits(got.gram.gram(g, h), want.gram.gram(g, h)));
    }
  }
  EXPECT_TRUE(SameBits(got.gram.vty.data(), want.gram.vty.data()));
  EXPECT_TRUE(SameBits(got.gram.target_norm2, want.gram.target_norm2));
}

/// A store warmed on one instance, then a delta that gives `changed`
/// (an item of that instance) one more review: the instance prepared
/// again through the store must match a from-scratch build bit for bit.
void ExpectStoreBuildMatchesFresh(size_t changed) {
  auto config = DefaultConfig("Cellphone", 40);
  config.status().CheckOK();
  Corpus base = GenerateCorpus(config.value()).ValueOrDie();
  base.Finalize();
  auto old_snapshot = IndexedCorpus::Build(base).ValueOrDie();
  const ProblemInstance& old_instance = old_snapshot->instances()[0];
  const std::string target = old_instance.target().id;
  const std::string changed_id = old_instance.items[changed]->id;
  OpinionModel model = OpinionModel::Binary(old_snapshot->num_aspects());

  ItemVectorStore store(64);
  size_t built = 0;
  auto old_bundle = PreparedInstance::Create(
      SharedProducts(*old_snapshot, old_instance), model, store, &built);
  ASSERT_EQ(built, old_instance.num_items());
  // Blocks built for the old instance are the ones the new one reuses.
  for (size_t i = 0; i < old_instance.num_items(); ++i) {
    GetOrBuildItemBlocks(old_bundle->vectors, i);
  }

  Corpus grown = base;
  Product* product = grown.MutableProduct(grown.IndexOf(changed_id));
  Review extra = product->reviews[0];
  extra.id += "-again";
  product->reviews.push_back(extra);
  auto new_snapshot = IndexedCorpus::Build(std::move(grown)).ValueOrDie();
  store.Retain([&](const Product& p, size_t aspects) {
    return aspects == new_snapshot->num_aspects() &&
           new_snapshot->FindProduct(p.id) == &p;
  });
  EXPECT_EQ(store.size(), old_instance.num_items() - 1);

  const ProblemInstance* instance = new_snapshot->FindInstance(target);
  ASSERT_NE(instance, nullptr);
  ASSERT_EQ(instance->num_items(), old_instance.num_items());
  built = 0;
  auto bundle = PreparedInstance::Create(
      SharedProducts(*new_snapshot, *instance), model, store, &built);
  EXPECT_EQ(built, 1u);
  const InstanceVectors& got = bundle->vectors;
  InstanceVectors fresh = BuildInstanceVectors(model, *instance);

  EXPECT_TRUE(SameBits(got.gamma.data(), fresh.gamma.data()));
  EXPECT_TRUE(SameBits(got.gamma_norm2, fresh.gamma_norm2));
  EXPECT_EQ(got.aspect_dot_begin, fresh.aspect_dot_begin);
  EXPECT_TRUE(SameBits(got.aspect_dots, fresh.aspect_dots));
  std::vector<Vector> phis;
  for (size_t i = 1; i < instance->num_items(); ++i) {
    phis.push_back(fresh.AspectOf(i, {0}));
  }
  for (size_t i = 0; i < instance->num_items(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    EXPECT_EQ(got.items[i] == old_bundle->vectors.items[i], i != changed);
    ExpectSameItem(*got.items[i], *fresh.items[i]);
    ExpectSameBlocks(*GetOrBuildItemBlocks(got, i),
                     BuildItemBlocks(*fresh.items[i]));
    ExpectSameSystem(BuildCrsSystem(got, i), BuildCrsSystem(fresh, i));
    ExpectSameSystem(BuildCompareSetsSystem(got, i, 1.0),
                     BuildCompareSetsSystem(fresh, i, 1.0));
    std::vector<Vector> others;
    for (size_t j = 0; j < instance->num_items(); ++j) {
      if (j != i) others.push_back(phis[(j == 0 ? i : j) - 1]);
    }
    ExpectSameSystem(BuildCompareSetsPlusSystem(got, i, 1.0, 0.1, others),
                     BuildCompareSetsPlusSystem(fresh, i, 1.0, 0.1, others));
  }
  if (changed == 0) {
    // A new target moves Γ, so every item's a(r)ᵀΓ is the new instance's.
    EXPECT_FALSE(SameBits(got.gamma.data(), old_bundle->vectors.gamma.data()));
    EXPECT_FALSE(SameBits(got.aspect_dots, old_bundle->vectors.aspect_dots));
  }
}

TEST(ItemVectorStoreTest, ChangedComparativeItemMatchesFreshBuildBitForBit) {
  ExpectStoreBuildMatchesFresh(1);
}

TEST(ItemVectorStoreTest, ChangedTargetMatchesFreshBuildBitForBit) {
  ExpectStoreBuildMatchesFresh(0);
}

TEST_F(VectorCacheTest, NewProductAtAFreedAddressNeverHitsTheOldEntry) {
  OpinionModel model = OpinionModel::Binary(corpus_->num_aspects());
  ItemVectorStore store(4);
  const Product& source = corpus_->corpus().products()[0];
  Product other = corpus_->corpus().products()[1];
  ASSERT_NE(other.reviews.size(), source.reviews.size());
  auto first = std::make_shared<const Product>(source);
  const Product* address = first.get();
  bool built = false;
  store.GetOrBuild(first, model, &built);
  EXPECT_TRUE(built);

  // The entry pins its product: dropping every other handle frees
  // nothing, so no other product can take the address meanwhile.
  std::weak_ptr<const Product> watch = first;
  first.reset();
  ASSERT_FALSE(watch.expired());

  // Once publication drops the entry the product is freed, and a new
  // product of the same size takes its address when the allocator reuses
  // the block (it usually does). It must be built, never served the old
  // product's vectors.
  store.Retain([&](const Product& p, size_t) { return &p != address; });
  ASSERT_TRUE(watch.expired());
  watch.reset();  // Releases the block make_shared put the product in.
  std::vector<std::shared_ptr<const Product>> misses;
  std::shared_ptr<const Product> second;
  while (second == nullptr && misses.size() < 64) {
    auto candidate = std::make_shared<const Product>(other);
    if (candidate.get() == address) {
      second = std::move(candidate);
    } else {
      misses.push_back(std::move(candidate));
    }
  }
  if (second == nullptr) {
    std::printf("note: the allocator did not reuse the freed address\n");
    second = misses.back();
  }
  auto vectors = store.GetOrBuild(second, model, &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(vectors->reviews, second->reviews.size());
  EXPECT_TRUE(SameBits(vectors->opinion_columns,
                       BuildItemVectors(model, *second)->opinion_columns));
}

TEST_F(VectorCacheTest, StoreKeepsAtMostTwiceItsIdleCapacityOfUnheldItems) {
  OpinionModel model = OpinionModel::Binary(corpus_->num_aspects());
  const size_t capacity = 3;
  ItemVectorStore store(capacity);
  const auto& catalog = corpus_->corpus();
  ASSERT_GE(catalog.products().size(), 20u);
  bool built = false;
  auto held = store.GetOrBuild(catalog.FindShared(catalog.products()[0].id),
                               model, &built);
  // A stream of items nobody holds: the store never keeps more than
  // 2 × capacity of them, and the held entry never goes.
  for (size_t i = 1; i < 20; ++i) {
    store.GetOrBuild(catalog.FindShared(catalog.products()[i].id), model,
                     &built);
    EXPECT_TRUE(built);
    EXPECT_LE(store.size(), 1 + 2 * capacity);
  }
  EXPECT_GT(store.IdleBytes(), 0u);
  EXPECT_EQ(store.GetOrBuild(catalog.FindShared(catalog.products()[0].id),
                             model, &built),
            held);
  EXPECT_FALSE(built);
  // Eviction takes the least recently used first: the latest idle item
  // is still there, the first long gone.
  store.GetOrBuild(catalog.FindShared(catalog.products()[19].id), model,
                   &built);
  EXPECT_FALSE(built);
  store.GetOrBuild(catalog.FindShared(catalog.products()[1].id), model,
                   &built);
  EXPECT_TRUE(built);
}

TEST_F(VectorCacheTest, ConcurrentPreparesShareItemsWhilePublicationDrops) {
  // Lanes prepare overlapping instances through one store, solve-side
  // block builds included, while another lane keeps dropping entries
  // the way Publish does. Every bundle must still equal a fresh build.
  OpinionModel model = OpinionModel::Binary(corpus_->num_aspects());
  ItemVectorStore store(4);
  const size_t instances = std::min<size_t>(6, corpus_->num_instances());
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    size_t round = 0;
    while (!done.load()) {
      store.Retain([&](const Product& p, size_t) {
        return (std::hash<std::string>()(p.id) + round) % 3 != 0;
      });
      ++round;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> lanes;
  std::atomic<size_t> mismatches{0};
  for (size_t lane = 0; lane < 3; ++lane) {
    lanes.emplace_back([&, lane] {
      for (size_t k = 0; k < 20; ++k) {
        const ProblemInstance& instance =
            corpus_->instances()[(lane + k) % instances];
        auto bundle = PreparedInstance::Create(
            SharedProducts(*corpus_, instance), model, store);
        InstanceVectors fresh = BuildInstanceVectors(model, instance);
        for (size_t i = 0; i < instance.num_items(); ++i) {
          const ItemBlocks& blocks = *GetOrBuildItemBlocks(bundle->vectors, i);
          if (!SameBits(bundle->vectors.items[i]->opinion_columns,
                        fresh.items[i]->opinion_columns) ||
              !SameBits(blocks.gram_opinion,
                        BuildItemBlocks(*fresh.items[i]).gram_opinion)) {
            ++mismatches;
          }
        }
        if (!SameBits(bundle->vectors.aspect_dots, fresh.aspect_dots)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  done.store(true);
  publisher.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace comparesets
