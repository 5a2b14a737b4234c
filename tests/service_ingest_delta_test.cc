// The streaming-ingestion regression oracle: a corpus grown through
// WAL-record delta batches must be BIT-IDENTICAL to a full rebuild
// from scratch — same products, same reviews, same catalog, same
// instance enumeration, same shard slices, and the same response
// payloads for every target (including instances that only exist
// because streamed reviews flipped a product eligible). The rebuild
// comparator applies the same records to its own copy of the base
// corpus, rebuilds the full IndexedCorpus, and swaps it into a router
// created on the SAME initial corpus (same partition bounds), so the
// two paths differ only in HOW snapshots are constructed.
//
// The suite also pins the serving-side contract: a delta batch bumps
// only the touched shards' epochs, so untouched shards keep their
// result memos and vector caches warm across an apply, and inside a
// touched shard every instance none of whose products changed keeps
// its entries too (per-instance carry-over).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "service/ingest/delta.h"
#include "service/ingest/driver.h"
#include "service/ingest/wal.h"
#include "service/router.h"

namespace comparesets {
namespace {

Corpus MakeSynthetic(size_t products, uint64_t seed = 42) {
  auto config = DefaultConfig("Cellphone", products);
  config.status().CheckOK();
  config.value().seed = seed;
  auto corpus = GenerateCorpus(config.value());
  corpus.status().CheckOK();
  return std::move(corpus).value();
}

/// A streamed review for `product_id`, deterministic in `i`. Mixes
/// catalog-known aspect names with a NEW one so catalog growth is part
/// of what the oracle compares.
WalRecord StreamRecord(const std::string& product_id, size_t i,
                       const AspectCatalog& catalog) {
  WalRecord record;
  record.product_id = product_id;
  record.review_id = "stream-r" + std::to_string(i);
  record.reviewer_id = "stream-u" + std::to_string(i % 4);
  record.text = "streamed review number " + std::to_string(i) +
                " praising durability";
  record.rating = 1.0 + static_cast<double>(i % 5);
  record.opinions.push_back(
      {catalog.Name(static_cast<AspectId>(i % catalog.size())),
       i % 2 == 0 ? Polarity::kPositive : Polarity::kNegative, 1.0});
  record.opinions.push_back({"stream-durability", Polarity::kPositive, 0.5});
  return record;
}

void ExpectSameCorpus(const Corpus& got, const Corpus& want,
                      const std::string& where) {
  ASSERT_EQ(got.num_products(), want.num_products()) << where;
  ASSERT_EQ(got.num_aspects(), want.num_aspects()) << where;
  for (size_t a = 0; a < want.num_aspects(); ++a) {
    EXPECT_EQ(got.catalog().Name(static_cast<AspectId>(a)),
              want.catalog().Name(static_cast<AspectId>(a)))
        << where << " aspect " << a;
  }
  for (size_t p = 0; p < want.num_products(); ++p) {
    const Product& g = got.products()[p];
    const Product& w = want.products()[p];
    ASSERT_EQ(g.id, w.id) << where << " product " << p;
    EXPECT_EQ(g.title, w.title) << where;
    EXPECT_EQ(g.also_bought, w.also_bought) << where;
    ASSERT_EQ(g.reviews.size(), w.reviews.size())
        << where << " product " << g.id;
    for (size_t r = 0; r < w.reviews.size(); ++r) {
      EXPECT_EQ(g.reviews[r].id, w.reviews[r].id) << where;
      EXPECT_EQ(g.reviews[r].reviewer_id, w.reviews[r].reviewer_id) << where;
      EXPECT_EQ(g.reviews[r].text, w.reviews[r].text) << where;
      EXPECT_EQ(g.reviews[r].rating, w.reviews[r].rating) << where;
      EXPECT_EQ(g.reviews[r].opinions, w.reviews[r].opinions)
          << where << " product " << g.id << " review " << r;
    }
  }
}

void ExpectSameSnapshot(const IndexedCorpus& got, const IndexedCorpus& want,
                        const std::string& where) {
  EXPECT_EQ(got.shard().shard_id, want.shard().shard_id) << where;
  EXPECT_EQ(got.shard().num_shards, want.shard().num_shards) << where;
  EXPECT_EQ(got.shard().range.begin, want.shard().range.begin) << where;
  EXPECT_EQ(got.shard().range.end, want.shard().range.end) << where;
  ASSERT_EQ(got.num_instances(), want.num_instances()) << where;
  for (size_t i = 0; i < want.num_instances(); ++i) {
    const ProblemInstance& g = got.instances()[i];
    const ProblemInstance& w = want.instances()[i];
    ASSERT_EQ(g.num_items(), w.num_items()) << where << " instance " << i;
    for (size_t j = 0; j < w.num_items(); ++j) {
      EXPECT_EQ(g.items[j]->id, w.items[j]->id)
          << where << " instance " << i << " item " << j;
    }
  }
  ExpectSameCorpus(got.corpus(), want.corpus(), where);
}

/// Bit-for-bit payload equality (the determinism-oracle comparator,
/// minus alignment — these engines run with measure_alignment off).
void ExpectSameResponse(const Result<SelectResponse>& got,
                        const Result<SelectResponse>& want,
                        const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": " << got.status() << " vs " << want.status();
  if (!want.ok()) return;
  EXPECT_EQ(got.value().target_id, want.value().target_id) << where;
  EXPECT_EQ(got.value().item_ids, want.value().item_ids) << where;
  EXPECT_EQ(got.value().selections, want.value().selections) << where;
  EXPECT_EQ(got.value().objective, want.value().objective) << where;
}

RouterOptions SerialRouterOptions() {
  RouterOptions options;
  options.engine.threads = 1;
  options.engine.measure_alignment = false;
  return options;
}

/// The deterministic record stream both oracle sides consume: reviews
/// landing on a spread of existing products, plus records naming
/// unknown products (which both sides must drop).
std::vector<WalRecord> OracleStream(const Corpus& base, size_t count) {
  std::vector<WalRecord> stream;
  for (size_t i = 0; i < count; ++i) {
    if (i % 9 == 8) {
      WalRecord unknown = StreamRecord("no-such-product", i, base.catalog());
      stream.push_back(unknown);
      continue;
    }
    const Product& product =
        base.products()[(i * 7) % base.num_products()];
    stream.push_back(StreamRecord(product.id, i, base.catalog()));
  }
  return stream;
}

class DeltaOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeltaOracleTest, DeltaAppliesMatchFullRebuildBitForBit) {
  const size_t num_shards = GetParam();
  Corpus base = MakeSynthetic(120);
  base.Finalize();

  // Delta side: a router on the initial corpus, grown batch by batch.
  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  auto delta_router =
      ShardRouter::Create(initial.value(), num_shards, SerialRouterOptions());
  delta_router.status().CheckOK();
  auto builder =
      DeltaCorpusBuilder::Create(base, delta_router.value()->bounds(), {});
  builder.status().CheckOK();

  // Rebuild side: its own copy of the base, the same records applied in
  // one sweep, a full from-scratch index, swapped into a router created
  // on the SAME initial corpus (identical partition bounds).
  Corpus rebuilt = base;
  std::vector<WalRecord> stream = OracleStream(base, 60);
  size_t dropped = 0;
  for (const WalRecord& record : stream) {
    Status applied = ApplyWalRecordToCorpus(record, &rebuilt);
    if (!applied.ok()) {
      ASSERT_EQ(applied.code(), StatusCode::kNotFound);
      ++dropped;
    }
  }
  ASSERT_GT(dropped, 0u);  // the stream must exercise the drop path

  // Carry-over on: before every batch the delta router answers every
  // target it serves, so each publication has warm entries to carry or
  // drop, and the final comparison reads carried answers wherever an
  // instance did not change.
  auto warm_every_target = [&] {
    for (size_t s = 0; s < num_shards; ++s) {
      auto snapshot = delta_router.value()->shard_engine(s).corpus();
      for (const ProblemInstance& instance : snapshot->instances()) {
        SelectRequest request;
        request.target_id = instance.target().id;
        request.selector = "CompaReSetSGreedy";
        ASSERT_TRUE(delta_router.value()->Select(request).ok());
      }
    }
  };

  // Delta side applies the identical stream in 4 uneven batches. The
  // last one is a single record, which leaves most instances unchanged,
  // so the final comparison reads many carried entries.
  size_t applied_total = 0, dropped_total = 0;
  std::vector<bool> ever_touched(num_shards, false);
  const size_t batch_sizes[] = {7, 20, 32, 1};
  size_t cursor = 0;
  for (size_t batch_size : batch_sizes) {
    warm_every_target();
    std::vector<WalRecord> batch(
        stream.begin() + cursor,
        stream.begin() + std::min(cursor + batch_size, stream.size()));
    cursor += batch.size();
    auto delta = builder.value()->ApplyBatch(batch);
    delta.status().CheckOK();
    applied_total += delta.value().records_applied;
    dropped_total += delta.value().records_dropped;
    for (ShardDelta& shard : delta.value().shards) {
      ever_touched[shard.shard_id] = true;
      delta_router.value()
          ->ApplyShardDelta(shard.shard_id, std::move(shard.snapshot),
                            shard.reviews_added)
          .CheckOK();
    }
  }
  ASSERT_EQ(cursor, stream.size());
  // The stream must republish every shard at least once — the deep
  // snapshot comparison below relies on each shard having picked up the
  // grown catalog (a shard never touched would, by design, keep its
  // pre-stream snapshot).
  for (size_t s = 0; s < num_shards; ++s) {
    ASSERT_TRUE(ever_touched[s]) << "stream never touched shard " << s;
  }
  EXPECT_EQ(applied_total, stream.size() - dropped);
  EXPECT_EQ(dropped_total, dropped);

  auto final_full = IndexedCorpus::Build(rebuilt);
  final_full.status().CheckOK();
  auto rebuild_router =
      ShardRouter::Create(initial.value(), num_shards, SerialRouterOptions());
  rebuild_router.status().CheckOK();
  ASSERT_EQ(rebuild_router.value()->bounds(), delta_router.value()->bounds());
  for (size_t s = 0; s < num_shards; ++s) {
    rebuild_router.value()->SwapShardCorpus(s, final_full.value()).CheckOK();
  }

  // Snapshot bit-identity, shard by shard.
  for (size_t s = 0; s < num_shards; ++s) {
    ExpectSameSnapshot(*delta_router.value()->shard_engine(s).corpus(),
                       *rebuild_router.value()->shard_engine(s).corpus(),
                       "shard " + std::to_string(s));
  }

  // Response payload identity for EVERY final instance target —
  // including any instance the streamed reviews created. Some of the
  // delta side's answers are entries carried across publications.
  size_t carried_hits = 0;
  for (const ProblemInstance& instance : final_full.value()->instances()) {
    SelectRequest request;
    request.target_id = instance.target().id;
    request.selector = "CompaReSetSGreedy";
    Result<SelectResponse> delta_answer = delta_router.value()->Select(request);
    if (delta_answer.ok() && delta_answer.value().result_cache_hit) {
      ++carried_hits;
    }
    ExpectSameResponse(delta_answer, rebuild_router.value()->Select(request),
                       "target " + request.target_id);
  }
  EXPECT_GT(carried_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, DeltaOracleTest,
                         ::testing::Values(1u, 2u, 4u));

// A hand-built catalog where streamed reviews flip a product eligible:
// the delta path must materialize the NEW instances (p4 as comparative
// in p1's instance, p4 as a fresh target) exactly as a rebuild does.
TEST(DeltaEligibilityTest, StreamedReviewsCreateNewInstancesIdentically) {
  Corpus base("hand");
  AspectId battery = base.catalog().Intern("battery");
  auto add = [&](const std::string& id, size_t reviews,
                 std::vector<std::string> also) {
    Product product;
    product.id = id;
    product.title = "product " + id;
    product.also_bought = std::move(also);
    for (size_t r = 0; r < reviews; ++r) {
      Review review;
      review.id = id + "-r" + std::to_string(r);
      review.reviewer_id = "u" + std::to_string(r);
      review.text = "review of " + id;
      review.rating = 4.0;
      review.opinions.push_back({battery, Polarity::kPositive, 1.0});
      product.reviews.push_back(review);
    }
    base.AddProduct(std::move(product)).CheckOK();
  };
  add("p1", 2, {"p2", "p3", "p4"});
  add("p2", 2, {});
  add("p3", 2, {});
  add("p4", 1, {"p1", "p2"});  // under-reviewed: no instance yet
  add("p5", 2, {"p1", "p2"});
  base.Finalize();

  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  // p4 is ineligible, so initially: p1 -> {p2, p3}, p5 -> {p1, p2}.
  ASSERT_EQ(initial.value()->num_instances(), 2u);

  auto router =
      ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  router.status().CheckOK();
  auto builder = DeltaCorpusBuilder::Create(base, router.value()->bounds(), {});
  builder.status().CheckOK();

  // Only catalog-known aspects: a brand-new aspect name would grow the
  // rebuilt side's catalog everywhere while the delta path's UNTOUCHED
  // shard keeps the old one — a real (and intended) divergence this
  // test is not about. Aspect-set growth is covered by the oracle
  // sweep, where every shard is republished.
  WalRecord flip;
  flip.product_id = "p4";
  flip.review_id = "stream-flip";
  flip.reviewer_id = "u9";
  flip.text = "second review of p4";
  flip.rating = 3.0;
  flip.opinions.push_back({"battery", Polarity::kPositive, 1.0});
  Corpus rebuilt = base;
  ApplyWalRecordToCorpus(flip, &rebuilt).CheckOK();

  auto delta = builder.value()->ApplyBatch({flip});
  delta.status().CheckOK();
  EXPECT_EQ(delta.value().records_applied, 1u);
  for (ShardDelta& shard : delta.value().shards) {
    router.value()
        ->ApplyShardDelta(shard.shard_id, std::move(shard.snapshot),
                          shard.reviews_added)
        .CheckOK();
  }

  auto final_full = IndexedCorpus::Build(rebuilt);
  final_full.status().CheckOK();
  // p4 now has 2 reviews: p1 gains it as a comparative AND p4 itself
  // becomes a target instance.
  ASSERT_EQ(final_full.value()->num_instances(), 3u);

  auto rebuild_router =
      ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  rebuild_router.status().CheckOK();
  for (size_t s = 0; s < 2; ++s) {
    rebuild_router.value()->SwapShardCorpus(s, final_full.value()).CheckOK();
  }
  for (size_t s = 0; s < 2; ++s) {
    ExpectSameSnapshot(*router.value()->shard_engine(s).corpus(),
                       *rebuild_router.value()->shard_engine(s).corpus(),
                       "shard " + std::to_string(s));
  }
}

// Four also-bought clusters (a, b, c, d) with no cross-links:
// partitioned into two shards, shard 0 holds clusters a and b and
// shard 1 clusters c and d, and each shard's closure is exactly its own
// clusters. A record landing in cluster a provably cannot touch shard 1,
// nor any instance of cluster b. (The synthetic generator's graph is
// too dense for this — every product lands in every shard's closure
// there.)
Corpus ClusterCorpus() {
  Corpus base("clusters");
  AspectId battery = base.catalog().Intern("battery");
  AspectId screen = base.catalog().Intern("screen");
  auto add = [&](const std::string& id, std::vector<std::string> also) {
    Product product;
    product.id = id;
    product.title = "product " + id;
    product.also_bought = std::move(also);
    for (size_t r = 0; r < 2; ++r) {
      Review review;
      review.id = id + "-r" + std::to_string(r);
      review.reviewer_id = "u" + std::to_string(r);
      review.text = "review " + std::to_string(r) + " of " + id;
      review.rating = 3.0 + static_cast<double>(r);
      review.opinions.push_back(
          {r == 0 ? battery : screen,
           r == 0 ? Polarity::kPositive : Polarity::kNegative, 1.0});
      product.reviews.push_back(review);
    }
    base.AddProduct(std::move(product)).CheckOK();
  };
  for (const char* cluster : {"a", "b", "c", "d"}) {
    const std::string id[] = {std::string(cluster) + "1",
                              std::string(cluster) + "2",
                              std::string(cluster) + "3"};
    add(id[0], {id[1], id[2]});
    add(id[1], {id[0], id[2]});
    add(id[2], {id[0], id[1]});
  }
  base.Finalize();
  return base;
}

// PR-5-style isolation assertion: a delta that only lands on shard A
// leaves shard B's epoch, result memo, and vector cache warm.
TEST(DeltaWarmCacheTest, UntouchedShardKeepsItsCachesAcrossADeltaApply) {
  Corpus base = ClusterCorpus();
  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  auto router =
      ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  router.status().CheckOK();
  auto builder = DeltaCorpusBuilder::Create(base, router.value()->bounds(), {});
  builder.status().CheckOK();

  // A product that lives ONLY in shard 0's closure, and is already
  // review-eligible (so more reviews cannot flip any slice): reviews
  // landing on it cannot touch shard 1 in any way. The shared_ptrs keep
  // the pre-delta snapshots alive past the apply below.
  std::shared_ptr<const IndexedCorpus> shard0 =
      router.value()->shard_engine(0).corpus();
  std::shared_ptr<const IndexedCorpus> shard1 =
      router.value()->shard_engine(1).corpus();
  std::string only_in_0;
  for (const Product& product : shard0->corpus().products()) {
    if (product.reviews.size() >= 2 &&
        shard1->FindProduct(product.id) == nullptr) {
      only_in_0 = product.id;
      break;
    }
  }
  ASSERT_FALSE(only_in_0.empty());

  // Warm shard 1: the repeat must come whole from the result memo.
  SelectRequest warm;
  warm.target_id = shard1->instances()[0].target().id;
  warm.selector = "CompaReSetSGreedy";
  auto first = router.value()->Select(warm);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first.value().result_cache_hit);

  uint64_t epoch0_before = router.value()->shard_engine(0).corpus_epoch();
  uint64_t epoch1_before = router.value()->shard_engine(1).corpus_epoch();

  auto delta =
      builder.value()->ApplyBatch({StreamRecord(only_in_0, 0, base.catalog()),
                                   StreamRecord(only_in_0, 1, base.catalog())});
  delta.status().CheckOK();
  ASSERT_EQ(delta.value().shards.size(), 1u);
  EXPECT_EQ(delta.value().shards[0].shard_id, 0u);
  EXPECT_EQ(delta.value().shards[0].reviews_added, 2u);
  for (ShardDelta& shard : delta.value().shards) {
    router.value()
        ->ApplyShardDelta(shard.shard_id, std::move(shard.snapshot),
                          shard.reviews_added)
        .CheckOK();
  }

  // Only shard 0 moved.
  EXPECT_EQ(router.value()->shard_engine(0).corpus_epoch(), epoch0_before + 1);
  EXPECT_EQ(router.value()->shard_engine(1).corpus_epoch(), epoch1_before);
  EXPECT_EQ(router.value()->shard_engine(0).ingested_reviews(), 2u);
  EXPECT_EQ(router.value()->shard_engine(1).ingested_reviews(), 0u);

  // Shard 1's memo survived: the exact repeat is a whole-response hit,
  // and its trace still reports zero ingested records.
  auto repeat = router.value()->Select(warm);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_TRUE(repeat.value().result_cache_hit);
  EXPECT_EQ(repeat.value().trace.ingest_records, 0u);
  EXPECT_EQ(repeat.value().trace.corpus_epoch, epoch1_before);

  // Shard 0 answers from the fresh snapshot: epoch moved, and its trace
  // carries the ingest freshness.
  SelectRequest moved;
  moved.target_id = shard0->instances()[0].target().id;
  moved.selector = "CompaReSetSGreedy";
  auto after = router.value()->Select(moved);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.value().trace.corpus_epoch, epoch0_before + 1);
  EXPECT_EQ(after.value().trace.ingest_records, 2u);
}

// Per-instance carry-over inside a touched shard: a review on a1
// republishes shard 0, whose cluster-b instances hold none of the
// changed products. Their memo entries and prepared vectors move to the
// new epoch; cluster a's instances, which all hold a1, go cold.
TEST(DeltaWarmCacheTest, UntouchedInstanceInTouchedShardStaysWarm) {
  Corpus base = ClusterCorpus();
  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  auto router =
      ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  router.status().CheckOK();
  auto builder = DeltaCorpusBuilder::Create(base, router.value()->bounds(), {});
  builder.status().CheckOK();
  ASSERT_EQ(router.value()->ShardForTarget("a1"), 0u);
  ASSERT_EQ(router.value()->ShardForTarget("b1"), 0u);

  auto request = [](const std::string& target, size_t m) {
    SelectRequest r;
    r.target_id = target;
    r.selector = "CompaReSetSGreedy";
    r.options.m = m;
    return r;
  };
  for (const char* target : {"a1", "a2", "b1", "b2"}) {
    auto cold = router.value()->Select(request(target, 1));
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_FALSE(cold.value().cache_hit) << target;
  }

  auto delta = builder.value()->ApplyBatch({StreamRecord("a1", 0, base.catalog())});
  delta.status().CheckOK();
  ASSERT_EQ(delta.value().shards.size(), 1u);
  EXPECT_EQ(delta.value().shards[0].shard_id, 0u);
  // The shard's new snapshot shares every product but a1 with the old.
  std::shared_ptr<const IndexedCorpus> before =
      router.value()->shard_engine(0).corpus();
  const IndexedCorpus& after = *delta.value().shards[0].snapshot;
  EXPECT_NE(after.FindProduct("a1"), before->FindProduct("a1"));
  EXPECT_EQ(after.FindProduct("a2"), before->FindProduct("a2"));
  EXPECT_EQ(after.FindProduct("b1"), before->FindProduct("b1"));
  // The streamed opinion names an aspect the catalog lacked, and an
  // aspect-count change drops everything; this test is about instances.
  ASSERT_EQ(after.num_aspects(), before->num_aspects() + 1);
  router.value()
      ->ApplyShardDelta(0, delta.value().shards[0].snapshot, 1)
      .CheckOK();
  for (const char* target : {"a1", "b1"}) {
    auto rewarmed = router.value()->Select(request(target, 1));
    ASSERT_TRUE(rewarmed.ok()) << rewarmed.status();
    EXPECT_FALSE(rewarmed.value().result_cache_hit) << target;
  }

  // Same catalog size from here on: a second review on a1 changes only
  // cluster a's instances.
  WalRecord known = StreamRecord("a1", 1, base.catalog());
  known.opinions.pop_back();  // Only catalog-known aspects.
  delta = builder.value()->ApplyBatch({known});
  delta.status().CheckOK();
  ASSERT_EQ(delta.value().shards.size(), 1u);
  uint64_t epoch = router.value()->shard_engine(0).corpus_epoch();
  router.value()
      ->ApplyShardDelta(0, std::move(delta.value().shards[0].snapshot), 1)
      .CheckOK();
  EXPECT_EQ(router.value()->shard_engine(0).corpus_epoch(), epoch + 1);

  // b1 was answered at the previous epoch: its memo entry carried.
  auto b1 = router.value()->Select(request("b1", 1));
  ASSERT_TRUE(b1.ok()) << b1.status();
  EXPECT_TRUE(b1.value().result_cache_hit);
  EXPECT_EQ(b1.value().trace.corpus_epoch, epoch + 1);
  // b1 under another m misses the memo but finds its carried vectors.
  auto b1_other = router.value()->Select(request("b1", 2));
  ASSERT_TRUE(b1_other.ok()) << b1_other.status();
  EXPECT_FALSE(b1_other.value().result_cache_hit);
  EXPECT_TRUE(b1_other.value().cache_hit);
  // a1's instance holds the reviewed product: cold.
  auto a1 = router.value()->Select(request("a1", 1));
  ASSERT_TRUE(a1.ok()) << a1.status();
  EXPECT_FALSE(a1.value().result_cache_hit);
  EXPECT_FALSE(a1.value().cache_hit);

  // The publications counted what they kept and dropped: the first
  // dropped all 4 warmed instances' vector and memo entries, the second
  // kept b1's two and dropped a1's two.
  std::string dump = router.value()->DumpMetrics();
  EXPECT_NE(dump.find("counter engine.publish_carried 2\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("counter engine.publish_dropped 10\n"),
            std::string::npos)
      << dump;
}

// A batch with nothing applicable publishes nothing: no shard deltas,
// no epoch movement.
TEST(DeltaBuilderTest, AllUnknownBatchPublishesNothing) {
  Corpus base = MakeSynthetic(60);
  base.Finalize();
  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  auto router = ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  router.status().CheckOK();
  auto builder = DeltaCorpusBuilder::Create(base, router.value()->bounds(), {});
  builder.status().CheckOK();

  auto delta = builder.value()->ApplyBatch(
      {StreamRecord("ghost-1", 0, base.catalog()),
       StreamRecord("ghost-2", 1, base.catalog())});
  delta.status().CheckOK();
  EXPECT_EQ(delta.value().records_applied, 0u);
  EXPECT_EQ(delta.value().records_dropped, 2u);
  EXPECT_TRUE(delta.value().shards.empty());
}

// End-to-end through the IngestDriver: records committed to a WAL file
// are drained into served snapshots, the offset advances, unknown
// products count as drops, and a second drain with no new bytes is a
// no-op.
TEST(IngestDriverTest, DrainsTheWalIntoServedSnapshots) {
  Corpus base = MakeSynthetic(80);
  base.Finalize();
  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  auto router = ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  router.status().CheckOK();

  std::string path = ::testing::TempDir() + "/ingest_driver_test.wal";
  std::remove(path.c_str());

  IngestDriverOptions options;
  options.wal_path = path;
  options.batch_size = 4;
  auto driver = IngestDriver::Create(base, router.value().get(), options);
  driver.status().CheckOK();

  // A drain before the producer exists reports zero work.
  auto empty = driver.value()->DrainOnce();
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty.value().records_applied, 0u);

  // Producer commits 10 records (1 unknown) and syncs.
  std::vector<WalRecord> stream = OracleStream(base, 10);
  {
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (const WalRecord& record : stream) {
      ASSERT_TRUE(writer.value().Append(record).ok());
    }
    ASSERT_TRUE(writer.value().Close().ok());
  }

  auto drained = driver.value()->DrainOnce();
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained.value().records_applied, 9u);
  EXPECT_EQ(drained.value().records_dropped, 1u);
  EXPECT_EQ(drained.value().batches, 3u);  // ceil(10 / 4)
  EXPECT_GT(drained.value().shards_touched, 0u);
  EXPECT_GT(driver.value()->offset(), 0u);

  // The served state equals a full rebuild of base + the stream.
  Corpus rebuilt = base;
  for (const WalRecord& record : stream) {
    Status applied = ApplyWalRecordToCorpus(record, &rebuilt);
    if (!applied.ok()) {
      ASSERT_EQ(applied.code(), StatusCode::kNotFound);
    }
  }
  auto final_full = IndexedCorpus::Build(rebuilt);
  final_full.status().CheckOK();
  auto rebuild_router =
      ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  rebuild_router.status().CheckOK();
  for (size_t s = 0; s < 2; ++s) {
    rebuild_router.value()->SwapShardCorpus(s, final_full.value()).CheckOK();
  }
  for (size_t s = 0; s < 2; ++s) {
    ExpectSameSnapshot(*router.value()->shard_engine(s).corpus(),
                       *rebuild_router.value()->shard_engine(s).corpus(),
                       "shard " + std::to_string(s));
  }

  // Nothing new on disk: the next drain consumes nothing.
  auto again = driver.value()->DrainOnce();
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().records_applied, 0u);
  EXPECT_EQ(again.value().bytes_consumed, 0u);

  IngestDrainStats totals = driver.value()->TotalStats();
  EXPECT_EQ(totals.records_applied, 9u);
  EXPECT_EQ(totals.records_dropped, 1u);
  std::remove(path.c_str());
}

// A corrupt frame in the middle of the log stops every drain at the
// same offset (replay keeps only the committed prefix before it), and
// nothing after it ever applies. The stall is visible: the router
// registry's ingest.wal_pending_bytes gauge stays above 0 while the
// offset does not move.
TEST(IngestDriverTest, CorruptMidLogFrameShowsAsPendingBytes) {
  Corpus base = MakeSynthetic(60);
  base.Finalize();
  auto initial = IndexedCorpus::Build(base);
  initial.status().CheckOK();
  auto router = ShardRouter::Create(initial.value(), 2, SerialRouterOptions());
  router.status().CheckOK();

  std::vector<WalRecord> stream = OracleStream(base, 3);
  std::string log;
  std::vector<size_t> frame_ends;
  for (const WalRecord& record : stream) {
    AppendWalFrame(record, &log);
    frame_ends.push_back(log.size());
  }
  log[frame_ends[0] + 8] ^= 0x5a;  // First payload byte of frame 2.
  std::string path = ::testing::TempDir() + "/ingest_corrupt_test.wal";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(log.data(), static_cast<std::streamsize>(log.size()));
  }

  IngestDriverOptions options;
  options.wal_path = path;
  auto driver = IngestDriver::Create(base, router.value().get(), options);
  driver.status().CheckOK();
  const std::string pending = "gauge ingest.wal_pending_bytes " +
                              std::to_string(log.size() - frame_ends[0]) +
                              "\n";
  for (int drain = 0; drain < 2; ++drain) {
    auto drained = driver.value()->DrainOnce();
    ASSERT_TRUE(drained.ok()) << drained.status();
    EXPECT_EQ(drained.value().records_applied, drain == 0 ? 1u : 0u);
    EXPECT_EQ(driver.value()->offset(), frame_ends[0]);
    std::string dump = router.value()->DumpMetrics();
    EXPECT_NE(dump.find(pending), std::string::npos) << dump;
  }
  std::string exposition = router.value()->RenderPrometheus();
  EXPECT_NE(exposition.find("ingest_wal_pending_bytes"), std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("ingest_records_dropped"), std::string::npos)
      << exposition;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace comparesets
