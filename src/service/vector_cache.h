// VectorCache: a bounded, thread-safe LRU cache of prepared instance
// contexts, over an ItemVectorStore of per-product vectors. Building an
// instance's vectors (τ, Γ, the per-review design columns and the
// per-item design blocks) costs O(reviews × dims) — the dominant setup
// cost of a query — so repeated queries against the same catalog should
// pay it once, not per request; and since all of it but the target
// terms depends on the product alone, an instance that shares products
// with one prepared before pays only for the products it adds.
//
// Entries are immutable PreparedInstance bundles held by shared_ptr:
// a lookup hands out shared ownership, so an entry evicted (or dropped
// by a catalog publication) while a request is still computing on it
// stays alive until that request finishes. A bundle owns the products
// it was built from, not the snapshot, so an entry carried across
// publications (SelectionEngine::Publish) keeps only those alive. A
// bundle's own part is thin — the instance, Γ and a(r)ᵀΓ per review,
// and the alignment memo; its per-item vectors are shared with the
// store and with every other bundle holding the same product.
//
// Concurrency contract (docs/execution-model.md): the cache and the
// store are each mutex-guarded, and a handed-out bundle is safe for any
// number of concurrent readers — including the lanes of one request's
// intra-request fan-out and requests on other instances sharing its
// items. The only mutations behind a bundle are two lazy memos, each
// behind its own lock: each item's design blocks (ItemBlockSlot), pure
// functions of the immutable item vectors, so racing builders at worst
// build the same blocks twice and keep one; and the alignment documents
// (AlignmentDocumentMemo), built once per review under the memo's lock.
// Results are unaffected either way.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/corpus.h"
#include "eval/alignment.h"
#include "opinion/vectors.h"
#include "service/lru_map.h"

namespace comparesets {

/// Per-product ItemVectors, shared by every instance an engine prepares
/// that holds the same product object. Keyed by product identity, the
/// opinion definition and the aspect count. Each entry pins its product
/// (shared ownership), so no other product can take its address while
/// the entry exists: an entry only ever serves the product it was built
/// from.
///
/// Lifetime: SelectionEngine::Publish retains the entries whose product
/// the new snapshot still holds and drops the rest (Retain). Entries
/// that no prepared bundle or running request references are idle; they
/// let a dropped instance rebuild only its changed items when no other
/// bundle holds the rest. Entries a bundle references are bounded by the
/// bundles themselves; idle ones by `idle_capacity` (at least 1). Once
/// inserts take the map `idle_capacity` entries past its size after the
/// last eviction or Retain, the least recently used idle entries are
/// evicted down to `idle_capacity`: the O(entries) scan is paid once per
/// `idle_capacity` inserts, and at most 2 × `idle_capacity` idle entries
/// are kept between scans (plus those whose last bundle dropped since).
class ItemVectorStore {
 public:
  explicit ItemVectorStore(size_t idle_capacity);

  /// `product`'s vectors under `model`: the stored entry, or built (out
  /// of the lock) and stored on a miss. Sets *built accordingly; a
  /// racing build of the same product keeps the first stored entry.
  std::shared_ptr<const ItemVectors> GetOrBuild(
      const std::shared_ptr<const Product>& product, const OpinionModel& model,
      bool* built);

  /// Drops every entry whose product `live` rejects (it also gets the
  /// entry's aspect count). Returns how many were dropped.
  size_t Retain(
      const std::function<bool(const Product&, size_t num_aspects)>& live);

  size_t size() const;
  /// Footprint of the idle entries (those a bundle holds are counted by
  /// VectorCache::Stats).
  size_t IdleBytes() const;

 private:
  struct Key {
    const Product* product;
    OpinionDefinition definition;
    size_t num_aspects;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    std::shared_ptr<const Product> product;
    std::shared_ptr<const ItemVectors> vectors;
    uint64_t last_used = 0;
  };
  /// Whether only the store holds `entry`'s vectors.
  static bool Idle(const Entry& entry) {
    return entry.vectors.use_count() == 1;
  }
  /// Once the map reaches evict_at_, evicts the least recently used
  /// idle entries beyond idle_capacity_ and moves evict_at_ on.
  void EvictIdleLocked();

  const size_t idle_capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  uint64_t clock_ = 0;
  /// Map size at which the next insert scans for idle entries.
  size_t evict_at_;
};

/// One cached, fully prepared problem instance. The bundle owns every
/// layer a selector needs: the instance's products (shared with the
/// snapshots that hold them, and immutable while shared), the instance
/// (whose Product pointers reach into them), the derived vectors (whose
/// `instance` pointer reaches into this same bundle, and whose items —
/// shared per product — carry the λ/μ-free design blocks), and the
/// interned alignment documents. Never moved after wiring — always
/// heap-allocated behind shared_ptr.
struct PreparedInstance {
  std::vector<std::shared_ptr<const Product>> products;
  ProblemInstance instance;
  InstanceVectors vectors;
  /// Per-review interned documents; the engine scores alignment from it.
  /// Heap-held so the bundle stays movable while the mutex stays put.
  std::unique_ptr<AlignmentDocumentMemo> alignment_docs;

  /// Allocates a bundle over `products` (target first) and wires the
  /// instance, the vectors and the alignment memo to it. Item vectors
  /// come from `store`; adds how many it built to *items_built when
  /// given.
  static std::shared_ptr<const PreparedInstance> Create(
      std::vector<std::shared_ptr<const Product>> products,
      const OpinionModel& model, ItemVectorStore& store,
      size_t* items_built = nullptr);
};

/// Monotonic counters exposed by the cache (snapshot semantics).
struct VectorCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  /// Cached footprint: each bundle's own part (instance vectors and
  /// alignment documents) plus every item vector and its blocks, counted
  /// once however many bundles share it.
  size_t approx_bytes = 0;
};

class VectorCache {
 public:
  /// A cache that holds at most `capacity` entries (>= 1).
  explicit VectorCache(size_t capacity);

  /// Returns the entry for `key` and marks it most-recently-used;
  /// nullptr on miss. Every call counts as exactly one hit or miss.
  std::shared_ptr<const PreparedInstance> Get(const std::string& key);

  /// Inserts (or replaces) the entry for `key`, evicting the least-
  /// recently-used entry when at capacity. Not counted as a hit/miss.
  void Put(const std::string& key,
           std::shared_ptr<const PreparedInstance> value);

  /// Catalog publication: moves each entry to the key `rekey` maps its
  /// key to and drops those it maps to "" (LruMap::Rekey). Counters are
  /// retained.
  RekeyCounts Rekey(
      const std::function<std::string(const std::string&)>& rekey);

  size_t capacity() const { return entries_.capacity(); }
  size_t size() const;
  VectorCacheStats Stats() const;

 private:
  mutable std::mutex mutex_;
  LruMap<std::shared_ptr<const PreparedInstance>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace comparesets
