// VectorCache: a bounded, thread-safe LRU cache of prepared instance
// contexts. Building InstanceVectors (τ, Γ and the per-review design
// columns) costs O(reviews × dims) per instance — the dominant setup
// cost of a query — so repeated queries against the same catalog should
// pay it once, not per request.
//
// Entries are immutable PreparedInstance bundles held by shared_ptr:
// a lookup hands out shared ownership, so an entry evicted (or dropped
// by a catalog publication) while a request is still computing on it
// stays alive until that request finishes. A bundle owns the products
// it was built from, not the snapshot, so an entry carried across
// publications (SelectionEngine::Publish) keeps only those alive.
//
// Concurrency contract (docs/execution-model.md): the cache itself is
// mutex-guarded, and a handed-out bundle is safe for any number of
// concurrent readers — including the lanes of one request's
// intra-request fan-out. The only mutations behind a bundle are two
// lazy memos, each behind its own lock: the per-item design blocks
// (ItemBlockCache), pure functions of the immutable vectors, so racing
// lanes at worst build the same blocks twice and keep one; and the
// alignment documents (AlignmentDocumentMemo), built once per review
// under the memo's lock. Results are unaffected either way.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "eval/alignment.h"
#include "opinion/vectors.h"
#include "service/lru_map.h"

namespace comparesets {

/// One cached, fully prepared problem instance. The bundle owns every
/// layer a selector needs: the instance's products (shared with the
/// snapshots that hold them, and immutable while shared), the instance
/// (whose Product pointers reach into them), the derived vectors (whose
/// `instance` pointer reaches into this same bundle, and whose
/// block_cache holds the λ/μ-free per-item design blocks), and the
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
  /// instance, the vectors and the alignment memo to it.
  static std::shared_ptr<const PreparedInstance> Create(
      std::vector<std::shared_ptr<const Product>> products,
      const OpinionModel& model);
};

/// Monotonic counters exposed by the cache (snapshot semantics).
struct VectorCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  /// Sum of cached footprints: InstanceVectors plus the built item
  /// blocks and alignment documents.
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
