// VectorCache: a bounded, thread-safe LRU cache of prepared instance
// contexts. Building InstanceVectors (τ, Γ and the per-review design
// columns) costs O(reviews × dims) per instance — the dominant setup
// cost of a query — so repeated queries against the same catalog should
// pay it once, not per request.
//
// Entries are immutable PreparedInstance bundles held by shared_ptr:
// a lookup hands out shared ownership, so an entry evicted (or
// invalidated by a catalog swap) while a request is still computing on
// it stays alive until that request finishes.
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
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "eval/alignment.h"
#include "opinion/vectors.h"
#include "service/indexed_corpus.h"

namespace comparesets {

/// One cached, fully prepared problem instance. The bundle owns every
/// layer a selector needs: the corpus snapshot (kept alive across
/// catalog swaps), the instance (whose Product pointers reach into the
/// snapshot), the derived vectors (whose `instance` pointer reaches
/// into this same bundle, and whose block_cache holds the λ/μ-free
/// per-item design blocks), and the interned alignment documents.
/// Never moved after wiring — always heap-allocated behind shared_ptr.
struct PreparedInstance {
  std::shared_ptr<const IndexedCorpus> corpus;
  ProblemInstance instance;
  InstanceVectors vectors;
  /// Per-review interned documents; the engine scores alignment from it.
  /// Heap-held so the bundle stays movable while the mutex stays put.
  std::unique_ptr<AlignmentDocumentMemo> alignment_docs;

  /// Allocates a bundle and wires vectors.instance and the alignment
  /// memo to the owned instance.
  static std::shared_ptr<const PreparedInstance> Create(
      std::shared_ptr<const IndexedCorpus> corpus, ProblemInstance instance,
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

  /// Drops every entry (catalog swap). Counters are retained.
  void Clear();

  size_t capacity() const { return capacity_; }
  size_t size() const;
  VectorCacheStats Stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const PreparedInstance> value;
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace comparesets
