#include "service/vector_cache.h"

#include <algorithm>

namespace comparesets {

std::shared_ptr<const PreparedInstance> PreparedInstance::Create(
    std::shared_ptr<const IndexedCorpus> corpus, ProblemInstance instance,
    const OpinionModel& model) {
  // Wire in two steps: the bundle's own `instance` must be at its final
  // address before BuildInstanceVectors and the alignment memo capture
  // pointers to it.
  auto bundle = std::make_shared<PreparedInstance>(PreparedInstance{
      std::move(corpus), std::move(instance),
      InstanceVectors{model, nullptr, {}, {}, {}, {}}, nullptr});
  bundle->vectors = BuildInstanceVectors(model, bundle->instance);
  bundle->alignment_docs =
      std::make_unique<AlignmentDocumentMemo>(bundle->instance);
  return bundle;
}

VectorCache::VectorCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::shared_ptr<const PreparedInstance> VectorCache::Get(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // Promote to MRU.
  return it->second->value;
}

void VectorCache::Put(const std::string& key,
                      std::shared_ptr<const PreparedInstance> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_.emplace(key, lru_.begin());
}

void VectorCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  index_.clear();
  lru_.clear();
}

size_t VectorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

VectorCacheStats VectorCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  VectorCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  for (const Entry& entry : lru_) {
    const PreparedInstance& bundle = *entry.value;
    stats.approx_bytes += bundle.vectors.ApproxMemoryBytes() +
                          bundle.vectors.block_cache->ApproxMemoryBytes() +
                          bundle.alignment_docs->ApproxMemoryBytes();
  }
  return stats;
}

}  // namespace comparesets
