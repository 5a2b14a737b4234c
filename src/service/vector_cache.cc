#include "service/vector_cache.h"

#include <algorithm>

namespace comparesets {

std::shared_ptr<const PreparedInstance> PreparedInstance::Create(
    std::vector<std::shared_ptr<const Product>> products,
    const OpinionModel& model) {
  ProblemInstance instance;
  instance.items.reserve(products.size());
  for (const auto& product : products) instance.items.push_back(product.get());
  // Wire in two steps: the bundle's own `instance` must be at its final
  // address before BuildInstanceVectors and the alignment memo capture
  // pointers to it.
  auto bundle = std::make_shared<PreparedInstance>(PreparedInstance{
      std::move(products), std::move(instance),
      InstanceVectors{model, nullptr, {}, {}, {}, {}}, nullptr});
  bundle->vectors = BuildInstanceVectors(model, bundle->instance);
  bundle->alignment_docs =
      std::make_unique<AlignmentDocumentMemo>(bundle->instance);
  return bundle;
}

VectorCache::VectorCache(size_t capacity)
    : entries_(std::max<size_t>(1, capacity)) {}

std::shared_ptr<const PreparedInstance> VectorCache::Get(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<const PreparedInstance>* found = entries_.Find(key);
  if (found == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return *found;
}

void VectorCache::Put(const std::string& key,
                      std::shared_ptr<const PreparedInstance> value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.Put(key, std::move(value))) ++evictions_;
}

RekeyCounts VectorCache::Rekey(
    const std::function<std::string(const std::string&)>& rekey) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.Rekey(
      [&](const std::string& key, const std::shared_ptr<const PreparedInstance>&) {
        return rekey(key);
      });
}

size_t VectorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

VectorCacheStats VectorCache::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  VectorCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  entries_.ForEach([&](const std::string&,
                       const std::shared_ptr<const PreparedInstance>& bundle) {
    stats.approx_bytes += bundle->vectors.ApproxMemoryBytes() +
                          bundle->vectors.block_cache->ApproxMemoryBytes() +
                          bundle->alignment_docs->ApproxMemoryBytes();
  });
  return stats;
}

}  // namespace comparesets
