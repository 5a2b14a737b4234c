#include "service/vector_cache.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace comparesets {

size_t ItemVectorStore::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<const Product*>()(key.product);
  h ^= std::hash<size_t>()(key.num_aspects) + 0x9e3779b97f4a7c15ull +
       (h << 6) + (h >> 2);
  return h ^ (static_cast<size_t>(key.definition) << 1);
}

ItemVectorStore::ItemVectorStore(size_t idle_capacity)
    : idle_capacity_(std::max<size_t>(1, idle_capacity)),
      evict_at_(idle_capacity_ + 1) {}

std::shared_ptr<const ItemVectors> ItemVectorStore::GetOrBuild(
    const std::shared_ptr<const Product>& product, const OpinionModel& model,
    bool* built) {
  const Key key{product.get(), model.definition(), model.num_aspects()};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.last_used = ++clock_;
      *built = false;
      return it->second.vectors;
    }
  }
  // Build outside the lock: item vectors are deterministic, so a racing
  // duplicate build yields an identical value and the first insert wins.
  *built = true;
  std::shared_ptr<const ItemVectors> vectors =
      BuildItemVectors(model, *product);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      entries_.try_emplace(key, Entry{product, std::move(vectors), 0});
  it->second.last_used = ++clock_;
  std::shared_ptr<const ItemVectors> stored = it->second.vectors;
  if (inserted) EvictIdleLocked();
  return stored;
}

void ItemVectorStore::EvictIdleLocked() {
  if (entries_.size() < evict_at_) return;
  std::vector<std::pair<uint64_t, Key>> idle;
  for (const auto& [key, entry] : entries_) {
    if (Idle(entry)) idle.emplace_back(entry.last_used, key);
  }
  if (idle.size() > idle_capacity_) {
    size_t excess = idle.size() - idle_capacity_;
    std::nth_element(
        idle.begin(), idle.begin() + (excess - 1), idle.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < excess; ++i) entries_.erase(idle[i].second);
  }
  // Entries that live bundles hold do not count against the bound and
  // may be many times idle_capacity_, so scanning on every insert past
  // it would cost O(entries) per insert; waiting for idle_capacity_ more
  // spreads each scan over that many inserts.
  evict_at_ = entries_.size() + idle_capacity_;
}

size_t ItemVectorStore::Retain(
    const std::function<bool(const Product&, size_t num_aspects)>& live) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t dropped = std::erase_if(entries_, [&](const auto& item) {
    return !live(*item.second.product, item.first.num_aspects);
  });
  // The next scan still comes at most idle_capacity_ inserts from now.
  evict_at_ = std::min(evict_at_, entries_.size() + idle_capacity_);
  return dropped;
}

size_t ItemVectorStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t ItemVectorStore::IdleBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    if (Idle(entry)) bytes += entry.vectors->ApproxMemoryBytes();
  }
  return bytes;
}

std::shared_ptr<const PreparedInstance> PreparedInstance::Create(
    std::vector<std::shared_ptr<const Product>> products,
    const OpinionModel& model, ItemVectorStore& store, size_t* items_built) {
  ProblemInstance instance;
  instance.items.reserve(products.size());
  for (const auto& product : products) instance.items.push_back(product.get());
  std::vector<std::shared_ptr<const ItemVectors>> items;
  items.reserve(products.size());
  for (const auto& product : products) {
    bool built = false;
    items.push_back(store.GetOrBuild(product, model, &built));
    if (built && items_built != nullptr) ++*items_built;
  }
  // Wire in two steps: the bundle's own `instance` must be at its final
  // address before the vectors and the alignment memo capture pointers
  // to it.
  auto bundle = std::make_shared<PreparedInstance>(PreparedInstance{
      std::move(products), std::move(instance),
      InstanceVectors{model, nullptr, {}, {}, 0.0, {}, {}},
      nullptr});
  bundle->vectors =
      AssembleInstanceVectors(model, bundle->instance, std::move(items));
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
  std::unordered_set<const ItemVectors*> counted;
  entries_.ForEach([&](const std::string&,
                       const std::shared_ptr<const PreparedInstance>& bundle) {
    stats.approx_bytes += bundle->vectors.ApproxMemoryBytes() +
                          bundle->alignment_docs->ApproxMemoryBytes();
    for (const auto& item : bundle->vectors.items) {
      if (counted.insert(item.get()).second) {
        stats.approx_bytes += item->ApproxMemoryBytes();
      }
    }
  });
  return stats;
}

}  // namespace comparesets
