#include "service/partitioner.h"

#include <algorithm>
#include <utility>

namespace comparesets {

Result<std::vector<std::string>> CorpusPartitioner::ComputeBounds(
    const IndexedCorpus& full, size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const size_t n = full.num_instances();
  if (num_shards > n) {
    return Status::InvalidArgument(
        "cannot split " + std::to_string(n) + " instances across " +
        std::to_string(num_shards) + " shards without an empty shard");
  }

  // Targets are unique (one instance per target), so the sorted list
  // has no duplicates and evenly spaced cut points give strictly
  // increasing bounds.
  std::vector<std::string> targets;
  targets.reserve(n);
  for (const ProblemInstance& instance : full.instances()) {
    targets.push_back(instance.target().id);
  }
  std::sort(targets.begin(), targets.end());

  std::vector<std::string> bounds;
  bounds.reserve(num_shards);
  bounds.emplace_back();  // Shard 0 starts at the bottom of the key space.
  for (size_t s = 1; s < num_shards; ++s) {
    bounds.push_back(targets[s * n / num_shards]);
  }
  return bounds;
}

Result<std::shared_ptr<const IndexedCorpus>> CorpusPartitioner::ExtractShard(
    const IndexedCorpus& full, const std::vector<std::string>& bounds,
    size_t shard_id) {
  const Corpus& corpus = full.corpus();
  std::vector<std::vector<size_t>> instance_items;
  instance_items.reserve(full.num_instances());
  for (const ProblemInstance& instance : full.instances()) {
    std::vector<size_t> items;
    items.reserve(instance.items.size());
    for (const Product* item : instance.items) {
      items.push_back(corpus.IndexOf(item->id));
    }
    instance_items.push_back(std::move(items));
  }
  return ExtractShardFromParts(corpus, instance_items, bounds, shard_id);
}

Result<std::shared_ptr<const IndexedCorpus>>
CorpusPartitioner::ExtractShardFromParts(
    const Corpus& full_corpus,
    const std::vector<std::vector<size_t>>& instance_items,
    const std::vector<std::string>& bounds, size_t shard_id) {
  if (bounds.empty() || !bounds[0].empty()) {
    return Status::InvalidArgument(
        "bounds must be non-empty and start with the empty string");
  }
  if (shard_id >= bounds.size()) {
    return Status::InvalidArgument(
        "shard_id " + std::to_string(shard_id) + " out of range for " +
        std::to_string(bounds.size()) + " shards");
  }
  ShardSpec spec;
  spec.shard_id = shard_id;
  spec.num_shards = bounds.size();
  spec.range.begin = bounds[shard_id];
  spec.range.end =
      shard_id + 1 < bounds.size() ? bounds[shard_id + 1] : std::string();

  // Slice the full corpus's enumeration and mark the product closure in
  // one pass (invariants 1 and 2 from the header).
  const ProductList& products = full_corpus.products();
  std::vector<const std::vector<size_t>*> slice;
  std::vector<bool> in_closure(products.size(), false);
  for (const std::vector<size_t>& items : instance_items) {
    if (items.empty()) continue;
    for (size_t index : items) {
      if (index >= products.size()) {
        return Status::Internal("instance references product position " +
                                std::to_string(index) + " of " +
                                std::to_string(products.size()));
      }
    }
    if (!spec.range.Contains(products[items[0]].id)) continue;
    for (size_t index : items) in_closure[index] = true;
    slice.push_back(&items);
  }

  // Closure products in original corpus order: instance vectors only
  // depend on per-product content, but stable order keeps shard
  // corpora diffable and pointer-layout deterministic.
  std::vector<size_t> closure;
  std::vector<size_t> shard_position(products.size(), Corpus::npos);
  for (size_t p = 0; p < products.size(); ++p) {
    if (!in_closure[p]) continue;
    shard_position[p] = closure.size();
    closure.push_back(p);
  }
  std::vector<std::vector<size_t>> shard_instances;
  shard_instances.reserve(slice.size());
  for (const std::vector<size_t>* items : slice) {
    std::vector<size_t> shard_items;
    shard_items.reserve(items->size());
    for (size_t index : *items) shard_items.push_back(shard_position[index]);
    shard_instances.push_back(std::move(shard_items));
  }
  return IndexedCorpus::BuildFromInstances(
      Corpus::Subset(full_corpus, closure), shard_instances, spec);
}

Result<std::vector<std::shared_ptr<const IndexedCorpus>>>
CorpusPartitioner::Partition(std::shared_ptr<const IndexedCorpus> full,
                             size_t num_shards) {
  if (full == nullptr) {
    return Status::InvalidArgument("Partition requires a corpus");
  }
  if (num_shards == 1) {
    return std::vector<std::shared_ptr<const IndexedCorpus>>{std::move(full)};
  }
  COMPARESETS_ASSIGN_OR_RETURN(std::vector<std::string> bounds,
                               ComputeBounds(*full, num_shards));
  std::vector<std::shared_ptr<const IndexedCorpus>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    COMPARESETS_ASSIGN_OR_RETURN(auto shard, ExtractShard(*full, bounds, s));
    shards.push_back(std::move(shard));
  }
  return shards;
}

}  // namespace comparesets
