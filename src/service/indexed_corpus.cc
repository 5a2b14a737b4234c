#include "service/indexed_corpus.h"

namespace comparesets {

std::string ShardKeyRange::ToString() const {
  std::string out = "[";
  out += begin.empty() ? "-inf" : begin;
  out += ", ";
  out += end.empty() ? "+inf" : end;
  out += ")";
  return out;
}

Result<std::shared_ptr<const IndexedCorpus>> IndexedCorpus::Build(
    Corpus corpus, const InstanceOptions& options) {
  std::shared_ptr<IndexedCorpus> indexed(new IndexedCorpus());
  indexed->corpus_ = std::move(corpus);
  if (!indexed->corpus_.finalized()) indexed->corpus_.Finalize();

  // Instances are enumerated after the corpus settled into its final
  // home, so their Product pointers stay valid for our lifetime.
  indexed->instances_ = indexed->corpus_.BuildInstances(options);
  if (indexed->instances_.empty()) {
    return Status::InvalidArgument(
        "corpus yields no problem instances (too few linked products?)");
  }
  std::vector<size_t> targets;
  targets.reserve(indexed->instances_.size());
  for (const ProblemInstance& instance : indexed->instances_) {
    targets.push_back(indexed->corpus_.IndexOf(instance.target().id));
  }
  indexed->IndexTargets(targets);
  return std::shared_ptr<const IndexedCorpus>(std::move(indexed));
}

Result<std::shared_ptr<const IndexedCorpus>> IndexedCorpus::BuildFromInstances(
    Corpus corpus, const std::vector<std::vector<size_t>>& instance_items,
    const ShardSpec& shard) {
  std::shared_ptr<IndexedCorpus> indexed(new IndexedCorpus());
  indexed->corpus_ = std::move(corpus);
  if (!indexed->corpus_.finalized()) indexed->corpus_.Finalize();
  indexed->shard_ = shard;

  // Re-point each position at this corpus's products; the enumeration
  // itself (which targets, which comparatives, in what order) was fixed
  // by the caller and is reproduced verbatim.
  const ProductList& products = indexed->corpus_.products();
  std::vector<size_t> targets;
  for (const std::vector<size_t>& items : instance_items) {
    if (items.empty()) continue;
    targets.push_back(items[0]);
    ProblemInstance instance;
    instance.items.reserve(items.size());
    for (size_t index : items) {
      if (index >= products.size()) {
        return Status::Internal("instance references product position " +
                                std::to_string(index) + " of " +
                                std::to_string(products.size()));
      }
      instance.items.push_back(&products[index]);
    }
    indexed->instances_.push_back(std::move(instance));
  }
  if (indexed->instances_.empty()) {
    return Status::InvalidArgument("shard " + shard.range.ToString() +
                                   " holds no instances");
  }
  indexed->IndexTargets(targets);
  return std::shared_ptr<const IndexedCorpus>(std::move(indexed));
}

void IndexedCorpus::IndexTargets(const std::vector<size_t>& target_positions) {
  instance_of_.assign(corpus_.num_products(), Corpus::npos);
  for (size_t i = 0; i < target_positions.size(); ++i) {
    size_t& slot = instance_of_[target_positions[i]];
    if (slot == Corpus::npos) slot = i;
  }
}

const ProblemInstance* IndexedCorpus::FindInstance(
    const std::string& target_id) const {
  size_t position = corpus_.IndexOf(target_id);
  if (position == Corpus::npos || instance_of_[position] == Corpus::npos) {
    return nullptr;
  }
  return &instances_[instance_of_[position]];
}

}  // namespace comparesets
