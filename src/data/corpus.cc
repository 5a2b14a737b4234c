#include "data/corpus.h"

#include <unordered_set>

#include "util/logging.h"

namespace comparesets {

namespace {

/// Whether `owner` is the only reference to its object. use_count()
/// alone is a relaxed read, which would not order this thread after
/// another owner's last access before it let go; taking a reference
/// first does, because the count's increment is an acquire-release
/// read-modify-write on the counter that owner's release decremented.
template <typename T>
bool SoleOwner(const std::shared_ptr<T>& owner) {
  std::shared_ptr<T> probe = owner;
  return probe.use_count() == 2;
}

}  // namespace

Status Corpus::AddProduct(Product product) {
  COMPARESETS_CHECK(!finalized_) << "AddProduct after Finalize()";
  if (index_->count(product.id) != 0) {
    return Status::AlreadyExists("duplicate product id: " + product.id);
  }
  if (!SoleOwner(index_)) index_ = std::make_shared<Index>(*index_);
  index_->emplace(product.id, products_.size());
  products_.slots_.push_back(std::make_shared<Product>(std::move(product)));
  return Status::OK();
}

Corpus Corpus::Subset(const Corpus& source,
                      const std::vector<size_t>& indices) {
  Corpus subset(source.name_);
  subset.catalog_ = source.catalog_;
  subset.index_ = source.index_;
  std::vector<size_t> here(source.products_.size(), npos);
  subset.products_.slots_.reserve(indices.size());
  for (size_t index : indices) {
    COMPARESETS_CHECK(index < source.products_.size())
        << "product index out of range";
    here[index] = subset.products_.size();
    subset.products_.slots_.push_back(source.products_.slots_[index]);
  }
  // Index positions -> source positions -> subset positions (the
  // source may itself be a subset).
  const size_t indexed = source.positions_ ? source.positions_->size()
                                           : source.products_.size();
  auto positions = std::make_shared<std::vector<size_t>>(indexed, npos);
  for (size_t i = 0; i < indexed; ++i) {
    size_t at_source = source.positions_ ? (*source.positions_)[i] : i;
    if (at_source != npos) (*positions)[i] = here[at_source];
  }
  subset.positions_ = std::move(positions);
  subset.finalized_ = true;
  return subset;
}

void Corpus::Finalize() {
  // The id index is maintained incrementally by AddProduct; finalizing
  // closes the corpus to new products.
  finalized_ = true;
}

size_t Corpus::num_reviews() const {
  size_t total = 0;
  for (const Product& p : products_) total += p.reviews.size();
  return total;
}

size_t Corpus::num_reviewers() const {
  std::unordered_set<std::string> reviewers;
  for (const Product& p : products_) {
    for (const Review& r : p.reviews) {
      if (!r.reviewer_id.empty()) reviewers.insert(r.reviewer_id);
    }
  }
  return reviewers.size();
}

const Product* Corpus::Find(const std::string& product_id) const {
  size_t index = IndexOf(product_id);
  return index == npos ? nullptr : &products_[index];
}

size_t Corpus::IndexOf(const std::string& product_id) const {
  COMPARESETS_CHECK(finalized_) << "lookup before Finalize()";
  auto it = index_->find(product_id);
  if (it == index_->end()) return npos;
  return positions_ ? (*positions_)[it->second] : it->second;
}

std::shared_ptr<const Product> Corpus::FindShared(
    const std::string& product_id) const {
  size_t index = IndexOf(product_id);
  if (index == npos) return nullptr;
  return products_.slots_[index];
}

Product* Corpus::MutableProduct(size_t index) {
  COMPARESETS_CHECK(index < products_.size()) << "product index out of range";
  ProductList::Slot& slot = products_.slots_[index];
  if (!SoleOwner(slot)) slot = std::make_shared<Product>(*slot);
  return slot.get();
}

std::vector<ProblemInstance> Corpus::BuildInstances(
    const InstanceOptions& options) const {
  COMPARESETS_CHECK(finalized_) << "BuildInstances before Finalize()";
  std::vector<ProblemInstance> instances;
  for (const Product& target : products_) {
    if (target.reviews.size() < options.min_reviews_per_item) continue;
    ProblemInstance instance;
    instance.items.push_back(&target);
    for (const std::string& other_id : target.also_bought) {
      if (options.max_comparative_items > 0 &&
          instance.items.size() - 1 >= options.max_comparative_items) {
        break;
      }
      const Product* other = Find(other_id);
      if (other == nullptr || other == &target) continue;
      if (other->reviews.size() < options.min_reviews_per_item) continue;
      instance.items.push_back(other);
    }
    if (instance.items.size() - 1 < options.min_comparative_items) continue;
    instances.push_back(std::move(instance));
  }
  return instances;
}

}  // namespace comparesets
