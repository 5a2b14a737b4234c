#include "opinion/vectors.h"

#include "util/logging.h"

namespace comparesets {

Vector InstanceVectors::OpinionOf(size_t item, const Selection& selection) const {
  COMPARESETS_CHECK(item < num_items()) << "item index out of range";
  return model.OpinionVector(SelectReviews(*instance->items[item], selection));
}

Vector InstanceVectors::AspectOf(size_t item, const Selection& selection) const {
  COMPARESETS_CHECK(item < num_items()) << "item index out of range";
  return model.AspectVector(SelectReviews(*instance->items[item], selection));
}

std::shared_ptr<const ItemBlocks> ItemBlockCache::Find(size_t item) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return item < items_.size() ? items_[item] : nullptr;
}

std::shared_ptr<const ItemBlocks> ItemBlockCache::Insert(
    size_t item, std::shared_ptr<const ItemBlocks> blocks,
    size_t bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (item >= items_.size()) items_.resize(item + 1);
  if (items_[item] == nullptr) {
    items_[item] = std::move(blocks);
    bytes_ += bytes;
  }
  return items_[item];
}

size_t ItemBlockCache::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t InstanceVectors::ApproxMemoryBytes() const {
  size_t doubles = gamma.size();
  for (const Vector& t : tau) doubles += t.size();
  for (const auto& item : opinion_columns) {
    for (const Vector& column : item) doubles += column.size();
  }
  for (const auto& item : aspect_columns) {
    for (const Vector& column : item) doubles += column.size();
  }
  return doubles * sizeof(double);
}

InstanceVectors BuildInstanceVectors(const OpinionModel& model,
                                     const ProblemInstance& instance) {
  InstanceVectors out{model, &instance, {}, {}, {}, {}};
  size_t n = instance.num_items();
  out.tau.reserve(n);
  out.opinion_columns.resize(n);
  out.aspect_columns.resize(n);

  for (size_t i = 0; i < n; ++i) {
    const Product& product = *instance.items[i];
    ReviewSet all = AllReviews(product);
    out.tau.push_back(model.OpinionVector(all));
    if (i == 0) out.gamma = model.AspectVector(all);

    out.opinion_columns[i].reserve(product.reviews.size());
    out.aspect_columns[i].reserve(product.reviews.size());
    for (const Review& review : product.reviews) {
      out.opinion_columns[i].push_back(model.ReviewOpinionColumn(review));
      out.aspect_columns[i].push_back(model.ReviewAspectColumn(review));
    }
  }
  return out;
}

}  // namespace comparesets
