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

std::shared_ptr<const ItemBlocks> ItemBlockSlot::Find() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blocks_;
}

std::shared_ptr<const ItemBlocks> ItemBlockSlot::Insert(
    std::shared_ptr<const ItemBlocks> blocks, size_t bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (blocks_ == nullptr) {
    blocks_ = std::move(blocks);
    bytes_ = bytes;
  }
  return blocks_;
}

size_t ItemBlockSlot::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t ItemVectors::ApproxMemoryBytes() const {
  size_t doubles =
      tau.size() + opinion_columns.size() + aspect_columns.size();
  return doubles * sizeof(double) + blocks.ApproxMemoryBytes();
}

std::shared_ptr<const ItemVectors> BuildItemVectors(const OpinionModel& model,
                                                    const Product& product) {
  auto out = std::make_shared<ItemVectors>();
  out->reviews = product.reviews.size();
  out->opinion_dims = model.opinion_dims();
  out->aspect_dims = model.num_aspects();
  out->tau = model.OpinionVector(AllReviews(product));
  out->opinion_columns.assign(out->reviews * out->opinion_dims, 0.0);
  out->aspect_columns.assign(out->reviews * out->aspect_dims, 0.0);
  for (size_t j = 0; j < out->reviews; ++j) {
    model.WriteReviewOpinionColumn(
        product.reviews[j],
        {out->opinion_columns.data() + j * out->opinion_dims,
         out->opinion_dims});
    model.WriteReviewAspectColumn(
        product.reviews[j],
        {out->aspect_columns.data() + j * out->aspect_dims, out->aspect_dims});
  }
  return out;
}

size_t InstanceVectors::ApproxMemoryBytes() const {
  return (gamma.size() + aspect_dots.size()) * sizeof(double) +
         (items.size() * sizeof(items[0])) +
         aspect_dot_begin.size() * sizeof(size_t);
}

InstanceVectors AssembleInstanceVectors(
    const OpinionModel& model, const ProblemInstance& instance,
    std::vector<std::shared_ptr<const ItemVectors>> items) {
  size_t n = instance.num_items();
  COMPARESETS_CHECK(items.size() == n) << "one item vector per item";
  InstanceVectors out{model, &instance, std::move(items), {}, 0.0, {}, {}};
  out.gamma = model.AspectVector(AllReviews(instance.target()));
  for (size_t r = 0; r < out.gamma.size(); ++r) {
    out.gamma_norm2 += out.gamma[r] * out.gamma[r];
  }
  out.aspect_dot_begin.resize(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    out.aspect_dot_begin[i + 1] =
        out.aspect_dot_begin[i] + out.items[i]->reviews;
  }
  // a(r)ᵀΓ over the rows where a(r) = 1, ascending: the order the design
  // blocks summed Γ in, so assembled systems keep their bits.
  out.aspect_dots.resize(out.aspect_dot_begin[n]);
  for (size_t i = 0; i < n; ++i) {
    const ItemVectors& item = *out.items[i];
    COMPARESETS_CHECK(item.reviews == out.num_reviews(i) &&
                      item.aspect_dims == out.gamma.size())
        << "item vectors do not match the instance";
    double* dots = out.aspect_dots.data() + out.aspect_dot_begin[i];
    for (size_t j = 0; j < item.reviews; ++j) {
      std::span<const double> a = item.AspectColumn(j);
      double dot = 0.0;
      for (size_t r = 0; r < a.size(); ++r) {
        if (a[r] != 0.0) dot += out.gamma[r];
      }
      dots[j] = dot;
    }
  }
  return out;
}

InstanceVectors BuildInstanceVectors(const OpinionModel& model,
                                     const ProblemInstance& instance) {
  std::vector<std::shared_ptr<const ItemVectors>> items;
  items.reserve(instance.num_items());
  for (const Product* product : instance.items) {
    items.push_back(BuildItemVectors(model, *product));
  }
  return AssembleInstanceVectors(model, instance, std::move(items));
}

}  // namespace comparesets
