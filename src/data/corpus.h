// Corpus: a product category's products + aspect catalog, and the
// machinery to enumerate problem instances (one per target item, as in
// §4.1.1 — each target with its also-bought comparatives is an
// independent instance).
//
// Products are copy-on-write: a corpus holds each one by shared_ptr,
// copies of the corpus (and the snapshots built from it) share them,
// and MutableProduct copies a product only when another holder shares
// it. A corpus copy, a shard extraction and the destruction of an old
// snapshot therefore cost pointers, not reviews, while every copy still
// behaves as an independent value.

#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/catalog.h"
#include "data/review.h"
#include "util/status.h"

namespace comparesets {

/// One CompaReSetS problem instance: items[0] is the target p1, the rest
/// are the comparative items p2..pn. Pointers reference Corpus storage
/// and remain valid for the corpus lifetime, unless a product is edited
/// while another corpus shares it (MutableProduct then gives this
/// corpus a fresh copy).
struct ProblemInstance {
  std::vector<const Product*> items;

  const Product& target() const { return *items[0]; }
  size_t num_items() const { return items.size(); }
};

/// Controls which also-bought candidates form instances.
struct InstanceOptions {
  /// Items (target or comparative) with fewer reviews are skipped.
  size_t min_reviews_per_item = 2;
  /// Instances with fewer than this many comparative items are skipped.
  size_t min_comparative_items = 2;
  /// Cap on comparative items per instance (0 = no cap).
  size_t max_comparative_items = 0;
};

/// A corpus's products, read-only: indexes and iterates as
/// `const Product&`, like the std::vector<Product> it replaced.
class ProductList {
 public:
  using Slot = std::shared_ptr<Product>;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Product;
    using difference_type = std::ptrdiff_t;
    using pointer = const Product*;
    using reference = const Product&;

    const_iterator() = default;
    explicit const_iterator(std::vector<Slot>::const_iterator it) : it_(it) {}
    const Product& operator*() const { return **it_; }
    const Product* operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++it_;
      return before;
    }
    bool operator==(const const_iterator& other) const = default;

   private:
    std::vector<Slot>::const_iterator it_;
  };

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  const Product& operator[](size_t index) const { return *slots_[index]; }
  const_iterator begin() const { return const_iterator(slots_.begin()); }
  const_iterator end() const { return const_iterator(slots_.end()); }

 private:
  friend class Corpus;
  std::vector<Slot> slots_;
};

class Corpus {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  Corpus() = default;
  explicit Corpus(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  AspectCatalog& catalog() { return catalog_; }
  const AspectCatalog& catalog() const { return catalog_; }

  /// Number of aspects z.
  size_t num_aspects() const { return catalog_.size(); }

  /// Adds a product; ids must be unique. Call before Finalize() only.
  Status AddProduct(Product product);

  /// A finalized corpus with `source`'s name and catalog and the
  /// products at `indices` (in that order), shared, not copied. The id
  /// index is shared too, so no id string is copied.
  static Corpus Subset(const Corpus& source, const std::vector<size_t>& indices);

  /// Freezes product storage (pointers stay valid afterwards) and builds
  /// the id index. Must be called before Find/BuildInstances.
  void Finalize();

  /// Whether Finalize() has been called (and AddProduct is thus closed).
  bool finalized() const { return finalized_; }

  const ProductList& products() const { return products_; }
  size_t num_products() const { return products_.size(); }

  /// Total reviews across all products.
  size_t num_reviews() const;

  /// Distinct reviewer ids across all reviews.
  size_t num_reviewers() const;

  /// Lookup by product id; nullptr when absent. Requires Finalize().
  const Product* Find(const std::string& product_id) const;

  /// Position of `product_id` in products(); npos when absent. Requires
  /// Finalize().
  size_t IndexOf(const std::string& product_id) const;

  /// Find() with shared ownership (nullptr when absent): what lets a
  /// cached entry keep the products it was built from alive without
  /// pinning the whole corpus.
  std::shared_ptr<const Product> FindShared(const std::string& product_id) const;

  /// Mutable access for edits (e.g. attaching annotation sidecars,
  /// appending streamed reviews). A product another corpus or snapshot
  /// shares is copied first, so the edit never reaches them; an
  /// unshared one is edited in place, so Find() pointers stay valid.
  /// The pointer is good for edits until this corpus is next copied.
  Product* MutableProduct(size_t index);

  /// Builds one instance per eligible target product from the also-bought
  /// metadata. Requires Finalize().
  std::vector<ProblemInstance> BuildInstances(
      const InstanceOptions& options = {}) const;

 private:
  using Index = std::unordered_map<std::string, size_t>;

  std::string name_;
  AspectCatalog catalog_;
  ProductList products_;
  /// Product id -> position in the corpus the index was built for;
  /// shared by copies and subsets (ids never change).
  std::shared_ptr<Index> index_ = std::make_shared<Index>();
  /// For a subset: index_ position -> position here (npos = absent).
  /// Null when index_ positions are this corpus's own.
  std::shared_ptr<const std::vector<size_t>> positions_;
  bool finalized_ = false;
};

}  // namespace comparesets
