#include "service/ingest/delta.h"

#include <algorithm>
#include <utility>

#include "service/partitioner.h"

namespace comparesets {

Status ApplyWalRecordToCorpus(const WalRecord& record, Corpus* corpus) {
  size_t index = corpus->IndexOf(record.product_id);
  if (index == Corpus::npos) {
    return Status::NotFound("WAL record names unknown product '" +
                            record.product_id + "'");
  }
  // MutableProduct copies the product first when a snapshot (or another
  // corpus) shares it, so the append never reaches them.
  Review review = WalRecordToReview(record, &corpus->catalog());
  corpus->MutableProduct(index)->reviews.push_back(std::move(review));
  return Status::OK();
}

Result<std::unique_ptr<DeltaCorpusBuilder>> DeltaCorpusBuilder::Create(
    Corpus base, std::vector<std::string> bounds, Options options) {
  if (bounds.empty() || !bounds[0].empty()) {
    return Status::InvalidArgument(
        "bounds must be non-empty and start with the empty string");
  }
  for (size_t s = 1; s < bounds.size(); ++s) {
    if (bounds[s] <= bounds[s - 1]) {
      return Status::InvalidArgument("bounds must be strictly increasing");
    }
  }
  std::unique_ptr<DeltaCorpusBuilder> builder(new DeltaCorpusBuilder());
  builder->options_ = options;
  builder->master_ = std::move(base);
  if (!builder->master_.finalized()) builder->master_.Finalize();
  builder->bounds_ = std::move(bounds);

  const Corpus& corpus = builder->master_;
  const std::vector<std::string>& lower = builder->bounds_;
  const size_t num_products = corpus.num_products();

  // Target shards, also-bought positions and the reverse dependency
  // index: ids and also-bought lists are fixed for the builder's
  // lifetime, so all three are built once.
  builder->shard_of_.resize(num_products);
  builder->also_bought_.resize(num_products);
  builder->dependents_.resize(num_products);
  for (size_t t = 0; t < num_products; ++t) {
    const Product& target = corpus.products()[t];
    // The last lower bound <= id (bounds[0] == "" bounds every id).
    builder->shard_of_[t] = static_cast<size_t>(
        std::upper_bound(lower.begin(), lower.end(), target.id) -
        lower.begin() - 1);
    builder->dependents_[t].push_back(t);
    for (const std::string& other_id : target.also_bought) {
      size_t other = corpus.IndexOf(other_id);
      builder->also_bought_[t].push_back(other);
      if (other == Corpus::npos || other == t) continue;
      std::vector<size_t>& deps = builder->dependents_[other];
      if (deps.empty() || deps.back() != t) deps.push_back(t);
    }
  }

  // Baseline enumeration and per-shard closures: what the serving
  // snapshots built from this base corpus hold right now.
  builder->per_target_items_.resize(num_products);
  builder->closure_refs_.assign(lower.size(),
                                std::vector<uint32_t>(num_products, 0));
  size_t instances = 0;
  for (size_t t = 0; t < num_products; ++t) {
    builder->per_target_items_[t] = builder->ComputeTargetItems(t);
    if (builder->per_target_items_[t].empty()) continue;
    builder->CountClosure(builder->shard_of_[t], builder->per_target_items_[t],
                          /*add=*/true);
    ++instances;
  }
  if (instances == 0) {
    return Status::InvalidArgument(
        "base corpus yields no problem instances (too few linked products?)");
  }
  return builder;
}

std::vector<size_t> DeltaCorpusBuilder::ComputeTargetItems(
    size_t target) const {
  // Mirrors Corpus::BuildInstances for one target — same filters, same
  // order, same tie-breaking — so concatenating the non-empty lists
  // reproduces the from-scratch enumeration verbatim.
  const InstanceOptions& opts = options_.instances;
  const ProductList& products = master_.products();
  std::vector<size_t> items;
  if (products[target].reviews.size() < opts.min_reviews_per_item) {
    return items;
  }
  items.push_back(target);
  for (size_t other : also_bought_[target]) {
    if (opts.max_comparative_items > 0 &&
        items.size() - 1 >= opts.max_comparative_items) {
      break;
    }
    if (other == Corpus::npos || other == target) continue;
    if (products[other].reviews.size() < opts.min_reviews_per_item) continue;
    items.push_back(other);
  }
  if (items.size() - 1 < opts.min_comparative_items) items.clear();
  return items;
}

void DeltaCorpusBuilder::CountClosure(size_t shard,
                                      const std::vector<size_t>& items,
                                      bool add) {
  std::vector<uint32_t>& refs = closure_refs_[shard];
  for (size_t product : items) add ? ++refs[product] : --refs[product];
}

Result<CorpusDelta> DeltaCorpusBuilder::ApplyBatch(
    const std::vector<WalRecord>& records) {
  CorpusDelta delta;
  delta.sequence = ++sequence_;

  // Fold the batch into the master corpus, collecting which products
  // changed and how many records each absorbed.
  std::vector<size_t> landed(master_.num_products(), 0);
  std::vector<size_t> changed;
  for (const WalRecord& record : records) {
    size_t product = master_.IndexOf(record.product_id);
    if (product == Corpus::npos) {
      ++delta.records_dropped;
      continue;
    }
    COMPARESETS_RETURN_NOT_OK(ApplyWalRecordToCorpus(record, &master_));
    ++delta.records_applied;
    if (landed[product]++ == 0) changed.push_back(product);
  }
  if (delta.records_applied == 0) return delta;

  // Re-derive only the targets this batch can have affected; a target
  // whose items moved changes its shard's slice and closure.
  std::vector<size_t> affected;
  for (size_t product : changed) {
    affected.insert(affected.end(), dependents_[product].begin(),
                    dependents_[product].end());
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  std::vector<bool> slice_changed(bounds_.size(), false);
  for (size_t t : affected) {
    std::vector<size_t> items = ComputeTargetItems(t);
    if (items == per_target_items_[t]) continue;
    slice_changed[shard_of_[t]] = true;
    CountClosure(shard_of_[t], per_target_items_[t], /*add=*/false);
    CountClosure(shard_of_[t], items, /*add=*/true);
    per_target_items_[t] = std::move(items);
  }

  for (size_t s = 0; s < bounds_.size(); ++s) {
    ShardDelta shard_delta;
    shard_delta.shard_id = s;
    if (bounds_.size() == 1) {
      // The unsharded snapshot carries the WHOLE catalog, so any
      // applied record changes it. It is the full corpus — the same
      // shape IndexedCorpus::Build(full) serves, so the single-shard
      // serve path stays byte-identical to the unsharded engine.
      shard_delta.reviews_added = delta.records_applied;
      COMPARESETS_ASSIGN_OR_RETURN(
          shard_delta.snapshot,
          IndexedCorpus::BuildFromInstances(master_, per_target_items_,
                                            ShardSpec{}));
    } else {
      // Records that landed in the shard's closure as of this batch —
      // a product that just entered it via a fresh instance counts.
      for (size_t product : changed) {
        if (closure_refs_[s][product] > 0) {
          shard_delta.reviews_added += landed[product];
        }
      }
      if (!slice_changed[s] && shard_delta.reviews_added == 0) continue;
      COMPARESETS_ASSIGN_OR_RETURN(
          shard_delta.snapshot,
          CorpusPartitioner::ExtractShardFromParts(master_, per_target_items_,
                                                   bounds_, s));
    }
    delta.shards.push_back(std::move(shard_delta));
  }
  return delta;
}

}  // namespace comparesets
