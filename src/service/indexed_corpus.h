// IndexedCorpus: the immutable, shareable catalog snapshot the serving
// layer answers from. Wraps a finalized Corpus together with its
// enumerated problem instances (one per eligible target, §4.1.1) and a
// target-id → instance index, so per-request resolution is O(1) instead
// of re-running BuildInstances per query.
//
// Instances are built once at construction and never mutated; the
// object is always held behind shared_ptr<const IndexedCorpus>, so
// concurrent readers (engine worker threads) need no locking. Its
// products are shared with the corpus it was built from and with other
// snapshots (data/corpus.h), and stay immutable while shared.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "util/status.h"

namespace comparesets {

/// Half-open lexicographic product-id range [begin, end). An empty
/// bound is unbounded on that side, so {"", ""} covers the whole key
/// space — the range of an unsharded snapshot.
struct ShardKeyRange {
  std::string begin;  ///< Inclusive; "" = from the start of the key space.
  std::string end;    ///< Exclusive; "" = to the end of the key space.

  bool Contains(const std::string& id) const {
    if (!begin.empty() && id < begin) return false;
    if (!end.empty() && id >= end) return false;
    return true;
  }

  /// "[begin, end)" with empty bounds rendered as -inf/+inf.
  std::string ToString() const;
};

/// Which slice of a partitioned catalog a snapshot covers. The default
/// spec describes an unsharded corpus: shard 0 of 1, unbounded range.
struct ShardSpec {
  size_t shard_id = 0;
  size_t num_shards = 1;
  /// Targets (routing keys) this shard owns. The shard corpus may hold
  /// *more* products than the range — the closure of products its
  /// instances reference as comparatives.
  ShardKeyRange range;
};

class IndexedCorpus {
 public:
  /// Takes ownership of `corpus` (finalizing it if needed), enumerates
  /// its problem instances under `options`, and freezes the result.
  /// Fails when the corpus yields no instances.
  static Result<std::shared_ptr<const IndexedCorpus>> Build(
      Corpus corpus, const InstanceOptions& options = {});

  /// Builds a snapshot from a pre-enumerated instance list instead of
  /// re-running BuildInstances: each non-empty entry is one instance's
  /// items (target first) as positions in `corpus`'s products(); empty
  /// entries are skipped. This is how CorpusPartitioner guarantees
  /// shard instances are bit-identical to the full corpus's enumeration
  /// — the filter ran once, globally, and shards only re-point the
  /// items. Fails when no instance is listed or a position is out of
  /// range.
  static Result<std::shared_ptr<const IndexedCorpus>> BuildFromInstances(
      Corpus corpus, const std::vector<std::vector<size_t>>& instance_items,
      const ShardSpec& shard = {});

  const Corpus& corpus() const { return corpus_; }
  const std::string& name() const { return corpus_.name(); }
  size_t num_aspects() const { return corpus_.num_aspects(); }

  /// All enumerated instances, in BuildInstances order.
  const std::vector<ProblemInstance>& instances() const { return instances_; }
  size_t num_instances() const { return instances_.size(); }

  /// The also-bought instance whose target has `target_id`; nullptr
  /// when no instance has that target.
  const ProblemInstance* FindInstance(const std::string& target_id) const;

  /// Product lookup by id; nullptr when absent.
  const Product* FindProduct(const std::string& product_id) const {
    return corpus_.Find(product_id);
  }

  /// Which slice of a partitioned catalog this snapshot covers
  /// (the default unbounded spec for an unsharded corpus).
  const ShardSpec& shard() const { return shard_; }

 private:
  IndexedCorpus() = default;

  /// Maps every instance's target position to its instance index.
  void IndexTargets(const std::vector<size_t>& target_positions);

  Corpus corpus_;
  std::vector<ProblemInstance> instances_;
  /// Product position -> index of the instance it is the target of
  /// (npos = none).
  std::vector<size_t> instance_of_;
  ShardSpec shard_;
};

}  // namespace comparesets
