// CorpusPartitioner: splits one catalog into N contiguous target-id
// range shards, each a self-contained IndexedCorpus.
//
// The routing key is the instance's *target* product id — the paper's
// per-target formulation (each CompaReSetS request is anchored to a
// single target p1) makes the target the natural partition key. Bounds
// are chosen so shards carry (near-)equal instance counts, not equal id
// spans: catalogs cluster ids, and balanced instances is what balances
// load.
//
// Two invariants make shards bit-identical to the monolithic corpus:
//   1. Instances are enumerated ONCE, on the full corpus. Each shard
//      receives its slice of that enumeration as explicit item-id lists
//      (IndexedCorpus::BuildFromInstances) — re-running BuildInstances
//      per shard would re-apply eligibility filters against the reduced
//      catalog and could change instance content.
//   2. Each shard corpus holds the product *closure* of its instances:
//      every in-range target plus every product any of its instances
//      references as a comparative, in original corpus order. A
//      comparative can therefore appear in several shards; the shards
//      share it (Corpus::Subset), so that costs a pointer per shard,
//      not a copy of its reviews.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "service/indexed_corpus.h"
#include "util/status.h"

namespace comparesets {

class CorpusPartitioner {
 public:
  /// Lexicographic lower bounds for `num_shards` contiguous target-id
  /// ranges, balanced by instance count. bounds[0] is always "" (the
  /// start of the key space); shard s owns [bounds[s], bounds[s+1]),
  /// with the last shard unbounded above. Fails when num_shards is 0 or
  /// exceeds the instance count (an empty shard can serve nothing).
  static Result<std::vector<std::string>> ComputeBounds(
      const IndexedCorpus& full, size_t num_shards);

  /// Extracts shard `shard_id` of the partition induced by `bounds`
  /// from `full`: the instances whose target id falls in the shard's
  /// range plus the product closure they reference. `bounds` must be as
  /// produced by ComputeBounds (bounds[0] == "", strictly increasing).
  static Result<std::shared_ptr<const IndexedCorpus>> ExtractShard(
      const IndexedCorpus& full, const std::vector<std::string>& bounds,
      size_t shard_id);

  /// ComputeBounds + ExtractShard for every shard. num_shards == 1
  /// returns {full} unchanged — the unsharded snapshot IS the one-shard
  /// partition, so the single-shard router path shares every byte with
  /// today's engine.
  static Result<std::vector<std::shared_ptr<const IndexedCorpus>>> Partition(
      std::shared_ptr<const IndexedCorpus> full, size_t num_shards);

  /// ExtractShard's core, on raw parts instead of a built IndexedCorpus:
  /// `instance_items` is the FULL corpus's enumeration, each instance's
  /// items (target first) as positions in `full_corpus.products()`, in
  /// enumeration order; empty entries are skipped. This is the seam the
  /// incremental ingestion builder (service/ingest/delta.h) shares with
  /// ExtractShard, so a delta-built shard snapshot is constructed by the
  /// very same code path a full re-extraction would take — which is what
  /// makes the delta-vs-rebuild oracle hold by construction.
  static Result<std::shared_ptr<const IndexedCorpus>> ExtractShardFromParts(
      const Corpus& full_corpus,
      const std::vector<std::vector<size_t>>& instance_items,
      const std::vector<std::string>& bounds, size_t shard_id);
};

}  // namespace comparesets
