// Incremental corpus builder: folds batches of WAL review records into
// per-shard delta snapshots, so a live review stream updates only the
// shards it touches while every other shard keeps its snapshot, epoch,
// vector cache, and result memo.
//
// The builder owns the MASTER corpus — the full catalog with every
// applied review — plus the machinery that keeps its instance
// enumeration incrementally correct:
//
//   * Enumeration is maintained per target: Corpus::BuildInstances
//     visits products in insertion order and emits one instance per
//     eligible target, so the builder stores one (possibly empty) item
//     list per product, as product positions, and re-derives ONLY the
//     targets a batch can affect. A record for product P affects target
//     T iff P == T or P appears in T's also-bought list — a reverse
//     index built once at construction makes that lookup O(1). The
//     concatenation of non-empty per-target lists is, by construction,
//     exactly what BuildInstances would enumerate from scratch.
//   * Shard snapshots are built by CorpusPartitioner::
//     ExtractShardFromParts — the same code path a full re-extraction
//     takes — under the partition bounds fixed at creation. A shard is
//     re-built (and only then) when its instance slice changed or a
//     product in its closure gained reviews; untouched shards are
//     absent from the returned delta entirely, which is what keeps
//     their engines' epochs still and their caches warm. Per shard the
//     builder keeps a reference count per product (how many of the
//     shard's instances name it), updated only for the re-derived
//     targets, so judging "touched" copies no enumeration.
//   * Products are shared, copy-on-write (data/corpus.h): a review
//     append copies only the product it lands on, and a rebuilt shard
//     snapshot shares every product with the master and with the
//     shard's previous snapshot. An instance none of whose products
//     changed therefore resolves to the same Product objects in the new
//     snapshot, which is how the engine knows to keep its cache entries
//     (SelectionEngine::Publish).
//
// The correctness contract is the delta-vs-rebuild oracle
// (tests/service_ingest_delta_test.cc): after ANY sequence of applied
// batches, every shard snapshot — corpus contents, enumeration, spec —
// and every selection payload served from it is bit-identical to a full
// rebuild from the base corpus plus the same record stream. Epochs
// differ (rebuild swaps every shard, delta only the touched ones);
// nothing else may.
//
// Scope: records reference EXISTING products (reviews arrive for items
// already in the catalog). A record naming an unknown product is
// counted as dropped, never applied — new-product ingestion would move
// the partition bounds and is a separate problem (ROADMAP).
//
// Thread-safety: none. One writer owns a builder (the IngestDriver
// serializes batches); readers only ever see the immutable snapshots
// it hands out.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/corpus.h"
#include "service/indexed_corpus.h"
#include "service/ingest/wal.h"
#include "util/status.h"

namespace comparesets {

/// One touched shard's replacement snapshot.
struct ShardDelta {
  size_t shard_id = 0;
  /// The shard's new immutable snapshot, ready to swap in.
  std::shared_ptr<const IndexedCorpus> snapshot;
  /// Batch records that landed inside this shard's product closure —
  /// the per-shard ingest counter stamped into engine metrics.
  size_t reviews_added = 0;
};

/// Outcome of folding one batch of WAL records into the corpus.
struct CorpusDelta {
  /// 1-based batch number, monotonically increasing per builder.
  uint64_t sequence = 0;
  /// Records applied to the master corpus.
  size_t records_applied = 0;
  /// Records naming a product absent from the catalog.
  size_t records_dropped = 0;
  /// Replacement snapshots for the touched shards ONLY, in shard order.
  std::vector<ShardDelta> shards;
};

/// Applies one WAL record to `corpus` in place: interns aspect names
/// and appends the review to its product. kNotFound for an unknown
/// product id. This is THE apply operation — builder, tests, and the
/// rebuild side of the oracle all fold records through it, so "the same
/// review stream" means the same corpus mutation everywhere.
Status ApplyWalRecordToCorpus(const WalRecord& record, Corpus* corpus);

class DeltaCorpusBuilder {
 public:
  struct Options {
    /// Eligibility filters for instance enumeration; must match what
    /// the serving snapshots were built with.
    InstanceOptions instances;
  };

  /// Takes the base catalog (finalized if needed) and the partition
  /// lower bounds the serving router was created with (bounds[0] must
  /// be ""; a ShardRouter exposes them as bounds(); an unsharded engine
  /// is bounds == {""}). Fails when the base corpus yields no
  /// instances or the bounds are malformed.
  static Result<std::unique_ptr<DeltaCorpusBuilder>> Create(
      Corpus base, std::vector<std::string> bounds, Options options = {});

  /// Folds `records` into the master corpus and returns the touched
  /// shards' replacement snapshots. A batch may touch zero shards (all
  /// records dropped, or applied to products outside every closure).
  Result<CorpusDelta> ApplyBatch(const std::vector<WalRecord>& records);

  /// The master corpus: base plus every applied record.
  const Corpus& corpus() const { return master_; }

  size_t num_shards() const { return bounds_.size(); }
  const std::vector<std::string>& bounds() const { return bounds_; }
  uint64_t batches_applied() const { return sequence_; }

 private:
  DeltaCorpusBuilder() = default;

  /// Recomputes product `target`'s instance items, mirroring
  /// Corpus::BuildInstances for that one target (empty = ineligible).
  std::vector<size_t> ComputeTargetItems(size_t target) const;

  /// Adds (or removes) one reference from shard `shard` to every product
  /// in `items`.
  void CountClosure(size_t shard, const std::vector<size_t>& items, bool add);

  Options options_;
  Corpus master_;
  std::vector<std::string> bounds_;
  uint64_t sequence_ = 0;

  /// Instance items per product position (target first, as positions
  /// in master_); empty = no instance.
  std::vector<std::vector<size_t>> per_target_items_;
  /// The shard whose range holds each product's id.
  std::vector<size_t> shard_of_;
  /// Each product's also-bought list as positions (npos = unknown id).
  std::vector<std::vector<size_t>> also_bought_;
  /// Per product: the targets whose instance may depend on it (itself
  /// plus every target listing it as also-bought).
  std::vector<std::vector<size_t>> dependents_;
  /// Per shard, per product: how many of the shard's instances name the
  /// product. Its closure is the products counted above zero. For a
  /// single-shard builder the closure is implicitly the whole catalog —
  /// the unsharded snapshot carries every product.
  std::vector<std::vector<uint32_t>> closure_refs_;
};

}  // namespace comparesets
