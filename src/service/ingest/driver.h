// IngestDriver: the loop that turns an append-only review WAL into
// served corpus updates. It tails the log from a byte offset, folds
// committed records into a DeltaCorpusBuilder in batches, and publishes
// each touched shard's fresh snapshot through
// ShardRouter::ApplyShardDelta — untouched shards never move, so their
// vector caches and result memos stay warm across every drain.
//
// Crash recovery falls out of the WAL contract: on startup the driver
// replays from offset 0 (or wherever the operator resumes it), and
// ReplayWal stops at the longest committed prefix, so a torn tail from
// a crashed producer is simply not served yet. A partial trailing
// frame during live tailing is indistinguishable from a torn tail —
// the driver treats it as "not yet written" and re-reads it on the
// next drain. The bytes past the committed prefix are exported as the
// router registry's ingest.wal_pending_bytes gauge: a corrupt frame in
// the middle of the log stops every drain at the same offset, and the
// gauge staying above 0 is how that stall shows. Records naming
// unknown products count into ingest.records_dropped there.
//
// Threading: DrainOnce is the whole unit of work and may be called
// from any ONE thread at a time (the builder is not thread-safe).
// Start/Stop run it on a private polling thread at a fixed interval;
// callers who want synchronous ingestion (tests, the bench, serve's
// pre-query drain) call DrainOnce directly and must not overlap it
// with a running poller.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/ingest/delta.h"
#include "service/ingest/wal.h"
#include "service/router.h"
#include "util/status.h"

namespace comparesets {

struct IngestDriverOptions {
  /// Path of the review WAL to tail.
  std::string wal_path;
  /// Records folded into one delta batch (one epoch bump per touched
  /// shard per batch). A drain that finds more splits them into
  /// ceil(n / batch_size) batches; a drain that finds fewer applies
  /// them all as one smaller batch.
  size_t batch_size = 64;
  /// Poll interval for the background thread started by Start().
  uint64_t interval_ms = 200;
};

/// Outcome of one DrainOnce call.
struct IngestDrainStats {
  size_t records_applied = 0;  ///< Records folded into the corpus.
  size_t records_dropped = 0;  ///< Records naming unknown products.
  size_t batches = 0;          ///< Delta batches published.
  size_t shards_touched = 0;   ///< Shard snapshot publications (sum).
  uint64_t bytes_consumed = 0; ///< WAL bytes the offset advanced by.
};

class IngestDriver {
 public:
  /// Builds the driver for `router`, which must outlive it. The builder
  /// is seeded with `base` — the SAME corpus the router's current
  /// snapshots were built from — and the router's partition bounds, so
  /// every delta snapshot lands under the bounds the router routes by.
  static Result<std::unique_ptr<IngestDriver>> Create(
      Corpus base, ShardRouter* router, IngestDriverOptions options,
      DeltaCorpusBuilder::Options builder_options = {});

  ~IngestDriver();
  IngestDriver(const IngestDriver&) = delete;
  IngestDriver& operator=(const IngestDriver&) = delete;

  /// Reads every committed record past the current offset, applies them
  /// in batches of batch_size, and publishes each touched shard. A
  /// missing WAL file is not an error — the producer may not have
  /// started yet; the drain reports zero work. Advances the offset past
  /// exactly the bytes consumed, so a partial trailing frame is re-read
  /// next drain.
  Result<IngestDrainStats> DrainOnce();

  /// Starts the background polling thread (no-op when already running).
  void Start();

  /// Stops and joins the polling thread (no-op when not running). Safe
  /// to call repeatedly; also run by the destructor.
  void Stop();

  /// Next WAL byte offset a drain will read from.
  uint64_t offset() const { return offset_.load(std::memory_order_relaxed); }

  /// Lifetime totals across every drain so far.
  IngestDrainStats TotalStats() const;

 private:
  IngestDriver() = default;

  IngestDriverOptions options_;
  ShardRouter* router_ = nullptr;
  std::unique_ptr<DeltaCorpusBuilder> builder_;
  std::atomic<uint64_t> offset_{0};

  mutable std::mutex stats_mutex_;
  IngestDrainStats totals_;

  std::mutex poll_mutex_;
  std::condition_variable poll_cv_;
  bool stop_requested_ = false;
  std::thread poller_;
};

}  // namespace comparesets
