#include "service/ingest/driver.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace comparesets {

Result<std::unique_ptr<IngestDriver>> IngestDriver::Create(
    Corpus base, ShardRouter* router, IngestDriverOptions options,
    DeltaCorpusBuilder::Options builder_options) {
  if (router == nullptr) {
    return Status::InvalidArgument("IngestDriver requires a router");
  }
  if (options.wal_path.empty()) {
    return Status::InvalidArgument("IngestDriver requires a wal_path");
  }
  if (options.batch_size == 0) {
    return Status::InvalidArgument("ingest batch_size must be >= 1");
  }
  std::unique_ptr<IngestDriver> driver(new IngestDriver());
  driver->options_ = std::move(options);
  driver->router_ = router;
  COMPARESETS_ASSIGN_OR_RETURN(
      driver->builder_,
      DeltaCorpusBuilder::Create(std::move(base), router->bounds(),
                                 builder_options));
  return driver;
}

IngestDriver::~IngestDriver() { Stop(); }

Result<IngestDrainStats> IngestDriver::DrainOnce() {
  IngestDrainStats stats;
  uint64_t offset = offset_.load(std::memory_order_relaxed);
  Result<WalReplayResult> replayed = ReplayWal(options_.wal_path, offset);
  if (!replayed.ok()) {
    // No log yet: the producer has not started. Zero work, not an
    // error — the next drain will find it.
    if (replayed.status().code() == StatusCode::kNotFound) return stats;
    return replayed.status();
  }
  const WalReplayResult& tail = replayed.value();
  if (!tail.records.empty()) {
    for (size_t begin = 0; begin < tail.records.size();
         begin += options_.batch_size) {
      size_t end =
          std::min(begin + options_.batch_size, tail.records.size());
      std::vector<WalRecord> batch(tail.records.begin() + begin,
                                   tail.records.begin() + end);
      COMPARESETS_ASSIGN_OR_RETURN(CorpusDelta delta,
                                   builder_->ApplyBatch(batch));
      stats.records_applied += delta.records_applied;
      stats.records_dropped += delta.records_dropped;
      router_->metrics()
          .counter("ingest.records_dropped")
          .Increment(delta.records_dropped);
      ++stats.batches;
      for (ShardDelta& shard : delta.shards) {
        COMPARESETS_RETURN_NOT_OK(router_->ApplyShardDelta(
            shard.shard_id, std::move(shard.snapshot), shard.reviews_added));
        ++stats.shards_touched;
      }
    }
  }
  // Advance past exactly the committed bytes: a torn/in-flight tail
  // (tail.dropped_bytes) is NOT consumed and will be re-read — by then
  // either completed by the producer or still torn. A corrupt frame
  // mid-log is never completed, so replay stops there on every drain;
  // the pending-bytes gauge staying above 0 at an unmoving offset is
  // how that shows.
  stats.bytes_consumed = tail.valid_bytes - offset;
  offset_.store(tail.valid_bytes, std::memory_order_relaxed);
  router_->metrics().SetGauge("ingest.wal_pending_bytes",
                              static_cast<double>(tail.dropped_bytes));

  std::lock_guard<std::mutex> lock(stats_mutex_);
  totals_.records_applied += stats.records_applied;
  totals_.records_dropped += stats.records_dropped;
  totals_.batches += stats.batches;
  totals_.shards_touched += stats.shards_touched;
  totals_.bytes_consumed += stats.bytes_consumed;
  return stats;
}

IngestDrainStats IngestDriver::TotalStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return totals_;
}

void IngestDriver::Start() {
  std::lock_guard<std::mutex> lock(poll_mutex_);
  if (poller_.joinable()) return;
  stop_requested_ = false;
  poller_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(poll_mutex_);
    while (!stop_requested_) {
      lock.unlock();
      // Drain failures are deliberately swallowed here: a transient
      // error (e.g. an injected apply fault) leaves the offset where it
      // was, so the next tick retries the same records.
      (void)DrainOnce();
      lock.lock();
      poll_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.interval_ms),
                        [this] { return stop_requested_; });
    }
  });
}

void IngestDriver::Stop() {
  {
    std::lock_guard<std::mutex> lock(poll_mutex_);
    if (!poller_.joinable()) return;
    stop_requested_ = true;
  }
  poll_cv_.notify_all();
  poller_.join();
}

}  // namespace comparesets
