// Fixed-size worker pool shared by the eval runner and the serving
// engine. Extracted from the ad-hoc std::thread loop that used to live
// in eval/runner.cc so every batched caller shares one implementation
// (and thread creation cost is paid once per pool, not per run).
//
// Since the scheduler refactor, ThreadPool is a thin facade over
// util/scheduler's WorkStealingScheduler: per-worker deques with
// steal-half balancing and two priority classes (kInteractive /
// kBatch), where interactive tasks are never queued behind batch work.
// The API below is unchanged apart from the optional priority
// arguments, and every behavioural contract (FIFO-per-class dispatch,
// destructor drain, ParallelFor caller participation) is preserved.
//
// Two entry points:
//   * Submit(task)        — fire-and-forget enqueue;
//   * ParallelFor(n, fn)  — block until fn(0..n-1) all ran. The calling
//     thread participates in the loop, so ParallelFor makes progress
//     even on a fully busy (or 1-thread) pool.
//
// Ownership model (docs/execution-model.md): a serving process holds
// ONE pool, sized to the hardware, and lends it out — router scatter,
// batch fan-out and intra-request fan-out (util/parallel.h) nest on it
// rather than each spawning threads, so the process never
// oversubscribes.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/scheduler.h"

namespace comparesets {

/// Fixed-size work-stealing worker pool. Thread-safety: every member
/// function is safe to call from any thread; the destructor must not
/// race live Submit/ParallelFor calls (join callers before destroying
/// the pool — the engine does this by owning the pool last-declared).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = hardware concurrency, min 1).
  explicit ThreadPool(size_t num_threads = 0) : scheduler_(num_threads) {}

  /// Drains queued tasks, then joins the workers.
  ~ThreadPool() = default;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (constant for the pool's lifetime). A
  /// ParallelFor caller adds one extra lane on top of this.
  size_t num_threads() const { return scheduler_.num_threads(); }

  /// Enqueues a task in the given priority class; runs on some worker
  /// thread, FIFO within its class, and never behind lower-priority
  /// work. Tasks must not throw (the pool has no exception channel);
  /// report failures through state captured by the task.
  void Submit(std::function<void()> task,
              RequestPriority priority = RequestPriority::kInteractive) {
    scheduler_.Submit(std::move(task), priority);
  }

  /// Runs body(i) for every i in [0, n), distributing indices over the
  /// workers and the calling thread; returns when all n ran. Indices
  /// are claimed dynamically (uneven per-index work balances itself);
  /// completion order is unspecified — but which worker runs an index
  /// never affects the result, so the loop is bit-identical at every
  /// lane count and under both priorities. The body must not throw;
  /// report failures through captured per-index state (e.g. a Status
  /// slot).
  ///
  /// `max_lanes` caps the concurrency, counting the calling thread:
  /// at most max_lanes − 1 helper tasks are enqueued (0 = no cap, use
  /// every worker; 1 = run the whole loop inline on the caller).
  ///
  /// `priority` classes the helper tasks: a kBatch loop's helpers wait
  /// behind any queued interactive work (the caller still participates
  /// immediately, so the loop always progresses).
  ///
  /// Safe to call from multiple threads concurrently (each call claims
  /// its own index range) and from inside a body or a task running on
  /// this pool: the caller drains its own loop and then waits only on
  /// indices that running lanes already claimed, so nested loops always
  /// finish, at any depth and pool size (docs/execution-model.md).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                   size_t max_lanes = 0,
                   RequestPriority priority = RequestPriority::kInteractive);

  /// Successful steal-half operations since construction (diagnostics).
  uint64_t steals() const { return scheduler_.steals(); }

  /// Resolves a thread-count request: 0 means hardware concurrency and
  /// the result is clamped to [1, max_useful].
  static size_t ResolveThreads(size_t requested, size_t max_useful);

 private:
  WorkStealingScheduler scheduler_;
};

}  // namespace comparesets
