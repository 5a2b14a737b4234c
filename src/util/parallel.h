// Intra-request parallelism seam.
//
// A ParallelContext names the thread pool a single request may fan its
// independent per-product work onto (the per-item Integer-Regression
// solves, the CompaReSetS+ within-round refits, the O(n²) similarity-
// graph edges). It is a *runtime control*, like a deadline: it changes
// how fast an answer is computed, never which answer — every fan-out
// site merges its results in index order, so a parallel run is
// bit-identical to `max_threads = 1` (asserted by
// tests/core_parallel_determinism_test.cc).
//
// Pool ownership (docs/execution-model.md): a serving process has one
// pool, and the SelectionEngine hands every request — lone or inside a
// batch that itself fans out on the pool — a context over it, capped by
// EngineOptions::max_intra_request_threads. Nested fan-out on one pool
// always finishes (ThreadPool::ParallelFor). Selectors never create
// threads of their own.

#pragma once

#include <cstddef>
#include <functional>

#include "util/scheduler.h"

namespace comparesets {

class ThreadPool;
struct ExecControl;

/// Borrowed view of the pool a request may use for intra-request
/// fan-out. Copyable; the pool must outlive every solve it is passed
/// to (the engine's pool outlives all requests by construction).
struct ParallelContext {
  /// Pool to fan out on; nullptr = run serially on the calling thread.
  ThreadPool* pool = nullptr;
  /// Cap on concurrent lanes, counting the calling thread (which always
  /// participates). 0 = no cap beyond the pool size; 1 = never fan out.
  size_t max_threads = 0;
  /// Scheduling class for helper tasks this context fans out. A batch
  /// request's helpers yield to queued interactive work; like the pool
  /// pointer, this is a runtime control and never changes the result.
  RequestPriority priority = RequestPriority::kInteractive;

  /// Concurrent lanes a fan-out over `n` tasks would use: at most the
  /// pool's workers + the calling thread, capped by max_threads and n.
  /// 1 when the context is empty (pool == nullptr).
  size_t Lanes(size_t n) const;
};

/// Runs body(i) for every i in [0, n) and returns the number of lanes
/// used. With Lanes(n) == 1 the loop runs serially, in index order, on
/// the calling thread; otherwise it is distributed over the context's
/// pool (caller participating, indices claimed dynamically, completion
/// order unspecified). The body must not throw; it communicates through
/// per-index slots it writes — callers merge those slots in index order
/// so the observable result never depends on scheduling.
///
/// When the loop actually fans out (lanes > 1) and `control` carries the
/// intra-parallel counters, one fan-out and n tasks are tallied into
/// them (the `solver.intra_parallel_*` metrics and the request trace).
size_t RunParallel(const ParallelContext& context, size_t n,
                   const std::function<void(size_t)>& body,
                   const ExecControl* control = nullptr);

}  // namespace comparesets
