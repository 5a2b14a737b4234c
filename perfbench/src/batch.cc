// Catalog-wide precompute, measured inside the ingest workload's traced
// run. A fixed sequence of ShardRouter::SelectBatch calls of 32 requests
// goes to 4 local shards at `serve` defaults (router pool + 4 shard pools
// on the machine's cores). Selectors are Crs, CompaReSetS and
// CompaReSetS+ in thirds, alignment is off, comparative sets are capped
// at 20, and the catalog has 2000 products, so each shard's slice (about
// 500 targets) exceeds its 256-entry vector cache. Targets sweep the
// catalog in seeded permutations and every sweep has its own μ, so no
// request repeats a memo key. It gives the router layer's figures and
// the per-selector solve times of Crs and CompaReSetS.
//
// It is not a workload of its own: a call waits for the slowest of four
// shards, each fanning its sub-batch over a pool, so its p99 followed
// host scheduling noise too closely to be gated.

#include <algorithm>

#include "harness.h"
#include "service/router.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace comparesets;

constexpr size_t kShards = 4;
constexpr size_t kFrame = 32;
constexpr size_t kItemCap = 20;
const char* const kSelectors[] = {"Crs", "CompaReSetS", "CompaReSetS+"};

/// Requests of `frame` grouped by the shard `router` sends them to.
std::vector<std::vector<SelectRequest>> SplitByShard(
    const ShardRouter& router, const std::vector<SelectRequest>& frame) {
  std::vector<std::vector<SelectRequest>> parts(router.num_shards());
  for (const SelectRequest& request : frame) {
    parts[router.ShardForTarget(request.target_id)].push_back(request);
  }
  return parts;
}

class Batch {
 public:
  Batch(const Args& args, size_t calls)
      : args_(args), products_(args.tiny ? 80 : 2000), calls_(calls) {}

  Status Setup() {
    COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(products_));
    InstanceOptions instances;
    instances.max_comparative_items = kItemCap;
    COMPARESETS_ASSIGN_OR_RETURN(
        corpus_, IndexedCorpus::Build(std::move(corpus), instances));
    COMPARESETS_ASSIGN_OR_RETURN(router_,
                                 ShardRouter::Create(corpus_, kShards,
                                                     RouterDefaults()));
    BuildSequence();
    return Status::OK();
  }

  Status Run(Window* window) {
    return ReplayFrames(frames_, /*traced=*/false, window,
                        [this](const std::vector<SelectRequest>& frame) {
                          return router_->SelectBatch(frame);
                        });
  }

  Status Verify(const Window& window, Verdict* verdict) {
    std::vector<SelectRequest> all;
    for (const auto& frame : frames_) {
      all.insert(all.end(), frame.begin(), frame.end());
    }
    std::map<std::string, uint64_t> reference;
    COMPARESETS_RETURN_NOT_OK(ReferenceDigests(corpus_, all, &reference));
    CheckAgainst(window.outcomes, reference, verdict);
    return Status::OK();
  }

  /// Replays every frame shard by shard on a fresh twin router: the
  /// slowest shard, the skew, and the router's own share of a call.
  Status Layers(LayerValues* layers) {
    // The twin starts only now, on the memory the first router gives back.
    router_.reset();
    COMPARESETS_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardRouter> twin,
        ShardRouter::Create(corpus_, kShards, RouterDefaults()));
    // Fans the shards out the way the router does: one lane per active
    // shard on a pool the size of the router's.
    ThreadPool pool(0);
    std::vector<double> slowest_ms, skew, overhead_ms;
    std::vector<double> shard_s(kShards, 0.0);
    // Runs every shard's sub-batch of `frame` on the twin's engines,
    // filling shard_s.
    auto run_shards = [&](const std::vector<SelectRequest>& frame) {
      auto parts = SplitByShard(*twin, frame);
      std::vector<size_t> active;
      for (size_t s = 0; s < kShards; ++s) {
        shard_s[s] = 0.0;
        if (!parts[s].empty()) active.push_back(s);
      }
      pool.ParallelFor(active.size(), [&](size_t k) {
        const size_t s = active[k];
        double start = NowSeconds();
        twin->shard_engine(s).SelectBatch(parts[s]);
        shard_s[s] = NowSeconds() - start;
      });
      return static_cast<size_t>(
          std::max_element(shard_s.begin(), shard_s.end()) - shard_s.begin());
    };
    // Every call again, cold, as the first router served them.
    const size_t replayed = frames_.size();
    for (size_t call = 0; call < replayed; ++call) {
      const size_t busiest = run_shards(frames_[call]);
      double sum = 0.0, used = 0.0;
      for (double s : shard_s) {
        sum += s;
        used += s > 0.0 ? 1.0 : 0.0;
      }
      const double slowest = shard_s[busiest];
      slowest_ms.push_back(slowest * 1e3);
      skew.push_back(slowest / (sum / used));
    }
    // The router's own share, on the last calls again: every request is
    // now a memo hit on both paths, so solve noise does not swamp it.
    for (size_t call = replayed - std::min<size_t>(100, replayed);
         call < replayed; ++call) {
      double start = NowSeconds();
      twin->SelectBatch(frames_[call]);
      double router_s = NowSeconds() - start;
      const size_t busiest = run_shards(frames_[call]);
      overhead_ms.push_back((router_s - shard_s[busiest]) * 1e3);
    }
    (*layers)["router.slowest_shard_ms"] = Median(slowest_ms);
    (*layers)["router.shard_skew"] = Median(skew);
    (*layers)["router.overhead_ms"] = Median(overhead_ms);
    return Status::OK();
  }

 private:
  static RouterOptions RouterDefaults() {
    RouterOptions options;
    options.engine.measure_alignment = false;
    return options;
  }

  void BuildSequence() {
    const auto& instances = corpus_->instances();
    Rng rng(args_.seed, /*stream=*/12);
    std::vector<size_t> order;
    size_t sweep = 0, next = 0;
    for (size_t call = 0; call < calls_; ++call) {
      std::vector<SelectRequest> frame;
      for (size_t k = 0; k < kFrame; ++k) {
        if (next == order.size()) {
          if (!order.empty()) ++sweep;
          order = Permutation(instances.size(), &rng);
          next = 0;
        }
        SelectRequest request;
        request.target_id = instances[order[next++]].target().id;
        request.selector = kSelectors[(call * kFrame + k) % 3];
        request.options.m = 3;
        request.options.lambda = 1.0;
        request.options.mu = 0.1 + 0.01 * static_cast<double>(sweep);
        frame.push_back(std::move(request));
      }
      frames_.push_back(std::move(frame));
    }
  }

  Args args_;
  size_t products_;
  size_t calls_;
  std::vector<std::vector<SelectRequest>> frames_;
  std::shared_ptr<const IndexedCorpus> corpus_;
  std::unique_ptr<ShardRouter> router_;
};

}  // namespace

Status BatchLayers(const Args& args, LayerValues* layers, Verdict* verdict) {
  Batch probe(args, args.tiny ? 12 : 300);
  COMPARESETS_RETURN_NOT_OK(probe.Setup());
  Window window;
  COMPARESETS_RETURN_NOT_OK(probe.Run(&window));
  COMPARESETS_RETURN_NOT_OK(probe.Verify(window, verdict));
  // Only the selectors ingest does not serve are taken from the window.
  LayerValues engine;
  EngineLayers(window, &engine);
  (*layers)["core.crs_ms"] = engine["core.crs_ms"];
  (*layers)["core.compare_sets_ms"] = engine["core.compare_sets_ms"];
  return probe.Layers(layers);
}

}  // namespace perfbench
