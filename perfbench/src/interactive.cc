// interactive: the storefront comparison panel. Two closed-loop callers
// issue lone SelectionEngine::Select calls (CompaReSetS+, m = 3,
// alignment on as `serve` ships it) over a 240-product Cellphone
// catalog with comparative sets capped at 10 items. Targets are
// Zipf(1.0); a (λ, μ) grid sized so about a quarter of the requests are
// exact repeats of an earlier one (memo hits). Isolates eval + core /
// linalg + the intra-request fan-out in util.

#include <atomic>
#include <cmath>
#include <thread>

#include "harness.h"
#include "service/engine.h"

namespace perfbench {
namespace {

using namespace comparesets;

constexpr size_t kCallers = 2;
constexpr double kRepeatShare = 0.25;
const double kLambdas[] = {0.5, 1.0, 2.0};

/// μ values per λ so that N Zipf(1.0) draws over `targets` targets times
/// the grid repeat an earlier (target, λ, μ) about kRepeatShare of the
/// time: expected distinct keys = Σ_t G·(1 − (1 − p_t/G)^N).
size_t MuSteps(size_t targets, size_t n) {
  std::vector<double> p(targets);
  double total = 0.0;
  for (size_t i = 0; i < targets; ++i) total += p[i] = 1.0 / (i + 1.0);
  size_t best = 1;
  double best_gap = 1.0;
  for (size_t steps = 1; steps <= 400; ++steps) {
    double g = 3.0 * static_cast<double>(steps);
    double distinct = 0.0;
    for (double pi : p) {
      distinct += g * (1.0 - std::pow(1.0 - pi / total / g,
                                      static_cast<double>(n)));
    }
    double gap = std::fabs(1.0 - distinct / static_cast<double>(n) -
                           kRepeatShare);
    if (gap < best_gap) {
      best_gap = gap;
      best = steps;
    }
  }
  return best;
}

class Interactive : public Workload {
 public:
  explicit Interactive(const Args& args)
      : args_(args), products_(args.tiny ? 40 : 240) {}

  std::string SpecJson() const override {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"workload\": \"interactive\", \"seed\": %llu, "
                  "\"catalog\": \"Cellphone\", \"catalog_seed\": %llu, "
                  "\"products\": %zu, "
                  "\"item_cap\": %zu, \"callers\": %zu, \"requests\": %zu, "
                  "\"selector\": \"CompaReSetS+\", \"m\": 3, "
                  "\"grid\": \"lambda{0.5,1,2} x mu{0.05..0.05*%zu}\", "
                  "\"alignment\": true}",
                  static_cast<unsigned long long>(args_.seed),
                  static_cast<unsigned long long>(kCatalogSeed), products_,
                  kItemCap, kCallers, sequence_.size(), mu_steps_);
    return buf;
  }

  Status Setup(SetupTimes* times) override {
    engine_.reset();
    corpus_.reset();
    double t0 = NowSeconds();
    COMPARESETS_ASSIGN_OR_RETURN(Corpus corpus, GenerateCatalog(products_));
    double t1 = NowSeconds();
    InstanceOptions instances;
    instances.max_comparative_items = kItemCap;
    COMPARESETS_ASSIGN_OR_RETURN(
        corpus_, IndexedCorpus::Build(std::move(corpus), instances));
    double t2 = NowSeconds();
    engine_ = std::make_unique<SelectionEngine>(corpus_, EngineOptions{});
    double t3 = NowSeconds();
    times->generate_s = t1 - t0;
    times->index_s = t2 - t1;
    times->start_s = t3 - t2;
    if (sequence_.empty()) BuildSequence();
    return Status::OK();
  }

  Status Run(bool traced, Window* window) override {
    const size_t n = sequence_.size();
    window->call_s.assign(n, 0.0);
    window->outcomes.assign(n, Outcome{});
    std::atomic<size_t> cursor{0};
    return TimeWindow(window, [&] {
      std::vector<std::thread> callers;
      for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&] {
          for (size_t i = cursor++; i < n; i = cursor++) {
            double start = NowSeconds();
            Result<SelectResponse> answer = engine_->Select(sequence_[i]);
            window->call_s[i] = NowSeconds() - start;
            window->outcomes[i] = Summarize(sequence_[i], answer, traced);
          }
        });
      }
      for (std::thread& caller : callers) caller.join();
      return Status::OK();
    });
  }

  Status Verify(const Window& window, Verdict* verdict) override {
    std::map<std::string, uint64_t> reference;
    COMPARESETS_RETURN_NOT_OK(ReferenceDigests(corpus_, sequence_, &reference));
    CheckAgainst(window.outcomes, reference, verdict);
    return Status::OK();
  }

  Status Layers(const Window& traced, LayerValues* layers,
                Verdict* verdict) override {
    KernelLayers(*corpus_, traced, layers);
    std::vector<double> alignment_s =
        AlignmentLayers(*corpus_, traced, layers);
    (*layers)["engine.cache_mb"] = EngineCacheMb(*engine_);
    (*layers)["unattributed_ms"] =
        LoneSelectUnattributedMs(traced, alignment_s);
    // The same catalog served sharded over the wire: the net layer.
    return NetLayers(args_, layers, verdict);
  }

  void Teardown() override {
    engine_.reset();
    corpus_.reset();
  }

 private:
  static constexpr size_t kItemCap = 10;

  void BuildSequence() {
    const size_t n = SequenceCalls(args_, 275.0, 1010);
    const auto& instances = corpus_->instances();
    mu_steps_ = MuSteps(instances.size(), n);
    Rng rng(args_.seed, /*stream=*/11);
    std::vector<size_t> rank_to_instance = Permutation(instances.size(), &rng);
    Zipf zipf(instances.size(), 1.0);
    for (size_t i = 0; i < n; ++i) {
      SelectRequest request;
      request.target_id =
          instances[rank_to_instance[zipf.Sample(&rng)]].target().id;
      request.selector = "CompaReSetS+";
      request.options.m = 3;
      request.options.lambda = kLambdas[rng.UniformU32(3)];
      request.options.mu =
          0.05 * static_cast<double>(
                     1 + rng.UniformU32(static_cast<uint32_t>(mu_steps_)));
      sequence_.push_back(std::move(request));
    }
  }

  Args args_;
  size_t products_;
  size_t mu_steps_ = 0;
  std::vector<SelectRequest> sequence_;
  std::shared_ptr<const IndexedCorpus> corpus_;
  std::unique_ptr<SelectionEngine> engine_;
};

}  // namespace

std::unique_ptr<Workload> MakeInteractive(const Args& args) {
  return std::make_unique<Interactive>(args);
}

}  // namespace perfbench
