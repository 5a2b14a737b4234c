// Microbenchmarks (google-benchmark) for the hot kernels: least squares,
// NNLS, NOMP, integer rounding, the end-to-end selectors, TargetHkS
// solvers, and ROUGE scoring.
//
// Besides the google-benchmark suite, the binary has a kernel-comparison
// mode that times the dense reference solvers (the test-side oracle in
// tests/oracle/, linked into this bench only) against the sparse
// Gram/Cholesky core on a Figure-7-style workload and writes the
// measured ratios as JSON:
//
//   micro_solvers --kernels_only [--kernels_out=results/solver_kernels.json]
//                 [--kernel=scalar|avx2|auto]
//
// The two paths must produce identical NOMP supports on every budget;
// the mode fails (non-zero exit) if they diverge. The mode also times
// the Gram-path work under each kernel-dispatch target (scalar, avx2
// where the CPU has it) and under the cross-request batched entry
// points, cross-checking that every target and the batched paths return
// bit-identical results; --kernel=NAME pins the dispatch and restricts
// the comparison to that target.
//
// A second comparison mode times one CompaReSetS+ request serially vs
// with intra-request parallelism at several lane caps, verifies the
// selections are bit-identical at every cap, and writes the measured
// speedups as JSON (see docs/benchmarks.md):
//
//   micro_solvers --intra_only [--intra_out=results/solver_intra_parallel.json]
//
// Any other arguments are forwarded to google-benchmark unchanged.

#include <benchmark/benchmark.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/compare_sets.h"
#include "core/compare_sets_plus.h"
#include "core/design_matrix.h"
#include "core/integer_regression.h"
#include "data/synthetic.h"
#include "eval/runner.h"
#include "graph/targethks_exact.h"
#include "graph/targethks_greedy.h"
#include "linalg/gram.h"
#include "linalg/kernels/kernels.h"
#include "linalg/nnls.h"
#include "linalg/nomp.h"
#include "linalg/qr.h"
#include "oracle/dense_solvers.h"
#include "text/rouge.h"
#include "util/jsonl.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace comparesets {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->UniformDouble();
  }
  return m;
}

Vector RandomVector(size_t size, Rng* rng) {
  Vector v(size);
  for (size_t i = 0; i < size; ++i) v[i] = rng->UniformDouble();
  return v;
}

void BM_LeastSquares(benchmark::State& state) {
  Rng rng(1);
  size_t rows = static_cast<size_t>(state.range(0));
  size_t cols = rows / 4 + 2;
  Matrix a = RandomMatrix(rows, cols, &rng);
  Vector b = RandomVector(rows, &rng);
  for (auto _ : state) {
    auto x = LeastSquares(a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_LeastSquares)->Arg(32)->Arg(128)->Arg(512);

void BM_Nnls(benchmark::State& state) {
  Rng rng(2);
  size_t rows = static_cast<size_t>(state.range(0));
  size_t cols = rows / 4 + 2;
  Matrix a = RandomMatrix(rows, cols, &rng);
  Vector b = RandomVector(rows, &rng);
  for (auto _ : state) {
    auto result = SolveNnls(a, b);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Nnls)->Arg(32)->Arg(128)->Arg(512);

void BM_Nomp(benchmark::State& state) {
  Rng rng(3);
  size_t cols = static_cast<size_t>(state.range(0));
  Matrix v = RandomMatrix(72, cols, &rng);  // 2z + z rows at z = 24.
  Vector target = RandomVector(72, &rng);
  for (auto _ : state) {
    auto result = SolveNomp(v, target, 10);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Nomp)->Arg(10)->Arg(40)->Arg(160);

void BM_IntegerRounding(benchmark::State& state) {
  Rng rng(4);
  size_t groups = static_cast<size_t>(state.range(0));
  Vector x = RandomVector(groups, &rng);
  std::vector<int> caps(groups, 3);
  for (auto _ : state) {
    auto nu = RoundToIntegerCounts(x, caps, 10);
    benchmark::DoNotOptimize(nu);
  }
}
BENCHMARK(BM_IntegerRounding)->Arg(8)->Arg(64)->Arg(512);

/// Shared miniature workload for the selector benchmarks.
const Workload& BenchWorkload() {
  static const Workload* kWorkload = [] {
    RunnerConfig config;
    config.category = "Cellphone";
    config.num_products = 120;
    config.max_instances = 4;
    config.seed = 42;
    return new Workload(Workload::BuildSynthetic(config).ValueOrDie());
  }();
  return *kWorkload;
}

/// Shared CompaReSetS design system (target item, λ = 1) for the
/// Gram-path kernel benchmarks.
const DesignSystem& BenchSystem() {
  static const DesignSystem* kSystem = [] {
    const InstanceVectors& vectors = BenchWorkload().vectors()[0];
    return new DesignSystem(BuildCompareSetsSystem(vectors, 0, 1.0));
  }();
  return *kSystem;
}

void BM_GramBuild(benchmark::State& state) {
  const DesignSystem& system = BenchSystem();
  for (auto _ : state) {
    GramSystem gram = BuildGramSystem(system.v, system.target);
    benchmark::DoNotOptimize(gram);
  }
}
BENCHMARK(BM_GramBuild);

void BM_NompGram(benchmark::State& state) {
  const DesignSystem& system = BenchSystem();
  size_t ell = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = SolveNompGram(system.gram, ell);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NompGram)->Arg(3)->Arg(5)->Arg(10);

void BM_NnlsGram(benchmark::State& state) {
  const GramSystem& gram = BenchSystem().gram;
  for (auto _ : state) {
    auto result = SolveNnlsGram(gram.gram, gram.vty, gram.target_norm2);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NnlsGram);

void BM_SparseMultiplyTranspose(benchmark::State& state) {
  const DesignSystem& system = BenchSystem();
  Vector out;
  for (auto _ : state) {
    system.v.MultiplyTranspose(system.target, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SparseMultiplyTranspose);

void BM_CompareSetsInstance(benchmark::State& state) {
  const InstanceVectors& vectors = BenchWorkload().vectors()[0];
  CompareSetsSelector selector;
  SelectorOptions options;
  options.m = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = selector.Select(vectors, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CompareSetsInstance)->Arg(3)->Arg(5)->Arg(10);

void BM_CompareSetsPlusInstance(benchmark::State& state) {
  const InstanceVectors& vectors = BenchWorkload().vectors()[0];
  CompareSetsPlusSelector selector;
  SelectorOptions options;
  options.m = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = selector.Select(vectors, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CompareSetsPlusInstance)->Arg(3)->Arg(5)->Arg(10);

SimilarityGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  SimilarityGraph graph(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      graph.set_weight(i, j, rng.UniformDouble(0.0, 10.0));
    }
  }
  return graph;
}

void BM_TargetHksExact(benchmark::State& state) {
  SimilarityGraph graph =
      RandomGraph(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    auto result = SolveTargetHksExact(graph, 5);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TargetHksExact)->Arg(10)->Arg(20)->Arg(30);

void BM_TargetHksGreedy(benchmark::State& state) {
  SimilarityGraph graph =
      RandomGraph(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    auto result = SolveTargetHksGreedy(graph, 5);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TargetHksGreedy)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_RougePair(benchmark::State& state) {
  const Product& product = *BenchWorkload().instances()[0].items[0];
  RougeDocument a(product.reviews[0].text);
  RougeDocument b(product.reviews[1].text);
  for (auto _ : state) {
    RougeTriple scores = a.ScoreAgainst(b);
    benchmark::DoNotOptimize(scores);
  }
}
BENCHMARK(BM_RougePair);

void BM_RougeDocumentConstruction(benchmark::State& state) {
  const Product& product = *BenchWorkload().instances()[0].items[0];
  const std::string& text = product.reviews[0].text;
  for (auto _ : state) {
    RougeDocument doc(text);
    benchmark::DoNotOptimize(doc);
  }
}
BENCHMARK(BM_RougeDocumentConstruction);

void BM_BuildInstanceVectors(benchmark::State& state) {
  const Workload& workload = BenchWorkload();
  OpinionModel model = OpinionModel::Binary(workload.corpus().num_aspects());
  for (auto _ : state) {
    InstanceVectors vectors =
        BuildInstanceVectors(model, workload.instances()[0]);
    benchmark::DoNotOptimize(vectors);
  }
}
BENCHMARK(BM_BuildInstanceVectors);

// ---------------------------------------------------------------------
// Kernel-comparison mode (--kernels_only / --kernels_out=PATH).

/// Seconds per call, measured over enough repetitions to amortize timer
/// noise (one warm-up call, then ~0.3 s of repeats).
template <typename Fn>
double TimePerCall(const Fn& fn) {
  fn();  // Warm-up: populates thread-local workspaces and caches.
  Timer probe;
  fn();
  double estimate = probe.ElapsedSeconds();
  int reps = 1;
  if (estimate < 0.3) {
    reps = static_cast<int>(0.3 / (estimate + 1e-9)) + 1;
    if (reps > 100000) reps = 100000;
  }
  Timer timer;
  for (int i = 0; i < reps; ++i) fn();
  return timer.ElapsedSeconds() / reps;
}

struct KernelTiming {
  std::string name;
  double dense_seconds = 0.0;
  double gram_seconds = 0.0;
  double speedup() const {
    return gram_seconds > 0.0 ? dense_seconds / gram_seconds : 0.0;
  }
};

/// A Figure-7-style workload whose target item carries a review count in
/// the paper's scaling regime (≥ 500 reviews on the solved item).
Workload KernelWorkload() {
  SyntheticConfig config = DefaultConfig("Cellphone", 32).ValueOrDie();
  config.avg_reviews_per_product = 600.0;
  config.max_reviews_per_product = 4000;
  config.seed = 42;
  Corpus corpus = GenerateCorpus(config).ValueOrDie();
  RunnerConfig runner;
  runner.category = config.category;
  runner.max_instances = 8;
  runner.seed = config.seed;
  return Workload::FromCorpus(std::move(corpus), runner).ValueOrDie();
}

int RunKernelComparison(const std::string& out_path,
                        const std::string& kernel_flag) {
  Workload workload = KernelWorkload();
  // Solve the instance whose target item has the most reviews.
  size_t best = 0;
  for (size_t i = 1; i < workload.num_instances(); ++i) {
    if (workload.vectors()[i].num_reviews(0) >
        workload.vectors()[best].num_reviews(0)) {
      best = i;
    }
  }
  const InstanceVectors& vectors = workload.vectors()[best];
  size_t reviews = vectors.num_reviews(0);
  DesignSystem system = BuildCompareSetsSystem(vectors, 0, 1.0);
  Matrix dense_v = system.v.ToDense();
  const size_t m = 10;
  std::printf(
      "kernel workload: target item with %zu reviews, system %zu x %zu "
      "(nnz %zu), m = %zu\n",
      reviews, system.v.rows(), system.v.cols(), system.v.nnz(), m);

  // Cross-check first: both paths must pick identical supports.
  for (size_t ell = 1; ell <= m; ++ell) {
    auto dense = SolveNomp(dense_v, system.target, ell).ValueOrDie();
    auto gram = SolveNompGram(system.gram, ell).ValueOrDie();
    if (dense.support != gram.support) {
      std::fprintf(stderr,
                   "support mismatch between dense and Gram NOMP at "
                   "ell=%zu — kernels are NOT equivalent\n",
                   ell);
      return 1;
    }
  }

  std::vector<KernelTiming> kernels;

  // Headline: the Integer-Regression relaxation sweep, ℓ = 1..m, on a
  // prepared DesignSystem. Each path solves from the structure the
  // system carries for it — the legacy system held the dense matrix,
  // the current one holds sparse Ṽ plus its precomputed GramSystem
  // (built once per system and cached; that one-time assembly is
  // measured separately as gram_build below).
  KernelTiming nomp;
  nomp.name = "nomp_sweep";
  nomp.dense_seconds = TimePerCall([&] {
    for (size_t ell = 1; ell <= m; ++ell) {
      auto result = SolveNomp(dense_v, system.target, ell);
      benchmark::DoNotOptimize(result);
    }
  });
  nomp.gram_seconds = TimePerCall([&] {
    for (size_t ell = 1; ell <= m; ++ell) {
      auto result = SolveNompGram(system.gram, ell);
      benchmark::DoNotOptimize(result);
    }
  });
  kernels.push_back(nomp);

  // The NOMP refit kernel: NNLS restricted to a pursued support. The
  // dense path copies the support columns and QR-solves rows×k systems;
  // the Gram path solves k×k normal equations in place.
  std::vector<size_t> support =
      SolveNompGram(system.gram, m).ValueOrDie().support;
  KernelTiming nnls;
  nnls.name = "nnls_refit";
  nnls.dense_seconds = TimePerCall([&] {
    Matrix sub(dense_v.rows(), support.size());
    for (size_t t = 0; t < support.size(); ++t) {
      for (size_t r = 0; r < dense_v.rows(); ++r) {
        sub(r, t) = dense_v(r, support[t]);
      }
    }
    auto result = SolveNnls(sub, system.target);
    benchmark::DoNotOptimize(result);
  });
  std::vector<double> vty_local(support.size());
  for (size_t t = 0; t < support.size(); ++t) {
    vty_local[t] = system.gram.vty[support[t]];
  }
  nnls.gram_seconds = TimePerCall([&] {
    auto result =
        SolveNnlsGramSubset(system.gram.gram, support, vty_local.data(),
                            system.gram.target_norm2, {}, nullptr);
    benchmark::DoNotOptimize(result);
  });
  kernels.push_back(nnls);

  KernelTiming multiply;
  multiply.name = "multiply_transpose";
  multiply.dense_seconds = TimePerCall([&] {
    Vector result = dense_v.MultiplyTranspose(system.target);
    benchmark::DoNotOptimize(result);
  });
  Vector scratch;
  multiply.gram_seconds = TimePerCall([&] {
    system.v.MultiplyTranspose(system.target, &scratch);
    benchmark::DoNotOptimize(scratch);
  });
  kernels.push_back(multiply);

  // Normal-equation assembly: dense column dot-products vs the sparse
  // scatter build.
  KernelTiming gram_build;
  gram_build.name = "gram_build";
  gram_build.dense_seconds = TimePerCall([&] {
    size_t q = dense_v.cols();
    Matrix gram(q, q);
    for (size_t i = 0; i < q; ++i) {
      for (size_t j = i; j < q; ++j) {
        gram(i, j) = gram(j, i) = dense_v.Column(i).Dot(dense_v.Column(j));
      }
    }
    benchmark::DoNotOptimize(gram);
  });
  gram_build.gram_seconds = TimePerCall([&] {
    GramSystem gram = BuildGramSystem(system.v, system.target);
    benchmark::DoNotOptimize(gram);
  });
  kernels.push_back(gram_build);

  std::printf("%-20s %14s %14s %10s\n", "kernel", "dense (us)", "gram (us)",
              "speedup");
  for (const KernelTiming& k : kernels) {
    std::printf("%-20s %14.2f %14.2f %9.2fx\n", k.name.c_str(),
                k.dense_seconds * 1e6, k.gram_seconds * 1e6, k.speedup());
  }

  // -------------------------------------------------------------------
  // Per-dispatch-target rows: the same Gram-path work timed under each
  // KernelDispatch target, plus the cross-request batched entry points
  // the engine's batch window runs. --kernel=NAME pins the dispatch and
  // restricts the per-target rows to it (batched rows run under the
  // best target left enabled).
  std::vector<std::string> dispatch_targets;
  if (kernel_flag == "auto") {
    dispatch_targets.push_back("scalar");
    if (Avx2Kernels() != nullptr) dispatch_targets.push_back("avx2");
  } else {
    dispatch_targets.push_back(kernel_flag);
  }

  // A window-sized batch sharing one design matrix: four distinct
  // targets, each repeated once — the duplicate mix a serving window
  // coalesces. The shared V lets BuildGramSystemBatch assemble G once
  // for all eight; the bit-exact repeats memo-hit in SolveNnlsGramBatch.
  const size_t kBatch = 8;
  std::vector<Vector> batch_targets;
  batch_targets.reserve(kBatch);
  for (size_t k = 0; k < kBatch / 2; ++k) {
    Vector t = system.target;
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] *= 1.0 + 0.05 * static_cast<double>(k);
    }
    batch_targets.push_back(std::move(t));
  }
  for (size_t k = 0; k < kBatch / 2; ++k) {
    batch_targets.push_back(batch_targets[k]);  // Bit-exact repeats.
  }
  std::vector<GramBuildItem> gram_items;
  std::vector<Vector> batch_vty(kBatch);
  std::vector<double> batch_norm2(kBatch);
  std::vector<NnlsGramProblem> nnls_problems;
  for (size_t k = 0; k < kBatch; ++k) {
    gram_items.push_back({&system.v, &batch_targets[k]});
    system.v.MultiplyTranspose(batch_targets[k], &batch_vty[k]);
    batch_norm2[k] = batch_targets[k].Dot(batch_targets[k]);
  }
  for (size_t k = 0; k < kBatch; ++k) {
    nnls_problems.push_back({&batch_vty[k], batch_norm2[k]});
  }

  // Cross-check first, as with dense-vs-gram above: every dispatch
  // target and both batched entry points must return bit-identical
  // numbers on this workload before any of them is timed.
  auto same_vector = [](const Vector& a, const Vector& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  };
  std::vector<Vector> reference_x;
  Vector reference_vty;
  for (size_t t = 0; t < dispatch_targets.size(); ++t) {
    if (!SetKernelDispatch(dispatch_targets[t].c_str())) {
      std::fprintf(stderr, "kernel target %s is unavailable on this CPU\n",
                   dispatch_targets[t].c_str());
      return 1;
    }
    std::vector<GramSystem> batch_grams = BuildGramSystemBatch(gram_items);
    std::vector<NnlsResult> batch_nnls =
        SolveNnlsGramBatch(system.gram.gram, nnls_problems).ValueOrDie();
    for (size_t k = 0; k < kBatch; ++k) {
      GramSystem solo = BuildGramSystem(*gram_items[k].v, *gram_items[k].target);
      NnlsResult nnls_solo =
          SolveNnlsGram(system.gram.gram, batch_vty[k], batch_norm2[k])
              .ValueOrDie();
      if (!same_vector(batch_grams[k].vty, solo.vty) ||
          !same_vector(batch_nnls[k].x, nnls_solo.x)) {
        std::fprintf(stderr,
                     "batched result diverged from solo calls under %s at "
                     "problem %zu — batching is NOT bit-transparent\n",
                     dispatch_targets[t].c_str(), k);
        return 1;
      }
      if (t == 0) {
        reference_x.push_back(std::move(nnls_solo.x));
        if (k == 0) reference_vty = std::move(solo.vty);
      } else if (!same_vector(batch_nnls[k].x, reference_x[k]) ||
                 (k == 0 && !same_vector(batch_grams[0].vty, reference_vty))) {
        std::fprintf(stderr,
                     "dispatch target %s diverged from %s at problem %zu — "
                     "targets are NOT bit-identical\n",
                     dispatch_targets[t].c_str(), dispatch_targets[0].c_str(),
                     k);
        return 1;
      }
    }
  }

  struct DispatchTiming {
    std::string name;
    std::string target;
    double seconds = 0.0;  // Per problem, amortized over the batch.
  };
  std::vector<DispatchTiming> dispatch;
  // Best-of-3: scheduler noise on shared machines dwarfs the per-target
  // deltas at these durations; the minimum is the least-contended run.
  auto min_time_per_call = [](const std::function<void()>& fn) {
    double best_seconds = TimePerCall(fn);
    for (int repeat = 1; repeat < 3; ++repeat) {
      best_seconds = std::min(best_seconds, TimePerCall(fn));
    }
    return best_seconds;
  };
  for (const std::string& target : dispatch_targets) {
    SetKernelDispatch(target.c_str());
    DispatchTiming gram_row{"gram_build", target};
    gram_row.seconds = min_time_per_call([&] {
                         for (const GramBuildItem& item : gram_items) {
                           GramSystem g = BuildGramSystem(*item.v, *item.target);
                           benchmark::DoNotOptimize(g);
                         }
                       }) /
                       static_cast<double>(kBatch);
    dispatch.push_back(gram_row);
    DispatchTiming nnls_row{"nnls_refit", target};
    nnls_row.seconds = min_time_per_call([&] {
                         for (size_t k = 0; k < kBatch; ++k) {
                           auto result = SolveNnlsGram(
                               system.gram.gram, batch_vty[k], batch_norm2[k]);
                           benchmark::DoNotOptimize(result);
                         }
                       }) /
                       static_cast<double>(kBatch);
    dispatch.push_back(nnls_row);
  }
  SetKernelDispatch(dispatch_targets.back().c_str());
  DispatchTiming gram_batched{"gram_build", "batched"};
  gram_batched.seconds = min_time_per_call([&] {
                           std::vector<GramSystem> grams =
                               BuildGramSystemBatch(gram_items);
                           benchmark::DoNotOptimize(grams);
                         }) /
                         static_cast<double>(kBatch);
  dispatch.push_back(gram_batched);
  DispatchTiming nnls_batched{"nnls_refit", "batched"};
  nnls_batched.seconds = min_time_per_call([&] {
                           auto results =
                               SolveNnlsGramBatch(system.gram.gram,
                                                  nnls_problems);
                           benchmark::DoNotOptimize(results);
                         }) /
                         static_cast<double>(kBatch);
  dispatch.push_back(nnls_batched);
  if (kernel_flag == "auto") SetKernelDispatch("auto");

  auto scalar_seconds = [&](const std::string& name) {
    for (const DispatchTiming& d : dispatch) {
      if (d.name == name && d.target == "scalar") return d.seconds;
    }
    return 0.0;
  };
  std::printf("\n%-14s %-10s %16s %12s   (batch of %zu, batched rows under "
              "%s)\n",
              "kernel", "target", "us/problem", "vs scalar", kBatch,
              dispatch_targets.back().c_str());
  for (const DispatchTiming& d : dispatch) {
    double base = scalar_seconds(d.name);
    std::printf("%-14s %-10s %16.2f %11.2fx\n", d.name.c_str(),
                d.target.c_str(), d.seconds * 1e6,
                base > 0.0 ? base / d.seconds : 0.0);
  }

  JsonValue::Array kernel_json;
  for (const KernelTiming& k : kernels) {
    JsonValue::Object object;
    object["name"] = k.name;
    object["dense_seconds"] = k.dense_seconds;
    object["gram_seconds"] = k.gram_seconds;
    object["speedup"] = k.speedup();
    kernel_json.push_back(JsonValue(std::move(object)));
  }
  JsonValue::Array dispatch_json;
  for (const DispatchTiming& d : dispatch) {
    JsonValue::Object object;
    object["name"] = d.name;
    object["target"] = d.target;
    object["seconds_per_problem"] = d.seconds;
    double base = scalar_seconds(d.name);
    if (base > 0.0 && d.seconds > 0.0) {
      object["speedup_vs_scalar"] = base / d.seconds;
    }
    dispatch_json.push_back(JsonValue(std::move(object)));
  }

  JsonValue::Object doc;
  doc["bench"] = "solver_kernels";
  doc["reviews"] = static_cast<int64_t>(reviews);
  doc["rows"] = static_cast<int64_t>(system.v.rows());
  doc["columns"] = static_cast<int64_t>(system.v.cols());
  doc["nnz"] = static_cast<int64_t>(system.v.nnz());
  doc["m"] = static_cast<int64_t>(m);
  doc["nomp_sweep_speedup"] = kernels.front().speedup();
  doc["kernels"] = JsonValue(std::move(kernel_json));
  doc["kernel_flag"] = kernel_flag;
  doc["batch"] = static_cast<int64_t>(kBatch);
  doc["batched_rows_target"] = dispatch_targets.back();
  doc["dispatch"] = JsonValue(std::move(dispatch_json));
  bench::StampMachine(&doc);

  size_t slash = out_path.find_last_of('/');
  if (slash != std::string::npos) {
    ::mkdir(out_path.substr(0, slash).c_str(), 0755);  // Existing is fine.
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  out << JsonValue(std::move(doc)).Dump() << "\n";
  std::printf("[json written to %s]\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Intra-request parallelism mode (--intra_only / --intra_out=PATH).

int RunIntraParallelComparison(const std::string& out_path) {
  // A single large request: many comparative items, so the per-item
  // fan-out has work to distribute.
  RunnerConfig runner;
  runner.category = "Cellphone";
  runner.num_products = 64;
  runner.max_instances = 8;
  runner.seed = 42;
  Workload workload = Workload::BuildSynthetic(runner).ValueOrDie();
  size_t best = 0;
  for (size_t i = 1; i < workload.num_instances(); ++i) {
    if (workload.vectors()[i].num_items() >
        workload.vectors()[best].num_items()) {
      best = i;
    }
  }
  const InstanceVectors& vectors = workload.vectors()[best];
  size_t items = vectors.num_items();

  CompareSetsPlusSelector selector;
  SelectorOptions options;
  options.m = 5;
  options.extra_sync_rounds = 1;

  size_t hardware = std::thread::hardware_concurrency();
  ThreadPool pool(hardware > 1 ? hardware - 1 : 1);  // Caller adds a lane.
  std::printf(
      "intra workload: instance with %zu items, m = %zu, %zu hardware "
      "threads (pool workers + caller = %zu lanes max)\n",
      items, options.m, hardware, pool.num_threads() + 1);

  options.parallel = ParallelContext{&pool, 1};
  SelectionResult reference = selector.Select(vectors, options).ValueOrDie();
  double serial_seconds = TimePerCall([&] {
    auto result = selector.Select(vectors, options);
    benchmark::DoNotOptimize(result);
  });

  JsonValue::Array timings;
  {
    JsonValue::Object row;
    row["lanes"] = static_cast<int64_t>(1);
    row["seconds"] = serial_seconds;
    row["speedup"] = 1.0;
    timings.push_back(JsonValue(std::move(row)));
  }
  std::printf("%-8s %14s %10s\n", "lanes", "seconds", "speedup");
  std::printf("%-8zu %14.4f %9.2fx\n", size_t{1}, serial_seconds, 1.0);

  for (size_t lanes : {size_t{2}, size_t{4}, pool.num_threads() + 1}) {
    if (lanes <= 1 || lanes > pool.num_threads() + 1) continue;
    options.parallel = ParallelContext{&pool, lanes};
    SelectionResult parallel = selector.Select(vectors, options).ValueOrDie();
    if (parallel.selections != reference.selections ||
        parallel.objective != reference.objective) {
      std::fprintf(stderr,
                   "parallel selections diverged from serial at %zu lanes "
                   "— determinism contract broken\n",
                   lanes);
      return 1;
    }
    double seconds = TimePerCall([&] {
      auto result = selector.Select(vectors, options);
      benchmark::DoNotOptimize(result);
    });
    double speedup = seconds > 0.0 ? serial_seconds / seconds : 0.0;
    std::printf("%-8zu %14.4f %9.2fx\n", lanes, seconds, speedup);
    JsonValue::Object row;
    row["lanes"] = static_cast<int64_t>(lanes);
    row["seconds"] = seconds;
    row["speedup"] = speedup;
    timings.push_back(JsonValue(std::move(row)));
  }

  JsonValue::Object doc;
  doc["bench"] = "solver_intra_parallel";
  doc["selector"] = "CompaReSetS+";
  doc["items"] = static_cast<int64_t>(items);
  doc["m"] = static_cast<int64_t>(options.m);
  doc["extra_sync_rounds"] = options.extra_sync_rounds;
  doc["hardware_concurrency"] = static_cast<int64_t>(hardware);
  bench::StampMachine(&doc);
  doc["timings"] = JsonValue(std::move(timings));

  size_t slash = out_path.find_last_of('/');
  if (slash != std::string::npos) {
    ::mkdir(out_path.substr(0, slash).c_str(), 0755);  // Existing is fine.
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  out << JsonValue(std::move(doc)).Dump() << "\n";
  std::printf("[json written to %s]\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace comparesets

int main(int argc, char** argv) {
  std::string kernels_out;
  std::string intra_out;
  std::string kernel_flag = "auto";
  bool kernels_only = false;
  bool intra_only = false;
  std::vector<char*> forwarded;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i] != nullptr ? argv[i] : "";
    const std::string kOutPrefix = "--kernels_out=";
    const std::string kIntraPrefix = "--intra_out=";
    const std::string kKernelPrefix = "--kernel=";
    if (arg.rfind(kOutPrefix, 0) == 0) {
      kernels_out = arg.substr(kOutPrefix.size());
    } else if (arg == "--kernels_only") {
      kernels_only = true;
    } else if (arg.rfind(kKernelPrefix, 0) == 0) {
      kernel_flag = arg.substr(kKernelPrefix.size());
    } else if (arg.rfind(kIntraPrefix, 0) == 0) {
      intra_out = arg.substr(kIntraPrefix.size());
    } else if (arg == "--intra_only") {
      intra_only = true;
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  if (kernel_flag != "auto" && kernel_flag != "scalar" &&
      kernel_flag != "avx2") {
    std::fprintf(stderr, "--kernel= must be scalar, avx2, or auto (got %s)\n",
                 kernel_flag.c_str());
    return 2;
  }
  // Pin the dispatch up front so every mode (google-benchmark suite
  // included) runs under the requested target.
  if (!comparesets::SetKernelDispatch(kernel_flag.c_str())) {
    std::fprintf(stderr, "kernel target %s is unavailable on this CPU\n",
                 kernel_flag.c_str());
    return 2;
  }
  if (kernels_only && kernels_out.empty()) {
    kernels_out = "results/solver_kernels.json";
  }
  if (intra_only && intra_out.empty()) {
    intra_out = "results/solver_intra_parallel.json";
  }
  if (!kernels_out.empty()) {
    int rc = comparesets::RunKernelComparison(kernels_out, kernel_flag);
    if (rc != 0 || (kernels_only && intra_out.empty())) return rc;
  }
  if (!intra_out.empty()) {
    int rc = comparesets::RunIntraParallelComparison(intra_out);
    if (rc != 0 || intra_only || kernels_only) return rc;
  }
  if (kernels_only) return 0;

  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                             forwarded.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
