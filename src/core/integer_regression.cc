#include "core/integer_regression.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "linalg/nomp.h"
#include "util/logging.h"

namespace comparesets {

namespace {

/// L1 distance between ν/‖ν‖₁ and the normalized continuous solution.
double NormalizedL1Distance(const std::vector<int>& nu,
                            const std::vector<double>& x_normalized) {
  double total_nu = 0.0;
  for (int v : nu) total_nu += v;
  if (total_nu == 0.0) return std::numeric_limits<double>::infinity();
  double dist = 0.0;
  for (size_t g = 0; g < nu.size(); ++g) {
    dist += std::fabs(nu[g] / total_nu - x_normalized[g]);
  }
  return dist;
}

}  // namespace

std::vector<int> RoundToIntegerCounts(const Vector& x,
                                      const std::vector<int>& caps,
                                      size_t max_total) {
  COMPARESETS_CHECK(x.size() == caps.size()) << "caps size mismatch";
  size_t q = x.size();
  std::vector<int> best(q, 0);
  double best_dist = std::numeric_limits<double>::infinity();

  double x_sum = 0.0;
  for (size_t g = 0; g < q; ++g) {
    COMPARESETS_CHECK(x[g] >= 0.0) << "rounding expects non-negative x";
    x_sum += x[g];
  }
  if (x_sum <= 0.0 || max_total == 0) return best;

  std::vector<double> x_normalized(q);
  for (size_t g = 0; g < q; ++g) x_normalized[g] = x[g] / x_sum;

  // Try every admissible total t; the normalized L1 criterion is not
  // monotone in t, so an exhaustive scan over t is both simple and exact
  // given the per-t largest-remainder rounding. Past Σcaps every group
  // fills to its cap (ν = caps for all t ≥ Σcaps) and the strict `<`
  // below keeps the first such t, so the scan stops there: a huge
  // max_total (m arrives on the wire as a u64) costs no more than
  // max_total = Σcaps.
  size_t cap_total = 0;
  for (int cap : caps) cap_total += static_cast<size_t>(std::max(cap, 0));
  size_t last_total = std::min(max_total, cap_total);
  // Scratch shared by every t: the counts under trial, each group's
  // fractional remainder, and the groups still below their cap.
  std::vector<int> nu(q);
  std::vector<double> remainder(q);
  std::vector<size_t> open(q);
  // Largest remainder first, ties to the lower group index: a total
  // order, so an unstable sort ranks exactly as a stable sort on the
  // remainder alone over groups in index order.
  auto ranks_before = [&](size_t a, size_t b) {
    return remainder[a] > remainder[b] ||
           (remainder[a] == remainder[b] && a < b);
  };
  for (size_t t = 1; t <= last_total; ++t) {
    size_t open_count = 0;
    int assigned = 0;
    for (size_t g = 0; g < q; ++g) {
      double desired = x_normalized[g] * static_cast<double>(t);
      int base = std::min(static_cast<int>(std::floor(desired)), caps[g]);
      nu[g] = base;
      assigned += base;
      if (base < caps[g]) {
        remainder[g] = desired - base;
        open[open_count++] = g;
      }
    }
    int remaining = static_cast<int>(t) - assigned;
    // Distribute leftovers to the largest fractional remainders first,
    // honoring the per-group caps. Every open group takes at least one
    // unit, so at most `remaining` of them are reached: only that many
    // need ranking.
    size_t reached =
        std::min(open_count, static_cast<size_t>(std::max(remaining, 0)));
    std::partial_sort(open.begin(), open.begin() + reached,
                      open.begin() + open_count, ranks_before);
    for (size_t k = 0; k < reached && remaining > 0; ++k) {
      size_t g = open[k];
      int take = std::min(caps[g] - nu[g], remaining);
      nu[g] += take;
      remaining -= take;
    }
    double dist = NormalizedL1Distance(nu, x_normalized);
    if (dist < best_dist) {
      best_dist = dist;
      best = nu;
    }
  }
  return best;
}

Result<IntegerRegressionResult> SolveIntegerRegression(
    const DesignSystem& system, size_t m, const TrueCostFn& true_cost,
    const ExecControl* control) {
  if (m == 0) return Status::InvalidArgument("m must be >= 1");
  if (system.cols() == 0) {
    return Status::InvalidArgument("empty design system");
  }
  COMPARESETS_CHECK(system.group_reviews.size() == system.cols() &&
                    system.gram.cols() == system.cols())
      << "dedup bookkeeping mismatch";

  IntegerRegressionResult best;
  best.cost = std::numeric_limits<double>::infinity();
  std::set<Selection> evaluated;

  auto consider = [&](Selection candidate) {
    if (candidate.empty()) return;
    std::sort(candidate.begin(), candidate.end());
    if (!evaluated.insert(candidate).second) return;
    double cost = true_cost(candidate);
    if (cost < best.cost) {
      best.cost = cost;
      best.selection = candidate;
    }
  };

  auto round_and_consider = [&](const NompResult& nomp) {
    if (nomp.support.empty()) return;
    std::vector<int> nu = RoundToIntegerCounts(nomp.x, system.dup_counts, m);
    Selection candidate;
    for (size_t g = 0; g < nu.size(); ++g) {
      // ν_g copies of group g: any ν_g members are equivalent (identical
      // annotation signature), take the first ones deterministically.
      for (int c = 0; c < nu[g]; ++c) {
        candidate.push_back(system.group_reviews[g][static_cast<size_t>(c)]);
      }
    }
    consider(std::move(candidate));
  };

  // One pursuit covers every budget: the sweep's per-ℓ snapshots are
  // bit-identical to per-ℓ SolveNompGram calls (linalg/nomp.h), with
  // O(max_ell) refits instead of O(max_ell²).
  size_t max_ell = std::min(m, system.cols());
  auto sweep = SolveNompGramSweep(system.gram, max_ell, control);
  if (!sweep.ok()) {
    StatusCode code = sweep.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      return sweep.status();
    }
    // Degenerate system: no candidates — the fallback below answers.
  } else {
    for (const NompResult& nomp : sweep.value()) {
      // Keep a control boundary per budget so cancellation between
      // true-cost calls lands.
      COMPARESETS_RETURN_NOT_OK(CheckExec(control, "integer_regression"));
      round_and_consider(nomp);
    }
  }

  if (!std::isfinite(best.cost)) {
    // Every relaxation degenerated (e.g. all-zero design rows). Fall back
    // to the first review so callers always get a non-empty selection.
    Selection fallback = {system.group_reviews[0][0]};
    best.cost = true_cost(fallback);
    best.selection = std::move(fallback);
  }
  return best;
}

Result<std::vector<IntegerRegressionResult>> SolveItemsParallel(
    size_t n, const ParallelContext& parallel, const ExecControl* control,
    const char* where,
    const std::function<Result<IntegerRegressionResult>(size_t)>& solve_item) {
  // Every lane writes only its own slot; the index-ordered merge below
  // makes the outcome independent of scheduling. Each body runs to
  // completion even if a sibling already failed — skipping would let
  // the parallel run return a different (higher-index) error than the
  // serial run on the same instance.
  std::vector<std::optional<Result<IntegerRegressionResult>>> slots(n);
  RunParallel(
      parallel, n,
      [&](size_t i) {
        Status exec = CheckExec(control, where);
        if (!exec.ok()) {
          slots[i] = exec;
          return;
        }
        slots[i] = solve_item(i);
      },
      control);

  std::vector<IntegerRegressionResult> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    COMPARESETS_CHECK(slots[i].has_value()) << "parallel item slot unset";
    if (!slots[i]->ok()) return slots[i]->status();
    results.push_back(std::move(slots[i]->value()));
  }
  return results;
}

}  // namespace comparesets
