#include "core/compare_sets_plus.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/compare_sets.h"
#include "core/design_matrix.h"
#include "core/integer_regression.h"
#include "core/review_sampling.h"
#include "eval/objective.h"
#include "util/timer.h"

namespace comparesets {

Result<SelectionResult> CompareSetsPlusSelector::Select(
    const InstanceVectors& vectors, const SelectorOptions& options,
    const ExecControl* control) const {
  COMPARESETS_RETURN_NOT_OK(ValidateSelectorOptions(options));
  // Algorithm 1 input: S_1..S_n from solving CompaReSetS per item
  // (itself parallel across items under the same context).
  CompareSetsSelector bootstrap;
  COMPARESETS_ASSIGN_OR_RETURN(SelectionResult state,
                               bootstrap.Select(vectors, options, control));

  size_t n = vectors.num_items();
  double mu2 = options.mu * options.mu;

  // Cache φ(S_i) of the current state; refreshed on accepted updates.
  std::vector<Vector> phis(n);
  for (size_t i = 0; i < n; ++i) {
    phis[i] = vectors.AspectOf(i, state.selections[i]);
  }

  // Sync rounds are the coupling, so they stay sequential; *within* a
  // round the n refits are independent because each one is proposed
  // against a frozen snapshot of the round-start φ blocks (Jacobi
  // style), then committed sequentially in item order against the live
  // φs. The snapshot makes the proposals order-free — a parallel round
  // is bit-identical to a serial one — and the ordered commit keeps the
  // sweep monotone: a proposal is accepted only if it strictly improves
  // item i's full coordinate cost under the *current* state.
  int sweeps = 1 + std::max(0, options.extra_sync_rounds);

  // Each round assembles item i's system afresh from its λ/μ-free
  // blocks: G = G_op + (λ² + (n−1)μ²)·G_asp never changes across
  // rounds, and the evolving φs enter only through Ṽᵀy and ‖y‖², so an
  // O(q²) assembly per round replaces any rebuild of the n−1 stacked μ
  // blocks. Sampled items draw the same restriction every round — the
  // draw depends only on (seed, item, review count) — and the bootstrap
  // above already sampled consistently (same options reached
  // CompareSetsSelector) and carries the tier/gap of its items. Each
  // lane writes only its own slot, and sweeps are sequential.
  std::vector<double> uncovered(n, 0.0);
  std::vector<char> restricted(n, 0);

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    Timer round_timer;
    const std::vector<Vector> sweep_phis = phis;

    COMPARESETS_ASSIGN_OR_RETURN(
        std::vector<IntegerRegressionResult> proposals,
        SolveItemsParallel(
            n, options.parallel, control, "comparesets+ sweep",
            [&](size_t i) {
              // Target blocks φ(S_1)…φ(S_{i-1}), φ(S_{i+1})…φ(S_n) in
              // item order, all taken from the round-start snapshot.
              std::vector<Vector> other_phis;
              other_phis.reserve(n - 1);
              for (size_t j = 0; j < n; ++j) {
                if (j != i) other_phis.push_back(sweep_phis[j]);
              }
              RestrictedSystem system = MaybeSampleSystem(
                  BuildCompareSetsPlusSystem(vectors, i, options.lambda,
                                             options.mu, other_phis),
                  options, i, vectors.num_reviews(i));
              uncovered[i] = system.uncovered_mass;
              restricted[i] = system.restricted ? 1 : 0;

              // Item i's full contribution to Eq. 5 holding the others
              // at their round-start values: own Eq. 3 cost +
              // μ² Σ_{j≠i} Δ(φ(S̃_i), φ(S_j)).
              auto cost = [&](const Selection& selection) {
                Vector phi = vectors.AspectOf(i, selection);
                double total = ItemCost(vectors, i, selection, options.lambda);
                for (size_t j = 0; j < n; ++j) {
                  if (j != i) total += mu2 * SquaredDistance(phi, sweep_phis[j]);
                }
                return total;
              };
              return SolveIntegerRegression(system.system, options.m, cost,
                                            control);
            }));

    // Ordered commit: re-evaluate each proposal against the live φs and
    // keep the incumbent unless the proposal strictly improves item i's
    // coordinate cost — so the round never degrades the objective
    // (Algorithm 1's min_Δ bookkeeping, extended with the incumbent as
    // a candidate), even though proposals were made against the
    // snapshot.
    for (size_t i = 0; i < n; ++i) {
      auto live_cost = [&](const Selection& selection) {
        Vector phi = vectors.AspectOf(i, selection);
        double total = ItemCost(vectors, i, selection, options.lambda);
        for (size_t j = 0; j < n; ++j) {
          if (j != i) total += mu2 * SquaredDistance(phi, phis[j]);
        }
        return total;
      };
      double candidate_cost = live_cost(proposals[i].selection);
      double incumbent_cost = live_cost(state.selections[i]);
      if (candidate_cost < incumbent_cost) {
        state.selections[i] = std::move(proposals[i].selection);
        phis[i] = vectors.AspectOf(i, state.selections[i]);
      }
    }
    RecordSpan(control, "compare_sets_plus.round", round_timer.ElapsedSeconds());
  }

  state.objective = CompareSetsPlusObjective(vectors, state.selections,
                                             options.lambda, options.mu);
  // Fold the sweep systems' restriction outcome into the tier/gap the
  // bootstrap already reported; keep the larger of the two bounds.
  SelectionResult sweep_outcome;
  ApplySamplingOutcome(uncovered, restricted, &sweep_outcome);
  if (sweep_outcome.tier == QualityTier::kSampled) {
    state.tier = QualityTier::kSampled;
    state.objective_gap =
        std::max(state.objective_gap, sweep_outcome.objective_gap);
  }
  return state;
}

}  // namespace comparesets
