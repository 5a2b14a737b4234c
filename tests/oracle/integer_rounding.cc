#include "oracle/integer_rounding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace comparesets::oracle {

namespace {

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

  size_t cap_total = 0;
  for (int cap : caps) cap_total += static_cast<size_t>(std::max(cap, 0));
  size_t last_total = std::min(max_total, cap_total);
  for (size_t t = 1; t <= last_total; ++t) {
    std::vector<int> nu(q, 0);
    std::vector<std::pair<double, size_t>> remainders;
    int assigned = 0;
    for (size_t g = 0; g < q; ++g) {
      double desired = x_normalized[g] * static_cast<double>(t);
      int base = std::min(static_cast<int>(std::floor(desired)), caps[g]);
      nu[g] = base;
      assigned += base;
      if (base < caps[g]) {
        remainders.emplace_back(desired - base, g);
      }
    }
    int remaining = static_cast<int>(t) - assigned;
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (const auto& [remainder, g] : remainders) {
      if (remaining <= 0) break;
      int room = caps[g] - nu[g];
      if (room <= 0) continue;
      int take = std::min(room, remaining);
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

}  // namespace comparesets::oracle
