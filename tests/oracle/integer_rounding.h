// Reference RoundToIntegerCounts: the original body, which allocates its
// per-total buffers and runs a std::stable_sort of the remainders for
// every total t. The library version (core/integer_regression.h) reuses
// its buffers and sorts without allocating; its output is integers, so
// the tests require exact equality with this one.

#pragma once

#include <cstddef>
#include <vector>

#include "linalg/vector.h"

namespace comparesets::oracle {

std::vector<int> RoundToIntegerCounts(const Vector& x,
                                      const std::vector<int>& caps,
                                      size_t max_total);

}  // namespace comparesets::oracle
