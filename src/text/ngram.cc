#include "text/ngram.h"

#include <algorithm>

namespace comparesets {

GramCounts<uint64_t> CountBigrams(std::span<const uint32_t> ids) {
  std::vector<uint64_t> keys;
  if (ids.size() >= 2) keys.reserve(ids.size() - 1);
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    keys.push_back((static_cast<uint64_t>(ids[i]) << 32) | ids[i + 1]);
  }
  // Sort, then collapse each run of equal keys into one count.
  std::sort(keys.begin(), keys.end());
  GramCounts<uint64_t> counts;
  for (uint64_t key : keys) {
    if (counts.empty() || counts.back().gram != key) counts.push_back({key, 0});
    ++counts.back().count;
  }
  return counts;
}

}  // namespace comparesets
