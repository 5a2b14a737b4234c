#include "core/design_matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace comparesets {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

uint64_t Mix(uint64_t h, uint64_t value) {
  return h ^ (value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// Hash of a column's nonzero (row, value) entries. Zeros of either sign
/// are skipped, so columns equal under double comparison hash equal.
uint64_t ColumnHash(std::span<const double> column, uint64_t seed) {
  uint64_t h = seed;
  for (size_t r = 0; r < column.size(); ++r) {
    if (column[r] != 0.0) {
      h = Mix(Mix(h, r), std::bit_cast<uint64_t>(column[r]));
    }
  }
  return h;
}

/// Numbers the classes of keys 0..count−1 by first appearance — Kaldi's
/// SortAndUniq idea with a hash in place of the sort: keys whose hashes
/// match are compared exactly by `same(head, key)`, walking a chain of
/// the classes sharing that hash. Returns each key's class; `heads`
/// receives each class's first key.
template <typename HashFn, typename SameFn>
std::vector<size_t> NumberClasses(size_t count, HashFn hash, SameFn same,
                                  std::vector<size_t>* heads) {
  std::unordered_map<uint64_t, size_t> latest_with_hash;
  std::vector<size_t> next_with_hash;  // Class -> older class, same hash.
  std::vector<size_t> class_of(count);
  for (size_t key = 0; key < count; ++key) {
    auto [it, fresh] = latest_with_hash.emplace(hash(key), heads->size());
    size_t c = fresh ? kNone : it->second;
    while (c != kNone && !same((*heads)[c], key)) c = next_with_hash[c];
    if (c == kNone) {
      c = heads->size();
      next_with_hash.push_back(fresh ? kNone : it->second);
      it->second = c;
      heads->push_back(key);
    }
    class_of[key] = c;
  }
  return class_of;
}

size_t PackedIndex(size_t g, size_t h) {
  return g >= h ? g * (g + 1) / 2 + h : h * (h + 1) / 2 + g;
}

/// Cuts `class_of` (a class per member, 0..classes−1) into `begin`
/// offsets and `members` in ascending member order, and returns each
/// class's size.
std::vector<int> GroupMembers(const std::vector<size_t>& class_of,
                              size_t classes, std::vector<size_t>* begin,
                              std::vector<size_t>* members) {
  std::vector<int> counts(classes, 0);
  for (size_t c : class_of) ++counts[c];
  begin->assign(classes + 1, 0);
  for (size_t c = 0; c < classes; ++c) {
    (*begin)[c + 1] = (*begin)[c] + static_cast<size_t>(counts[c]);
  }
  members->resize(class_of.size());
  std::vector<size_t> next(begin->begin(), begin->end() - 1);
  for (size_t j = 0; j < class_of.size(); ++j) {
    (*members)[next[class_of[j]]++] = j;
  }
  return counts;
}

}  // namespace

size_t ItemBlocks::ApproxMemoryBytes() const {
  size_t doubles = gram_opinion.size() + gram_aspect.size() +
                   vty_opinion.size();
  size_t ints = dup_counts.size() + opinion_dup_counts.size();
  size_t indices = group_begin.size() + group_members.size() +
                   opinion_head.size() + opinion_group_begin.size() +
                   opinion_group_members.size() + support_begin.size() +
                   support_rows.size();
  return doubles * sizeof(double) + ints * sizeof(int) +
         indices * sizeof(size_t);
}

ItemBlocks BuildItemBlocks(const ItemVectors& item) {
  const Vector& tau = item.tau;
  size_t reviews = item.reviews;
  auto opinion = [&](size_t j) { return item.OpinionColumn(j); };
  auto aspect = [&](size_t j) { return item.AspectColumn(j); };
  auto equal = [](std::span<const double> a, std::span<const double> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };

  // Opinion classes, then pair groups on (opinion class, aspect column);
  // both numbered by first appearance in review order. Column equality
  // is exact double equality, the test the materialized dedup made.
  ItemBlocks out;
  std::vector<size_t> class_heads;
  std::vector<size_t> class_of = NumberClasses(
      reviews, [&](size_t j) { return ColumnHash(opinion(j), 0); },
      [&](size_t a, size_t b) { return equal(opinion(a), opinion(b)); },
      &class_heads);
  std::vector<size_t> group_heads;
  std::vector<size_t> group_of = NumberClasses(
      reviews,
      [&](size_t j) { return ColumnHash(aspect(j), class_of[j] + 1); },
      [&](size_t a, size_t b) {
        return class_of[a] == class_of[b] && equal(aspect(a), aspect(b));
      },
      &group_heads);

  size_t q = group_heads.size();
  out.dup_counts =
      GroupMembers(group_of, q, &out.group_begin, &out.group_members);
  out.opinion_dup_counts =
      GroupMembers(class_of, class_heads.size(), &out.opinion_group_begin,
                   &out.opinion_group_members);
  // A class's first review also opens the first pair group holding it.
  out.opinion_head.reserve(class_heads.size());
  for (size_t head : class_heads) out.opinion_head.push_back(group_of[head]);

  // Each group's opinion nonzeros and aspect support, from its head.
  std::vector<size_t> entry_begin(q + 1, 0);
  std::vector<size_t> entry_rows;
  std::vector<double> entry_values;
  out.support_begin.assign(q + 1, 0);
  for (size_t g = 0; g < q; ++g) {
    std::span<const double> b = opinion(group_heads[g]);
    for (size_t r = 0; r < b.size(); ++r) {
      if (b[r] == 0.0) continue;
      entry_rows.push_back(r);
      entry_values.push_back(b[r]);
    }
    entry_begin[g + 1] = entry_rows.size();
    std::span<const double> a = aspect(group_heads[g]);
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r] == 0.0) continue;
      COMPARESETS_CHECK(a[r] == 1.0) << "aspect columns must be 0/1";
      out.support_rows.push_back(r);
    }
    out.support_begin[g + 1] = out.support_rows.size();
  }

  // Per-group right-hand sides and the two Gram triangles. Each entry is
  // a sparse dot against a dense scatter of the later column.
  out.vty_opinion.resize(q);
  out.gram_opinion.resize(q * (q + 1) / 2);
  out.gram_aspect.resize(q * (q + 1) / 2);
  std::vector<double> opinion_scatter(tau.size(), 0.0);
  std::vector<char> aspect_scatter(item.aspect_dims, 0);
  for (size_t g = 0; g < q; ++g) {
    double vty = 0.0;
    for (size_t e = entry_begin[g]; e < entry_begin[g + 1]; ++e) {
      opinion_scatter[entry_rows[e]] = entry_values[e];
      vty += entry_values[e] * tau[entry_rows[e]];
    }
    out.vty_opinion[g] = vty;
    for (size_t row : out.AspectSupport(g)) aspect_scatter[row] = 1;
    size_t packed = g * (g + 1) / 2;
    for (size_t h = 0; h <= g; ++h) {
      double dot = 0.0;
      for (size_t e = entry_begin[h]; e < entry_begin[h + 1]; ++e) {
        dot += entry_values[e] * opinion_scatter[entry_rows[e]];
      }
      size_t shared = 0;
      for (size_t row : out.AspectSupport(h)) shared += aspect_scatter[row];
      out.gram_opinion[packed + h] = dot;
      out.gram_aspect[packed + h] = static_cast<double>(shared);
    }
    for (size_t e = entry_begin[g]; e < entry_begin[g + 1]; ++e) {
      opinion_scatter[entry_rows[e]] = 0.0;
    }
    for (size_t row : out.AspectSupport(g)) aspect_scatter[row] = 0;
  }
  out.aspect_rows = item.aspect_dims;
  for (size_t r = 0; r < tau.size(); ++r) out.tau_norm2 += tau[r] * tau[r];
  return out;
}

DesignWeights DesignWeights::CompareSets(double lambda) {
  DesignWeights out;
  out.lambda = lambda;
  return out;
}

DesignWeights DesignWeights::CompareSetsPlus(
    double lambda, double mu, const std::vector<Vector>& other_phis) {
  DesignWeights out;
  out.lambda = lambda;
  out.mu = mu;
  out.other_items = other_phis.size();
  for (const Vector& phi : other_phis) {
    if (out.phi_sum.empty()) out.phi_sum = Vector(phi.size());
    COMPARESETS_CHECK(phi.size() == out.phi_sum.size())
        << "φ block size mismatch";
    for (size_t r = 0; r < phi.size(); ++r) {
      out.phi_sum[r] += phi[r];
      out.phi_norm2 += phi[r] * phi[r];
    }
  }
  return out;
}

DesignSystem AssembleDesignSystem(const ItemBlocks& blocks,
                                  std::span<const double> aspect_dots,
                                  double gamma_norm2,
                                  const DesignWeights& weights) {
  const double lambda2 = weights.lambda * weights.lambda;
  const double mu2 = weights.mu * weights.mu;
  DesignSystem out;
  GramSystem& gram = out.gram;
  gram.target_norm2 =
      blocks.tau_norm2 + lambda2 * gamma_norm2 + mu2 * weights.phi_norm2;

  if (weights.opinion_only()) {
    // No aspect rows: each opinion group is its head pair group's
    // opinion column, so G and Ṽᵀy are principal picks of the opinion
    // blocks.
    out.dup_counts = blocks.opinion_dup_counts;
    size_t q = blocks.opinion_head.size();
    out.group_reviews.reserve(q);
    gram.gram = Matrix(q, q);
    gram.vty = Vector(q);
    gram.col_norms.resize(q);
    for (size_t k = 0; k < q; ++k) {
      std::span<const size_t> members = blocks.OpinionGroupReviews(k);
      out.group_reviews.emplace_back(members.begin(), members.end());
      size_t g = blocks.opinion_head[k];
      for (size_t l = 0; l <= k; ++l) {
        double value =
            blocks.gram_opinion[PackedIndex(g, blocks.opinion_head[l])];
        gram.gram(k, l) = value;
        gram.gram(l, k) = value;
      }
      gram.vty[k] = blocks.vty_opinion[g];
      gram.col_norms[k] = std::sqrt(gram.gram(k, k));
    }
    return out;
  }

  COMPARESETS_CHECK(weights.other_items == 0 ||
                    weights.phi_sum.size() == blocks.aspect_rows)
      << "φ sum size mismatch";
  COMPARESETS_CHECK(aspect_dots.size() == blocks.group_members.size())
      << "one aspect dot per review";
  out.dup_counts = blocks.dup_counts;
  size_t q = blocks.pair_groups();
  out.group_reviews.reserve(q);
  const double aspect_weight =
      lambda2 + static_cast<double>(weights.other_items) * mu2;
  gram.gram = Matrix(q, q);
  gram.vty = Vector(q);
  gram.col_norms.resize(q);
  for (size_t g = 0; g < q; ++g) {
    std::span<const size_t> members = blocks.GroupReviews(g);
    out.group_reviews.emplace_back(members.begin(), members.end());
    size_t row = g * (g + 1) / 2;
    for (size_t h = 0; h <= g; ++h) {
      double value = blocks.gram_opinion[row + h] +
                     aspect_weight * blocks.gram_aspect[row + h];
      gram.gram(g, h) = value;
      gram.gram(h, g) = value;
    }
    double phi_dot = 0.0;
    if (weights.other_items > 0) {
      for (size_t r : blocks.AspectSupport(g)) phi_dot += weights.phi_sum[r];
    }
    // The group's columns are equal, so its head review's a(r)ᵀΓ is the
    // group's.
    gram.vty[g] = blocks.vty_opinion[g] + lambda2 * aspect_dots[members[0]] +
                  mu2 * phi_dot;
    gram.col_norms[g] = std::sqrt(gram.gram(g, g));
  }
  return out;
}

std::shared_ptr<const ItemBlocks> GetOrBuildItemBlocks(
    const InstanceVectors& vectors, size_t item) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  const ItemVectors& vectors_of_item = *vectors.items[item];
  if (auto stored = vectors_of_item.blocks.Find()) return stored;
  // Build outside the slot's lock: blocks are deterministic, so a
  // racing duplicate build produces an identical value and the first
  // insert wins.
  auto built = std::make_shared<const ItemBlocks>(
      BuildItemBlocks(vectors_of_item));
  size_t bytes = built->ApproxMemoryBytes();
  return vectors_of_item.blocks.Insert(std::move(built), bytes);
}

namespace {

DesignSystem AssembleFor(const InstanceVectors& vectors, size_t item,
                         const DesignWeights& weights) {
  return AssembleDesignSystem(*GetOrBuildItemBlocks(vectors, item),
                              vectors.AspectDots(item), vectors.gamma_norm2,
                              weights);
}

}  // namespace

DesignSystem BuildCrsSystem(const InstanceVectors& vectors, size_t item) {
  return AssembleFor(vectors, item, DesignWeights::Crs());
}

DesignSystem BuildCompareSetsSystem(const InstanceVectors& vectors,
                                    size_t item, double lambda) {
  return AssembleFor(vectors, item, DesignWeights::CompareSets(lambda));
}

DesignSystem BuildCompareSetsPlusSystem(const InstanceVectors& vectors,
                                        size_t item, double lambda, double mu,
                                        const std::vector<Vector>& other_phis) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  COMPARESETS_CHECK(other_phis.size() == vectors.num_items() - 1)
      << "expected one φ per other item";
  return AssembleFor(vectors, item,
                     DesignWeights::CompareSetsPlus(lambda, mu, other_phis));
}

}  // namespace comparesets
