#include "core/design_matrix.h"

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
uint64_t ColumnHash(const Vector& column, uint64_t seed) {
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

}  // namespace

size_t ItemBlocks::ApproxMemoryBytes() const {
  size_t bytes = (gram_opinion.size() + gram_aspect.size() +
                  vty_opinion.size() + vty_aspect.size()) *
                 sizeof(double);
  bytes += (dup_counts.size() + opinion_dup_counts.size()) * sizeof(int);
  bytes += opinion_head.size() * sizeof(size_t);
  for (const auto& lists : {&group_reviews, &opinion_group_reviews,
                            &aspect_support}) {
    for (const std::vector<size_t>& list : *lists) {
      bytes += sizeof(list) + list.size() * sizeof(size_t);
    }
  }
  return bytes;
}

ItemBlocks BuildItemBlocks(const InstanceVectors& vectors, size_t item) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  const std::vector<Vector>& opinion = vectors.opinion_columns[item];
  const std::vector<Vector>& aspect = vectors.aspect_columns[item];
  const Vector& tau = vectors.tau[item];
  const Vector& gamma = vectors.gamma;
  size_t reviews = vectors.num_reviews(item);

  // Opinion classes, then pair groups on (opinion class, aspect column);
  // both numbered by first appearance in review order. Vector equality
  // is exact double equality, the test the materialized dedup made.
  ItemBlocks out;
  std::vector<size_t> class_heads;
  std::vector<size_t> class_of = NumberClasses(
      reviews, [&](size_t j) { return ColumnHash(opinion[j], 0); },
      [&](size_t a, size_t b) { return opinion[a] == opinion[b]; },
      &class_heads);
  std::vector<size_t> group_heads;
  std::vector<size_t> group_of = NumberClasses(
      reviews,
      [&](size_t j) { return ColumnHash(aspect[j], class_of[j] + 1); },
      [&](size_t a, size_t b) {
        return class_of[a] == class_of[b] && aspect[a] == aspect[b];
      },
      &group_heads);

  size_t q = group_heads.size();
  out.dup_counts.assign(q, 0);
  out.group_reviews.resize(q);
  out.opinion_dup_counts.assign(class_heads.size(), 0);
  out.opinion_group_reviews.resize(class_heads.size());
  for (size_t j = 0; j < reviews; ++j) {
    ++out.dup_counts[group_of[j]];
    out.group_reviews[group_of[j]].push_back(j);
    ++out.opinion_dup_counts[class_of[j]];
    out.opinion_group_reviews[class_of[j]].push_back(j);
  }
  // A class's first review also opens the first pair group holding it.
  for (size_t head : class_heads) out.opinion_head.push_back(group_of[head]);

  // Each group's opinion nonzeros and aspect support, from its head.
  std::vector<size_t> entry_begin(q + 1, 0);
  std::vector<size_t> entry_rows;
  std::vector<double> entry_values;
  out.aspect_support.resize(q);
  for (size_t g = 0; g < q; ++g) {
    const Vector& b = opinion[group_heads[g]];
    for (size_t r = 0; r < b.size(); ++r) {
      if (b[r] == 0.0) continue;
      entry_rows.push_back(r);
      entry_values.push_back(b[r]);
    }
    entry_begin[g + 1] = entry_rows.size();
    const Vector& a = aspect[group_heads[g]];
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r] == 0.0) continue;
      COMPARESETS_CHECK(a[r] == 1.0) << "aspect columns must be 0/1";
      out.aspect_support[g].push_back(r);
    }
  }

  // Per-group right-hand sides and the two Gram triangles. Each entry is
  // a sparse dot against a dense scatter of the later column.
  out.vty_opinion.resize(q);
  out.vty_aspect.resize(q);
  out.gram_opinion.resize(q * (q + 1) / 2);
  out.gram_aspect.resize(q * (q + 1) / 2);
  std::vector<double> opinion_scatter(tau.size(), 0.0);
  std::vector<char> aspect_scatter(gamma.size(), 0);
  for (size_t g = 0; g < q; ++g) {
    double vty = 0.0;
    for (size_t e = entry_begin[g]; e < entry_begin[g + 1]; ++e) {
      opinion_scatter[entry_rows[e]] = entry_values[e];
      vty += entry_values[e] * tau[entry_rows[e]];
    }
    out.vty_opinion[g] = vty;
    double vty_aspect = 0.0;
    for (size_t row : out.aspect_support[g]) {
      aspect_scatter[row] = 1;
      vty_aspect += gamma[row];
    }
    out.vty_aspect[g] = vty_aspect;
    size_t packed = g * (g + 1) / 2;
    for (size_t h = 0; h <= g; ++h) {
      double dot = 0.0;
      for (size_t e = entry_begin[h]; e < entry_begin[h + 1]; ++e) {
        dot += entry_values[e] * opinion_scatter[entry_rows[e]];
      }
      size_t shared = 0;
      for (size_t row : out.aspect_support[h]) shared += aspect_scatter[row];
      out.gram_opinion[packed + h] = dot;
      out.gram_aspect[packed + h] = static_cast<double>(shared);
    }
    for (size_t e = entry_begin[g]; e < entry_begin[g + 1]; ++e) {
      opinion_scatter[entry_rows[e]] = 0.0;
    }
    for (size_t row : out.aspect_support[g]) aspect_scatter[row] = 0;
  }
  out.aspect_rows = gamma.size();
  for (size_t r = 0; r < tau.size(); ++r) out.tau_norm2 += tau[r] * tau[r];
  for (size_t r = 0; r < gamma.size(); ++r) {
    out.gamma_norm2 += gamma[r] * gamma[r];
  }
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
                                  const DesignWeights& weights) {
  const double lambda2 = weights.lambda * weights.lambda;
  const double mu2 = weights.mu * weights.mu;
  DesignSystem out;
  GramSystem& gram = out.gram;
  gram.target_norm2 = blocks.tau_norm2 + lambda2 * blocks.gamma_norm2 +
                      mu2 * weights.phi_norm2;

  if (weights.opinion_only()) {
    // No aspect rows: each opinion group is its head pair group's
    // opinion column, so G and Ṽᵀy are principal picks of the opinion
    // blocks.
    out.dup_counts = blocks.opinion_dup_counts;
    out.group_reviews = blocks.opinion_group_reviews;
    size_t q = blocks.opinion_head.size();
    gram.gram = Matrix(q, q);
    gram.vty = Vector(q);
    gram.col_norms.resize(q);
    for (size_t k = 0; k < q; ++k) {
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
  out.dup_counts = blocks.dup_counts;
  out.group_reviews = blocks.group_reviews;
  size_t q = blocks.pair_groups();
  const double aspect_weight =
      lambda2 + static_cast<double>(weights.other_items) * mu2;
  gram.gram = Matrix(q, q);
  gram.vty = Vector(q);
  gram.col_norms.resize(q);
  for (size_t g = 0; g < q; ++g) {
    size_t row = g * (g + 1) / 2;
    for (size_t h = 0; h <= g; ++h) {
      double value = blocks.gram_opinion[row + h] +
                     aspect_weight * blocks.gram_aspect[row + h];
      gram.gram(g, h) = value;
      gram.gram(h, g) = value;
    }
    double phi_dot = 0.0;
    if (weights.other_items > 0) {
      for (size_t r : blocks.aspect_support[g]) phi_dot += weights.phi_sum[r];
    }
    gram.vty[g] = blocks.vty_opinion[g] + lambda2 * blocks.vty_aspect[g] +
                  mu2 * phi_dot;
    gram.col_norms[g] = std::sqrt(gram.gram(g, g));
  }
  return out;
}

std::shared_ptr<const ItemBlocks> GetOrBuildItemBlocks(
    const InstanceVectors& vectors, size_t item) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  if (auto stored = vectors.block_cache->Find(item)) return stored;
  // Build outside the cache's lock: blocks are deterministic, so a
  // racing duplicate build produces an identical value and the first
  // insert wins.
  auto built =
      std::make_shared<const ItemBlocks>(BuildItemBlocks(vectors, item));
  size_t bytes = built->ApproxMemoryBytes();
  return vectors.block_cache->Insert(item, std::move(built), bytes);
}

DesignSystem BuildCrsSystem(const InstanceVectors& vectors, size_t item) {
  return AssembleDesignSystem(*GetOrBuildItemBlocks(vectors, item),
                              DesignWeights::Crs());
}

DesignSystem BuildCompareSetsSystem(const InstanceVectors& vectors,
                                    size_t item, double lambda) {
  return AssembleDesignSystem(*GetOrBuildItemBlocks(vectors, item),
                              DesignWeights::CompareSets(lambda));
}

DesignSystem BuildCompareSetsPlusSystem(const InstanceVectors& vectors,
                                        size_t item, double lambda, double mu,
                                        const std::vector<Vector>& other_phis) {
  COMPARESETS_CHECK(item < vectors.num_items()) << "item out of range";
  COMPARESETS_CHECK(other_phis.size() == vectors.num_items() - 1)
      << "expected one φ per other item";
  return AssembleDesignSystem(
      *GetOrBuildItemBlocks(vectors, item),
      DesignWeights::CompareSetsPlus(lambda, mu, other_phis));
}

}  // namespace comparesets
