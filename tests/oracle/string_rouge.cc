#include "oracle/string_rouge.h"

#include <algorithm>
#include <numeric>

#include "text/tokenizer.h"
#include "util/logging.h"

namespace comparesets::oracle {

namespace {

RougeScore FromCounts(int overlap, int candidate_total, int reference_total) {
  RougeScore score;
  if (candidate_total > 0) {
    score.precision = static_cast<double>(overlap) / candidate_total;
  }
  if (reference_total > 0) {
    score.recall = static_cast<double>(overlap) / reference_total;
  }
  if (score.precision + score.recall > 0.0) {
    score.f1 = 2.0 * score.precision * score.recall /
               (score.precision + score.recall);
  }
  return score;
}

RougeTriple MeanF1(const std::vector<RougeTriple>& scores) {
  RougeTriple mean;
  if (scores.empty()) return mean;
  for (const RougeTriple& s : scores) mean += s;
  mean /= static_cast<double>(scores.size());
  return mean;
}

/// Symmetrized pair score: averaging F1(a→b) and F1(b→a).
RougeTriple PairScore(const RougeDocument& a, const RougeDocument& b) {
  RougeTriple forward = a.ScoreAgainst(b);
  RougeTriple backward = b.ScoreAgainst(a);
  forward += backward;
  forward /= 2.0;
  return forward;
}

}  // namespace

NgramCounts CountNgrams(const std::vector<std::string>& tokens, size_t n) {
  NgramCounts counts;
  if (n == 0 || tokens.size() < n) return counts;
  for (size_t i = 0; i + n <= tokens.size(); ++i) {
    std::string key = tokens[i];
    for (size_t j = 1; j < n; ++j) {
      key.push_back('\x1f');
      key += tokens[i + j];
    }
    ++counts[key];
  }
  return counts;
}

int ClippedOverlap(const NgramCounts& a, const NgramCounts& b) {
  const NgramCounts& small = a.size() <= b.size() ? a : b;
  const NgramCounts& large = a.size() <= b.size() ? b : a;
  int overlap = 0;
  for (const auto& [gram, count] : small) {
    auto it = large.find(gram);
    if (it != large.end()) overlap += std::min(count, it->second);
  }
  return overlap;
}

int TotalCount(const NgramCounts& counts) {
  int total = 0;
  for (const auto& [gram, count] : counts) total += count;
  return total;
}

size_t LcsLength(const std::vector<std::string>& a,
                 const std::vector<std::string>& b) {
  const std::vector<std::string>& outer = a.size() >= b.size() ? a : b;
  const std::vector<std::string>& inner = a.size() >= b.size() ? b : a;
  if (inner.empty()) return 0;

  std::vector<size_t> prev(inner.size() + 1, 0);
  std::vector<size_t> curr(inner.size() + 1, 0);
  for (size_t i = 1; i <= outer.size(); ++i) {
    for (size_t j = 1; j <= inner.size(); ++j) {
      if (outer[i - 1] == inner[j - 1]) {
        curr[j] = prev[j - 1] + 1;
      } else {
        curr[j] = std::max(prev[j], curr[j - 1]);
      }
    }
    std::swap(prev, curr);
  }
  return prev[inner.size()];
}

RougeDocument::RougeDocument(std::string_view text)
    : tokens_(Tokenize(text)),
      unigrams_(CountNgrams(tokens_, 1)),
      bigrams_(CountNgrams(tokens_, 2)) {}

RougeTriple RougeDocument::ScoreAgainst(const RougeDocument& reference) const {
  RougeTriple out;
  out.rouge1 =
      FromCounts(ClippedOverlap(unigrams_, reference.unigrams_),
                 static_cast<int>(tokens_.size()),
                 static_cast<int>(reference.tokens_.size()));
  int bigram_candidate = tokens_.size() >= 2
                             ? static_cast<int>(tokens_.size()) - 1
                             : 0;
  int bigram_reference = reference.tokens_.size() >= 2
                             ? static_cast<int>(reference.tokens_.size()) - 1
                             : 0;
  out.rouge2 = FromCounts(ClippedOverlap(bigrams_, reference.bigrams_),
                          bigram_candidate, bigram_reference);
  int lcs = static_cast<int>(LcsLength(tokens_, reference.tokens_));
  out.rougeL = FromCounts(lcs, static_cast<int>(tokens_.size()),
                          static_cast<int>(reference.tokens_.size()));
  return out;
}

AlignmentScores MeasureAlignmentSubset(const ProblemInstance& instance,
                                       const std::vector<Selection>& selections,
                                       const std::vector<size_t>& items) {
  COMPARESETS_CHECK(selections.size() == instance.num_items())
      << "selection count mismatch";

  std::vector<std::vector<RougeDocument>> docs(items.size());
  for (size_t t = 0; t < items.size(); ++t) {
    size_t item = items[t];
    COMPARESETS_CHECK(item < instance.num_items()) << "item out of range";
    const Product& product = *instance.items[item];
    for (size_t review_index : selections[item]) {
      COMPARESETS_CHECK(review_index < product.reviews.size())
          << "review index out of range";
      docs[t].emplace_back(product.reviews[review_index].text);
    }
  }

  std::vector<RougeTriple> target_scores;
  std::vector<RougeTriple> among_scores;
  for (size_t a = 0; a < items.size(); ++a) {
    for (size_t b = a + 1; b < items.size(); ++b) {
      for (const RougeDocument& da : docs[a]) {
        for (const RougeDocument& db : docs[b]) {
          RougeTriple score = PairScore(da, db);
          among_scores.push_back(score);
          if (items[a] == 0 || items[b] == 0) {
            target_scores.push_back(score);
          }
        }
      }
    }
  }

  AlignmentScores out;
  out.target_vs_comparative = MeanF1(target_scores);
  out.among_items = MeanF1(among_scores);
  out.target_pairs = target_scores.size();
  out.among_pairs = among_scores.size();
  return out;
}

AlignmentScores MeasureAlignment(const ProblemInstance& instance,
                                 const std::vector<Selection>& selections) {
  std::vector<size_t> all(instance.num_items());
  std::iota(all.begin(), all.end(), 0);
  return oracle::MeasureAlignmentSubset(instance, selections, all);
}

}  // namespace comparesets::oracle
