#include "text/rouge.h"

#include <algorithm>
#include <utility>

#include "text/tokenizer.h"

namespace comparesets {

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

}  // namespace

RougeTriple& RougeTriple::operator+=(const RougeTriple& other) {
  auto add = [](RougeScore& a, const RougeScore& b) {
    a.precision += b.precision;
    a.recall += b.recall;
    a.f1 += b.f1;
  };
  add(rouge1, other.rouge1);
  add(rouge2, other.rouge2);
  add(rougeL, other.rougeL);
  return *this;
}

RougeTriple& RougeTriple::operator/=(double denom) {
  auto div = [denom](RougeScore& s) {
    s.precision /= denom;
    s.recall /= denom;
    s.f1 /= denom;
  };
  div(rouge1);
  div(rouge2);
  div(rougeL);
  return *this;
}

InternedDocument::InternedDocument(std::vector<uint32_t> ids)
    : ids_(std::move(ids)), rows_(ids_), bigrams_(CountBigrams(ids_)) {}

RougeTriple ScoreAgainst(const InternedDocument& candidate,
                         const InternedDocument& reference, RowIndex& index) {
  index.Bind(candidate.rows());
  const int candidate_total = static_cast<int>(candidate.ids().size());
  const int reference_total = static_cast<int>(reference.ids().size());
  RougeTriple out;
  out.rouge1 = FromCounts(index.UnigramOverlap(reference.unigrams()),
                          candidate_total, reference_total);
  out.rouge2 = FromCounts(index.BigramOverlap(reference.bigrams()),
                          std::max(candidate_total - 1, 0),
                          std::max(reference_total - 1, 0));
  out.rougeL = FromCounts(static_cast<int>(index.LcsLength(reference.ids())),
                          candidate_total, reference_total);
  return out;
}

RougeScore Rouge1(std::string_view candidate, std::string_view reference) {
  return RougeAll(candidate, reference).rouge1;
}

RougeScore Rouge2(std::string_view candidate, std::string_view reference) {
  return RougeAll(candidate, reference).rouge2;
}

RougeScore RougeL(std::string_view candidate, std::string_view reference) {
  return RougeAll(candidate, reference).rougeL;
}

RougeTriple RougeAll(std::string_view candidate, std::string_view reference) {
  TokenInterner interner;
  InternedDocument a(interner.Intern(Tokenize(candidate)));
  InternedDocument b(interner.Intern(Tokenize(reference)));
  RowIndex index(interner.size());
  return ScoreAgainst(a, b, index);
}

}  // namespace comparesets
